"""Scalar numeric kernels.

Everything downstream (the bound catalog, the sweeps, the operator
certificates) reduces to four functions of one or two real variables:

- the arithmetic-to-geometric mean ratio  R(t, v) = ((1-v) + v t) / t^v,
- the Kantorovich constant               K(t) = (t+1)^2 / (4t),
- the deformed exponential               exp_r(x) = (1 + r x)^(1/r),
- the identity argument                  (t-1)^2 / t = 4 (K(t) - 1).

The public entry points take the validated value types below; the private
``_*`` kernels accept floats or numpy arrays and are what the grid code uses.
An EvalPoint's row memo (_Memo) is the one evaluator of rows at a point: a
query reads p._rows[row id, r], and a miss runs the kernel of _ROWS[row id].
exp_r is one function, _dexp, for points, grids and the blocks that grid
walks fill in place (its out argument).
Floats and arrays go through the same numpy ufuncs and the same IEEE
arithmetic, so a point's value equals its grid value bitwise.  That is why
powers are computed as exp(v*log t) and squares as products d * d:
Python's ``**`` on a float goes through the C library's pow, which can differ
from numpy's square in the last bit and raises OverflowError where the
product would give inf.
"""

import dataclasses
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError

# Below this magnitude exp_r switches to its r -> 0 limit exp(x).  The two
# differ by about |r| x^2 / 2 relative, under 2^-53 wherever exp(x) is finite
# (|x| <= 745); above it log1p(r x)/r is the accurate form.
R_ZERO_SWITCH = 1e-22

# Outside [1/RATIO_LOG_FORM, RATIO_LOG_FORM] the ratio is evaluated fully in
# log space to avoid overflow of the separate numerator and t^v factors.
RATIO_LOG_FORM = 1e3


def _record(cls):
    """cls as a frozen dataclass whose __init__ takes one parameter per field,
    in field order with no defaults, and stores each into __dict__.

    The generated __init__ of a frozen dataclass sets every field through
    object.__setattr__, which took 2.6-2.8x as long for a 7-field record,
    and the point path builds many records per query.  The __init__ is
    compiled with exec, as dataclasses compiles its own: a zip over the
    fields or a keyword __dict__.update took 1.4-2x as long.
    """
    cls = dataclass(frozen=True, init=False)(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    stores = "".join(f"    fields[{name!r}] = {name}\n" for name in names)
    namespace = {}
    exec(f"def __init__(self, {', '.join(names)}):\n    fields = self.__dict__\n{stores}",
         namespace)
    cls.__init__ = namespace["__init__"]
    return cls


@dataclass(frozen=True, init=False)
class EvalPoint:
    """A (t, v) evaluation point: t > 0, weight v in [0, 1]."""

    t: float
    v: float

    # Fills __dict__ directly, as _record's __init__s do, but admits t and v
    # first and starts the row memo, so it is written by hand.
    def __init__(self, t, v):
        fields = self.__dict__
        t = fields["t"] = _admit_t(t)
        v = fields["v"] = _admit_v("v", v)
        # The point's row memo (_Memo), {(row id, r): value}; R is the row
        # ("ratio", None).  Not a field: it takes no part in eq, hash or repr.
        fields["_rows"] = _Memo(t, v)

    @property
    def ratio(self):
        """R(t, v) at this point, read through the row memo."""
        return self._rows["ratio", None]


@dataclass(frozen=True)
class DeformParam:
    """Deformation parameter r of exp_r, restricted to [-1, 1].

    r = 0 denotes the classical exponential limit.  Probes outside [-1, 1]
    bypass this type and call deformed_exp_raw directly.
    """

    r: float

    def __post_init__(self):
        r = float(self.r)
        if not math.isfinite(r) or not -1.0 <= r <= 1.0:
            raise DomainError(f"deformation parameter must lie in [-1, 1], got {self.r!r}")
        object.__setattr__(self, "r", r)


def _admit_t(t):
    """t as a float if it is a finite positive real; DomainError quoting t otherwise."""
    value = float(t)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"t must be a finite positive real, got {t!r}")
    return value


def _admit_v(name, v):
    """v as a float if it lies in [0, 1]; DomainError naming and quoting it otherwise."""
    value = float(v)
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {v!r}")
    return value


def _finite_r(owner, r):
    """r as a float if it is finite; DomainError naming owner otherwise."""
    r = float(r)
    if not math.isfinite(r):
        raise DomainError(f"{owner} requires a finite r, got {r}")
    return r


def _admit_r(owner, upper, r=None):
    """The float r of owner's exp_r bound, given a float, a DeformParam or None.

    exp_r decreases in r, so an upper bound takes r in (0, 1] and a lower
    bound r in [-1, 0); None gives the tightest end, 1 or -1.  Any other r
    raises DomainError naming owner.
    """
    if r is None:
        return 1.0 if upper else -1.0
    r = r.r if isinstance(r, DeformParam) else float(r)
    if (0.0 < r <= 1.0) if upper else (-1.0 <= r < 0.0):
        return r
    interval = "(0.0, 1.0]" if upper else "[-1.0, 0.0)"
    raise DomainError(f"{owner} requires r in {interval}, got {r}")


def _check_threshold(name, value):
    """Reject a NaN, negative or infinite tolerance: it would fix the verdict."""
    if not (math.isfinite(value) and value >= 0.0):
        raise DomainError(f"{name} must be a finite number >= 0, got {value!r}")


def _pow(t, v):
    """t**v as exp(v*log t); t and v may be arrays, t > 0 assumed."""
    return np.exp(v * np.log(t))


def _ratio(t, v):
    """Mean ratio ((1-v) + v t) / t^v for positive t arrays/floats, overflowing in no branch.

    Inside [1/RATIO_LOG_FORM, RATIO_LOG_FORM] it is the plain product; where
    every t lies outside, the log form alone; a t array that straddles the
    window takes each form where it belongs.
    """
    num = (1.0 - v) + v * t
    extreme = (t < 1.0 / RATIO_LOG_FORM) | (t > RATIO_LOG_FORM)
    some = every = extreme
    if isinstance(extreme, np.ndarray):
        some = extreme.any()
        every = some and extreme.all()
    if not some:
        # Inside the window num and t^-v both lie in [1e-3, 1e3]: no overflow.
        return num * np.exp(-v * np.log(t))
    # Fully-log form where t is extreme (num > 0, so log is safe).
    log_form = np.exp(np.log(num) - v * np.log(t))
    if every:
        return log_form
    # np.where evaluates the plain form at extreme t too, so it takes t = 1
    # there: below t ~ 1e-308 its t^-v would overflow.
    plain = num * np.exp(-v * np.log(np.where(extreme, 1.0, t)))
    return np.where(extreme, log_form, plain)


def _ratio_plan(t, v, r, arena):
    """R's plan for a grid walk: fill(i0, out, tmp) writes _ratio(t[i0:i0 + m], v)
    into the m rows of out, bit for bit, broadcasting v, 1-v and -v (two arena
    rows, once per walk) against log t and each row's side of the window, taken
    once per walk over the whole t column (O(n_t) doubles and bytes).

    Each maximal run of a block's rows on one side of the window takes that
    side's form, in place with _ratio's ufuncs in _ratio's order: the plain
    form inside the window, the log form outside.  So a block that straddles
    the window costs what its runs cost, not both forms at every point.
    """
    rest, minus_v = np.subtract(1.0, v, out=next(arena.rows)), np.negative(v, out=next(arena.rows))
    # One byte per row, 1 outside the window: a run ends at one bytes.find.
    log_t, extreme = np.log(t), ((t < 1.0 / RATIO_LOG_FORM) | (t > RATIO_LOG_FORM)).tobytes()

    def fill_run(i0, out, tmp, outside):
        m = len(out)
        t_col, log_col = t[i0:i0 + m], log_t[i0:i0 + m]
        np.add(rest, np.multiply(v, t_col, out=out), out=out)
        if outside:
            np.subtract(np.log(out, out=out), np.multiply(v, log_col, out=tmp), out=out)
            np.exp(out, out=out)
        else:
            np.multiply(out, np.exp(np.multiply(minus_v, log_col, out=tmp), out=tmp), out=out)

    # The run loop is its own closure: a fill_run that called itself would
    # hold its own cell, a cycle keeping the walk's arena until gc runs.
    def fill(i0, out, tmp):
        start, end = i0, i0 + len(out)
        while start < end:
            outside = extreme[start]
            stop = extreme.find(1 - outside, start, end)
            stop = end if stop < 0 else stop
            fill_run(start, out[start - i0:stop - i0], tmp[start - i0:stop - i0], outside)
            start = stop

    return fill


def _sq(s):
    d = s - 1.0
    return d * d


def _kantorovich(t):
    """K(t) = (t+1)^2/(4t), computed as 1 + (t-1)^2/(4t).

    The additive form guarantees K >= 1 in floating point and preserves the
    low bits of K - 1, which the identity check leans on.
    """
    return 1.0 + _sq(t) / (4.0 * t)


def _identity_arg(t):
    return _sq(t) / t


def _dexp(r, x, out=None, nonneg=False):
    """exp_r(x) = (1+rx)^(1/r) for a float r and float/array x, written into
    the array out (x itself allowed) when out is given.

    Requires 1 + r*x >= 0, checked in one pass over x.  nonneg promises
    every x is >= 0 or NaN: then at r > 0, 1 + r*x >= 1 or NaN, and the pass
    is skipped (r <= 0 keeps it).  The boundary 1 + r*x = 0 maps to the limit
    value: 0 for r > 0, +inf for r < 0, which numpy reports as a divide by
    zero under the caller's np.errstate.  1 * x and -1 * x are exact, so at
    r = +-1 the code forms 1 + x or 1 - x and returns it or its reciprocal.
    With out the same ufuncs run in the same order, so the bits are those
    without it.  Without out no ufunc gets an out keyword, not even None: a
    ufunc on a float takes about four times as long with one.
    """
    if -R_ZERO_SWITCH < r < R_ZERO_SWITCH:
        return np.exp(x) if out is None else np.exp(x, out=out)
    unit = r == 1.0 or r == -1.0
    # The domain test reads 1 + x or 1 - x at r = +-1, and elsewhere r*x, log1p's
    # argument, computed once: 1 + r*x < 0 exactly when r*x < -1, for
    # fl(1 + y) < 0 exactly when y < -1.
    if out is None:
        arg = (1.0 + x if r == 1.0 else 1.0 - x) if unit else r * x
    elif unit:
        arg = np.add(1.0, x, out=out) if r == 1.0 else np.subtract(1.0, x, out=out)
    else:
        arg = np.multiply(r, x, out=out)
    # fmin skips NaN, so one pass finds the least defined value; the initial
    # value lets an empty array through.
    if not (nonneg and r > 0.0):
        least = (np.fmin.reduce(arg, axis=None, initial=np.inf)
                 if isinstance(arg, np.ndarray) else arg)
        if least < (0.0 if unit else -1.0):
            raise DomainError(f"exp_r undefined: 1 + r*x < 0 at r={r}")
    if r == 1.0:
        return arg
    if out is not None:
        return (np.divide(1.0, arg, out=out) if unit
                else np.exp(np.divide(np.log1p(arg, out=out), r, out=out), out=out))
    if r == -1.0:
        # Python's float division raises at the pole, numpy's gives inf.
        return np.divide(1.0, arg) if least == 0.0 else 1.0 / arg
    return np.exp(np.log1p(arg) / r)


# R itself as a row, the operand every bound is compared with.  The lambda
# looks _ratio up at each call, so a substitute put in its place is the one used.
_R_ROW = SimpleNamespace(id="ratio", region="all-t", default_r=None,
                         kernel=lambda t, v, r: _ratio(t, v), plan=_ratio_plan, v_rows=2)


# Every row a point may read, by id: R here as "ratio", and each catalog entry,
# which catalog adds under its bound id as it builds the catalog.
_ROWS = {"ratio": _R_ROW}


class _Memo(dict):
    """The row memo of the point (t, v), {(row id, r): value}, r None for a
    fixed-r row: the one place a row, R included, is evaluated at a point.

    A point query reads a row as one subscript, p._rows[row id, r].  A miss
    looks the row up in _ROWS, computes its kernel at (t, v, r) and keeps the
    value, so every later query of the same row at the point reads it.  A
    kernel that raises keeps nothing, and the same query raises again.
    """

    __slots__ = ("t", "v")

    def __init__(self, t, v):
        self.t, self.v = t, v

    def __missing__(self, key):
        row_id, r = key
        value = self[key] = float(_ROWS[row_id].kernel(self.t, self.v, r))
        return value

    # Slots without __getstate__ do not pickle at protocols 0 and 1; this
    # rebuilds the memo at its point with its kept values, at every protocol
    # and for copy and deepcopy.
    def __reduce__(self):
        return _Memo, (self.t, self.v), None, None, iter(self.items())


def young_ratio(p):
    """Arithmetic-to-geometric mean ratio at an EvalPoint; always >= 1."""
    return p._rows["ratio", None]


def kantorovich(t):
    """Kantorovich constant (t+1)^2/(4t) for t > 0; K(1/t) = K(t) >= 1."""
    return float(_kantorovich(_admit_t(float(t))))  # the message quotes t as a float


def deformed_exp(r, x):
    """exp_r(x) for a DeformParam r; exp(x) when r is (numerically) zero."""
    return float(_dexp(r.r, float(x)))


def deformed_exp_raw(r, x):
    """exp_r(x) for a bare float r with no [-1, 1] admissibility check.

    Exists for optimality probes at r slightly above 1; r must still be
    finite, and the domain requirement 1 + r*x >= 0 still applies.
    """
    r = _finite_r("deformed_exp_raw", r)
    if np.ndim(x) == 0:
        return float(_dexp(r, x))
    return _dexp(r, np.asarray(x, dtype=float))


def kantorovich_identity_arg(t):
    """(t-1)^2/t, which equals 4*(kantorovich(t) - 1)."""
    return float(_identity_arg(_admit_t(float(t))))  # the message quotes t as a float
