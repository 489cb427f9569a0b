"""Registry of named bounds on the mean ratio R(t, v) = ((1-v) + v t) / t^v.

Each entry records which side it bounds (an upper entry satisfies R <= bound,
a lower one bound <= R), on which t-range it is valid, and how to evaluate it.
The catalog is data: one row per entry, naming its pieces of one formula,
exp_r(W(v) s(t) base(t)^(-v-1)) (_kernel), so every entry is one
scalar._dexp call.  The Kantorovich power is exp_0, the FM polynomial exp_1.
Three entries carry r as a parameter; when the caller omits it the tightest
admissible value is used (r = 1 for C33-expr and C38-hi, r = -1 for C38-lo, by
the monotonicity of exp_r in r).  A point query reads a row as one subscript
of the EvalPoint's memo, p._rows[row id, r]: the memo (scalar._Memo) computes
a row it does not hold yet, once, looking it up in the one id -> row table
_ROWS, and keeps it for every later query there.  R itself is one more row of
that table, scalar._R_ROW: comparisons (the ordering chain, the differences,
the margins) name it as "ratio" beside the catalog rows, but it is not a
catalog entry.

Each region is a closed t-interval (_REGION_T) where the entry is valid: t = 1
lies in both half-lines, and every entry is exactly 1 there.  It does not pick
the formula: off its half-line an entry equals its twin (evaluate_grid).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegionError, UnknownBoundError
from .scalar import (_R_ROW, _ROWS, DeformParam, EvalPoint, _admit_r, _admit_t, _admit_v,
                     _check_threshold, _dexp, _identity_arg, _kantorovich, _pow, _record, _sq)

UPPER = "upper"
LOWER = "lower"

ALL_T = "all-t"
T_LE_1 = "t-le-1"
T_GE_1 = "t-ge-1"

# The closed t-interval of each region.
_REGION_T = {ALL_T: (0.0, math.inf), T_LE_1: (0.0, 1.0), T_GE_1: (1.0, math.inf)}


@dataclass(frozen=True)
class BoundSpec:
    """Catalog entry: identifier, side, validity region, default deformation."""

    id: str
    side: str
    region: str
    deform: DeformParam | None
    description: str


@_record
class Certificate:
    """One inequality checked at one point.

    margin is bound - ratio for upper entries and ratio - bound for lower
    entries, so holds <=> margin >= -tol either way.
    """

    bound_id: str
    point: EvalPoint
    ratio_value: float
    bound_value: float
    margin: float
    holds: bool
    tol: float


@_record
class ChainLink:
    """One inequality of the t <= 1 ordering chain and its signed margin."""

    claim: str
    margin: float


# One square of each half-square argument: (s-1)^2 with s = min{t, 1/t} (lo)
# or max{t, 1/t} (hi).  For t <= 1, fl(1/t) >= 1 >= t: s is t or 1/t exactly.
def _half_lo(t):
    s = np.minimum(t, 1.0 / t) if isinstance(t, np.ndarray) else t if t <= 1.0 else 1.0 / t
    return _sq(s)


def _half_hi(t):
    s = np.maximum(t, 1.0 / t) if isinstance(t, np.ndarray) else t if t >= 1.0 else 1.0 / t
    return _sq(s)


def _log_k(t):
    return np.log(_kantorovich(t))


def _kernel(c, pick, s, base, fixed):
    """(kernel, plan, v_rows) of the one formula of every row, for every t > 0:
    exp_r(x) with x = W(v) s(t) base(t)^(-v-1), the base factor only where
    base is given.  W is c v(1-v) (1 v is exact), or pick(v, 1-v) for the K
    rows: pick pairs a ufunc, for arrays and plans, with a builtin for a float
    (0.18 us against 1 us on two floats; they agree on every v in [0, 1]).  r
    is fixed, or the caller's where fixed is None (a fixed-r row is called with
    r = None).  K(t)^W is exp_0(W log K(t)) and the FM polynomial exp_1 of its
    product: _dexp computes exp(W log K) and 1 + x.  x is >= 0, or NaN where
    0 * inf, so no domain pass runs at r > 0 (nonneg).

    kernel(t, v, r) reads floats and arbitrary arrays.  plan(t_col, v_row, r,
    arena) serves a grid walk (verify._row_blocks): once per walk it computes
    the t-only factors over the walk's whole t column, O(n_t) doubles each,
    and its v_rows v-only factors, each in place in one of the arena's rows.
    It returns fill(i0, out, tmp), which writes the kernel's block of rows i0,
    i0 + 1, ... into out by broadcasting those rows against slices of those
    columns, with the kernel's ufuncs in the kernel's order, so bit for bit.
    """
    pick_array, pick = pick or (None, None)

    def kernel(t, v, r):
        if pick is None:
            x = c * v * (1.0 - v) * s(t)
        else:
            x = (pick_array(v, 1.0 - v) if isinstance(v, np.ndarray) else pick(v, 1.0 - v)) * s(t)
        if base is not None:
            x = x * _pow(base(t), -v - 1.0)
        return _dexp(r if fixed is None else fixed, x, nonneg=True)

    def plan(t, v, r, arena):
        r = r if fixed is None else fixed
        weight, st = np.subtract(1.0, v, out=next(arena.rows)), s(t)
        if pick is None:
            np.multiply(c * v, weight, out=weight)
        else:
            pick_array(v, weight, out=weight)
        if base is not None:
            power, log_base = next(arena.rows), np.log(base(t))
            np.subtract(np.negative(v, out=power), 1.0, out=power)

        def fill(i0, out, tmp):
            m = len(out)
            x = np.multiply(weight, st[i0:i0 + m], out=out)
            if base is not None:
                np.multiply(x, np.exp(np.multiply(power, log_base[i0:i0 + m], out=tmp), out=tmp),
                            out=x)
            _dexp(r, x, out=out, nonneg=True)
        return fill
    return kernel, plan, 1 if base is None else 2


class _Pair:
    """The one comparison of two rows (_ROWS, R included): lhs - rhs, or rhs - lhs
    if reversed, on the narrower of their regions (they nest), t in [t_lo, t_hi].
    sub reads two values or two spectra, kernel arrays (rhs at r = None), and plan
    a grid walk: lhs's plan first, so a bound's t-only temporaries are gone before
    R's takes log t; fill writes lhs into out, rhs into tmp (scratch as its tmp),
    then subtracts in place.  A plan without a free r ignores the walk's r."""

    def __init__(self, lhs, rhs, reverse=False):
        self.lhs, self.rhs, self.reverse = lhs, rhs, reverse
        self.v_rows = lhs.v_rows + rhs.v_rows
        self.region = rhs.region if lhs.region == ALL_T else lhs.region
        self.t_lo, self.t_hi = _REGION_T[self.region]

    def sub(self, lhs, rhs):
        return rhs - lhs if self.reverse else lhs - rhs

    def kernel(self, t, v, r):
        return self.sub(self.lhs.kernel(t, v, r), self.rhs.kernel(t, v, None))

    def plan(self, t, v, r, arena):
        fill_lhs, fill_rhs = self.lhs.plan(t, v, r, arena), self.rhs.plan(t, v, r, arena)
        scratch, reverse = arena.scratch, self.reverse

        def fill(i0, out, tmp):
            fill_lhs(i0, out, tmp)
            fill_rhs(i0, tmp, scratch[:len(out)])
            np.subtract(*((tmp, out) if reverse else (out, tmp)), out=out)
        return fill


class _Entry:
    """One catalog row: its id, region (and the region's closed t-interval
    [t_lo, t_hi]), BoundSpec and kernel, the one kernel that every read of the
    row (a point, a grid, a difference, a claim) calls, and the kernel's plan,
    which the grid walks of sweeps and witness searches fill in place.  margin
    is its _Pair with R (bound - R if upper, R - bound if lower, >= 0 if it holds).

    c, pick, s, base and r are the row's pieces of _kernel's formula; r is None
    where the caller may choose r within scalar._admit_r's interval for its side.
    """

    def __init__(self, bid, side, region, c, pick, s, base, r, description):
        deform = self.default_r = None
        if r is None:  # r is the caller's, by default the tightest
            self.default_r = _admit_r(bid, side == UPPER)
            deform = DeformParam(self.default_r)
        self.id, self.region = bid, region
        self.t_lo, self.t_hi = _REGION_T[region]
        self.spec = BoundSpec(bid, side, region, deform, description)
        self.kernel, self.plan, self.v_rows = _kernel(c, pick, s, base, r)
        self.margin = _Pair(self, _R_ROW, reverse=side == LOWER)

    def admit(self, deform):
        """Resolve the deformation (a DeformParam, a float or None) to a float r."""
        if self.default_r is None:
            if deform is not None:
                raise DomainError(f"{self.id} takes no deformation parameter")
            return None
        return _admit_r(self.id, self.spec.side == UPPER, deform)


# One row per entry: id, side, region, c, pick, s, base, r, description.  At
# every t > 0, D1-exp and T31-poly are C33-expr at r = 0 and 1, D2-* is C38-*
# at r = 0, and T36-lo-* and T36-hi-* are C38-lo at r = -1 and C38-hi at r = 1.
_CATALOG = tuple(_Entry(*row) for row in (
    ("D1-exp", UPPER, ALL_T, 1.0, None, _identity_arg, None, 0.0,
     "exponential upper bound exp(v(1-v)(t-1)^2/t)"),
    ("K-upper", UPPER, ALL_T, None, (np.maximum, max), _log_k, None, 0.0,
     "Kantorovich power upper bound K(t)^max{v,1-v}"),
    ("K-lower", LOWER, ALL_T, None, (np.minimum, min), _log_k, None, 0.0,
     "Kantorovich power lower bound K(t)^min{v,1-v}"),
    ("D2-lo-le1", LOWER, T_LE_1, 0.5, None, _half_lo, None, 0.0,
     "exponential lower bound exp((v(1-v)/2)(t-1)^2) for t <= 1"),
    ("D2-hi-le1", UPPER, T_LE_1, 0.5, None, _half_hi, None, 0.0,
     "exponential upper bound exp((v(1-v)/2)(1/t-1)^2) for t <= 1"),
    ("D2-lo-ge1", LOWER, T_GE_1, 0.5, None, _half_lo, None, 0.0,
     "exponential lower bound exp((v(1-v)/2)(1/t-1)^2) for t >= 1"),
    ("D2-hi-ge1", UPPER, T_GE_1, 0.5, None, _half_hi, None, 0.0,
     "exponential upper bound exp((v(1-v)/2)(t-1)^2) for t >= 1"),
    ("FM-m", LOWER, T_LE_1, 0.5, None, _sq, lambda t: 0.5 * (t + 1.0), 1.0,
     "polynomial lower bound 1 + (v(1-v)(t-1)^2/2)((t+1)/2)^(-v-1) for t <= 1"),
    ("FM-M", UPPER, T_LE_1, 0.5, None, _sq, lambda t: t, 1.0,
     "polynomial upper bound 1 + (v(1-v)(t-1)^2/2) t^(-v-1) for t <= 1"),
    ("T31-poly", UPPER, ALL_T, 1.0, None, _identity_arg, None, 1.0,
     "polynomial upper bound 1 + v(1-v)(t-1)^2/t"),
    ("C33-expr", UPPER, ALL_T, 1.0, None, _identity_arg, None, None,
     "deformed-exponential upper bound exp_r(v(1-v)(t-1)^2/t), 0 < r <= 1"),
    ("T36-lo-le1", LOWER, T_LE_1, 0.5, None, _half_lo, None, -1.0,
     "reciprocal lower bound 1/(1 - (v(1-v)/2)(t-1)^2) for t <= 1"),
    ("T36-hi-le1", UPPER, T_LE_1, 0.5, None, _half_hi, None, 1.0,
     "polynomial upper bound 1 + (v(1-v)/2)(1/t-1)^2 for t <= 1"),
    ("T36-lo-ge1", LOWER, T_GE_1, 0.5, None, _half_lo, None, -1.0,
     "reciprocal lower bound 1/(1 - (v(1-v)/2)(1/t-1)^2) for t >= 1"),
    ("T36-hi-ge1", UPPER, T_GE_1, 0.5, None, _half_hi, None, 1.0,
     "polynomial upper bound 1 + (v(1-v)/2)(t-1)^2 for t >= 1"),
    ("C38-lo", LOWER, ALL_T, 0.5, None, _half_lo, None, None,
     "deformed-exponential lower bound exp_r((v(1-v)/2)(1 - min{1,t}/max{1,t})^2), -1 <= r < 0"),
    ("C38-hi", UPPER, ALL_T, 0.5, None, _half_hi, None, None,
     "deformed-exponential upper bound exp_r((v(1-v)/2)(1 - max{1,t}/min{1,t})^2), 0 < r <= 1"),
))

_BY_ID = {e.id: e for e in _CATALOG}

# Every row a comparison or a point may name: the catalog's, and R as "ratio".
_ROWS.update(_BY_ID)

_SPECS = tuple(e.spec for e in _CATALOG)

# The entries of each side in catalog order, the candidates of tightest.
_SIDE = {side: tuple(e for e in _CATALOG if e.spec.side == side) for side in (UPPER, LOWER)}

# The ordering chain on 0 < t <= 1, one (claim, lo, hi) row per link claiming
# lo <= hi: D2-lo-le1 <= FM-m <= R <= FM-M <= D2-hi-le1, then two side links.
_CHAIN = tuple((f"{lo} <= {hi}", lo, hi) for lo, hi in (
    ("D2-lo-le1", "FM-m"), ("FM-m", "ratio"), ("ratio", "FM-M"), ("FM-M", "D2-hi-le1"),
    ("T36-lo-le1", "FM-m"), ("FM-M", "T36-hi-le1")))

# The memo keys of the chain's seven rows in the order of their first read,
# each link's hi before its lo: the first read of a row at a point decides
# whether it warns or raises there.
_CHAIN_KEYS = tuple((bid, _ROWS[bid].default_r) for bid in dict.fromkeys(
    bid for _, lo, hi in _CHAIN for bid in (hi, lo)))


def _lookup(bound_id):
    try:
        return _BY_ID[bound_id]
    except KeyError:
        raise UnknownBoundError(f"unknown bound id {bound_id!r}") from None


def bound_ids():
    """All catalog identifiers in stable catalog order."""
    return tuple(e.id for e in _CATALOG)


def list_bounds():
    """All catalog entries as BoundSpec records, stable order."""
    return _SPECS


def get_bound(bound_id):
    """The BoundSpec for one identifier."""
    return _lookup(bound_id).spec


def _outside(entry, p):
    return RegionError(f"{entry.id} is not valid at t={p.t} (region {entry.region})")


def evaluate(bound_id, p, deform=None):
    """Value of the named bound at an EvalPoint.

    deform must be omitted for entries without a deformation parameter;
    for C33-expr/C38-hi/C38-lo it is a DeformParam or a float r, and
    defaults to the tightest admissible value.
    """
    entry = _BY_ID.get(bound_id) or _lookup(bound_id)
    if not entry.t_lo <= p.t <= entry.t_hi:
        raise _outside(entry, p)
    return p._rows[entry.id, entry.default_r if deform is None else entry.admit(deform)]


def evaluate_grid(bound_id, t, v, deform=None):
    """Vectorized evaluate over broadcastable t/v arrays, region unchecked.  Off
    its half-line an entry is still its formula at its r, so it equals its twin bit
    for bit: D2-lo-le1 is D2-lo-ge1, T36-lo-* is C38-lo at r = -1, hi rows alike.
    t and v are checked as EvalPoint checks them (DomainError), each operand
    before broadcasting by its least and greatest value, NaN if it holds one,
    so in O(n_t + n_v); an empty operand passes and gives an empty result."""
    entry = _lookup(bound_id)
    t, v = np.asarray(t, dtype=float), np.asarray(v, dtype=float)
    if t.size:
        _admit_t(float(t.min())), _admit_t(float(t.max()))
    if v.size:
        _admit_v("v", float(v.min())), _admit_v("v", float(v.max()))
    return entry.kernel(t, v, entry.admit(deform))


def certify_point(bound_id, p, deform=None, tol=1e-12):
    """Check the named inequality at one point and report the signed margin.

    tol must be finite and >= 0 (DomainError otherwise).  The checks that
    pass (tol, the id, the region, an omitted r) call no function.
    """
    if not 0.0 <= tol < math.inf:
        _check_threshold("tol", tol)
    entry = _BY_ID.get(bound_id) or _lookup(bound_id)
    if not entry.t_lo <= p.t <= entry.t_hi:
        raise _outside(entry, p)
    rows = p._rows
    bound_value = rows[entry.id, entry.default_r if deform is None else entry.admit(deform)]
    ratio_value = rows["ratio", None]
    margin = entry.margin.sub(bound_value, ratio_value)
    return Certificate(bound_id, p, ratio_value, bound_value, margin, margin >= -tol, tol)


def tightest(side, p):
    """(id, value) of the smallest upper or largest lower bound valid at p.

    Deformed entries enter with their default (tightest) parameter; ties are
    broken by catalog order.
    """
    if side not in (UPPER, LOWER):
        raise DomainError(f"side must be {UPPER!r} or {LOWER!r}, got {side!r}")
    upper = side == UPPER
    t, rows = p.t, p._rows
    best = None
    for entry in _SIDE[side]:
        if entry.t_lo <= t <= entry.t_hi:
            value = rows[entry.id, entry.default_r]
            if best is None or (value < best[1] if upper else value > best[1]):
                best = (entry.id, value)
    return best


def chain_check(p):
    """Margins of the six-link ordering chain on 0 < t <= 1 (_CHAIN).

    Each of the seven rows, R included, is read from the point's memo once per
    call (_CHAIN_KEYS), so it is evaluated once per point however many links
    name it; every margin is hi - lo, the amount by which its inequality holds
    (>= 0 in exact arithmetic).
    """
    if p.t > 1.0:
        raise RegionError(f"the ordering chain applies to t <= 1 only, got t={p.t}")
    rows = p._rows
    value = {key[0]: rows[key] for key in _CHAIN_KEYS}
    return tuple([ChainLink(claim, value[hi] - value[lo]) for claim, lo, hi in _CHAIN])
