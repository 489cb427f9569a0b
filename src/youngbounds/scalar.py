"""Scalar numeric kernels.

Everything downstream (the bound catalog, the sweeps, the operator
certificates) reduces to four functions of one or two real variables:

- the arithmetic-to-geometric mean ratio  R(t, v) = ((1-v) + v t) / t^v,
- the Kantorovich constant               K(t) = (t+1)^2 / (4t),
- the deformed exponential               exp_r(x) = (1 + r x)^(1/r),
- the identity argument                  (t-1)^2 / t = 4 (K(t) - 1).

The public entry points take the validated value types below; the private
``_*`` kernels accept floats or numpy arrays and are what the grid code uses.
Floats and arrays go through the same numpy ufuncs and the same IEEE
arithmetic, so a point's value equals its grid value bitwise.  That is why
powers are computed as exp(v*log t) and squares as parenthesised products:
Python's ``**`` on a float goes through the C library's pow, which can differ
from numpy's square in the last bit and raises OverflowError where the
product would give inf.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

# Below this magnitude exp_r switches to its r -> 0 limit exp(x).  The two
# differ by about |r| x^2 / 2 relative, under 2^-53 wherever exp(x) is finite
# (|x| <= 745); above it log1p(r x)/r is the accurate form.
R_ZERO_SWITCH = 1e-22

# Outside [1/RATIO_LOG_FORM, RATIO_LOG_FORM] the ratio is evaluated fully in
# log space to avoid overflow of the separate numerator and t^v factors.
RATIO_LOG_FORM = 1e3


@dataclass(frozen=True)
class EvalPoint:
    """A (t, v) evaluation point: t > 0, weight v in [0, 1]."""

    t: float
    v: float

    def __post_init__(self):
        t = float(self.t)
        v = float(self.v)
        if not math.isfinite(t) or t <= 0.0:
            raise DomainError(f"t must be a finite positive real, got {self.t!r}")
        if not math.isfinite(v) or not 0.0 <= v <= 1.0:
            raise DomainError(f"v must lie in [0, 1], got {self.v!r}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)

    @cached_property
    def ratio(self):
        """R(t, v) at this point, computed on first use and kept.

        Not a dataclass field: it takes no part in eq, hash or repr.
        """
        return float(_ratio(self.t, self.v))


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


def _any(mask):
    """np.any for a mask that may be a Python or numpy bool, at a bool's cost."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _ratio(t, v):
    """Mean ratio ((1-v) + v t) / t^v for positive t arrays/floats, overflowing in no branch."""
    num = (1.0 - v) + v * t
    extreme = (t < 1.0 / RATIO_LOG_FORM) | (t > RATIO_LOG_FORM)
    if not _any(extreme):
        # Inside the window num and t^-v both lie in [1e-3, 1e3]: no overflow.
        return num * np.exp(-v * np.log(t))
    # Fully-log form where t is extreme (num > 0, so log is safe).  np.where
    # evaluates the plain form there too, at t = 1: below t ~ 1e-308 its t^-v
    # would overflow.
    plain = num * np.exp(-v * np.log(np.where(extreme, 1.0, t)))
    return np.where(extreme, np.exp(np.log(num) - v * np.log(t)), plain)


def _kantorovich(t):
    """K(t) = (t+1)^2/(4t), computed as 1 + (t-1)^2/(4t).

    The additive form guarantees K >= 1 in floating point and preserves the
    low bits of K - 1, which the identity check leans on.
    """
    return 1.0 + ((t - 1.0) * (t - 1.0)) / (4.0 * t)


def _identity_arg(t):
    return ((t - 1.0) * (t - 1.0)) / t


def _dexp(r, x):
    """exp_r(x) = (1+rx)^(1/r) for scalar r and float/array x.

    Requires 1 + r*x >= 0.  The boundary 1 + r*x = 0 maps to the limit
    value: 0 for r > 0, +inf for r < 0 (log1p(-1) = -inf does it for us).
    numpy reports the pole as a divide by zero, under the caller's np.errstate.
    """
    r = float(r)
    if abs(r) < R_ZERO_SWITCH:
        return np.exp(x)
    arg = 1.0 + r * x
    if _any(arg < 0.0):
        raise DomainError(f"exp_r undefined: 1 + r*x < 0 at r={r}")
    if r == 1.0:
        return 1.0 + x
    if r == -1.0:
        return np.divide(1.0, 1.0 - x)
    return np.exp(np.log1p(r * x) / r)


def young_ratio(p):
    """Arithmetic-to-geometric mean ratio at an EvalPoint; always >= 1."""
    return p.ratio


def kantorovich(t):
    """Kantorovich constant (t+1)^2/(4t) for t > 0; K(1/t) = K(t) >= 1."""
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"t must be a finite positive real, got {t!r}")
    return float(_kantorovich(t))


def deformed_exp(r, x):
    """exp_r(x) for a DeformParam r; exp(x) when r is (numerically) zero."""
    return float(_dexp(r.r, float(x)))


def deformed_exp_raw(r, x):
    """exp_r(x) for a bare float r with no [-1, 1] admissibility check.

    Exists for optimality probes at r slightly above 1; the domain
    requirement 1 + r*x >= 0 still applies.
    """
    out = _dexp(float(r), x)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def kantorovich_identity_arg(t):
    """(t-1)^2/t, which equals 4*(kantorovich(t) - 1)."""
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"t must be a finite positive real, got {t!r}")
    return float(_identity_arg(t))
