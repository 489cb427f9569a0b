"""Registry of named bounds on the mean ratio R(t, v) = ((1-v) + v t) / t^v.

Each entry records which side it bounds (upper entries satisfy
R(t, v) <= bound, lower entries bound <= R(t, v)), on which t-range it is
valid, and how to evaluate it.  The catalog is data: one row per entry, a
member of one of five families (exp_r of v(1-v)(t-1)^2/t or of two
half-squares, the Kantorovich power, the FM polynomial) with its parameter.
Ten entries are deformed families at a fixed r in {-1, 0, 1}.  Three carry
r as a parameter; when the caller omits it the tightest admissible value is
used (r = 1 for C33-expr and C38-hi, r = -1 for C38-lo, best-in-family by
the monotonicity of exp_r in r).

t = 1 belongs to both the t <= 1 and the t >= 1 regions; every entry
evaluates to exactly 1 there.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegionError, UnknownBoundError
from .scalar import (DeformParam, EvalPoint, _admit_r, _any, _check_threshold, _dexp,
                     _identity_arg, _kantorovich, _pow)

UPPER = "upper"
LOWER = "lower"

ALL_T = "all-t"
T_LE_1 = "t-le-1"
T_GE_1 = "t-ge-1"


@dataclass(frozen=True)
class BoundSpec:
    """Catalog entry: identifier, side, validity region, default deformation."""

    id: str
    side: str
    region: str
    deform: DeformParam | None
    description: str


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ChainLink:
    """One inequality of the t <= 1 ordering chain and its signed margin."""

    claim: str
    margin: float


def _guarded_reciprocal(den):
    # Mathematically den >= 7/8 on each entry's own region (v(1-v) <= 1/4 and
    # the squared factor < 1); the guard only fires on misconfigured input.
    if _any(den <= 0.0):
        raise DomainError("reciprocal bound denominator is nonpositive")
    return 1.0 / den


def _sq(s):
    return (s - 1.0) * (s - 1.0)


def _inv_sq(t):
    return (1.0 / t - 1.0) * (1.0 / t - 1.0)


# The square of each half-square family on each region: (s-1)^2 with
# s = min{1,t}/max{1,t} (lo) or max{1,t}/min{1,t} (hi).  On a half-line s is
# exactly t or 1/t, so there the plain forms give the same bits at less cost.
_SQUARES = {
    "half-lo": {T_LE_1: _sq, T_GE_1: _inv_sq,
                ALL_T: lambda t: _sq(np.minimum(1.0, t) / np.maximum(1.0, t))},
    "half-hi": {T_LE_1: _inv_sq, T_GE_1: _sq,
                ALL_T: lambda t: _sq(np.maximum(1.0, t) / np.minimum(1.0, t))},
}


def _kernel(family, region, param):
    """kernel(t, v, r) of one member of a family on one region.

    The deformed families are exp_r(c v(1-v) s(t)): c = 1 and s = (t-1)^2/t
    for "expr" (1 * v is exact), c = 1/2 and the family's square otherwise.
    Their param is r, None for the caller's.  A fixed r in {0, 1, -1} is
    written out in the argument's expression, so numpy can reuse its
    temporary.  K-power and FM take the weight picker and the base.
    """
    if family == "K-power":
        return lambda t, v, r: _pow(_kantorovich(t), param(v, 1.0 - v))
    if family == "FM":
        return lambda t, v, r: 1.0 + 0.5 * v * (1.0 - v) * _sq(t) * _pow(param(t), -v - 1.0)
    c, s = (1.0, _identity_arg) if family == "expr" else (0.5, _SQUARES[family][region])
    if param is None:
        return lambda t, v, r: _dexp(r, c * v * (1.0 - v) * s(t))
    if param == 0.0:
        return lambda t, v, r: np.exp(c * v * (1.0 - v) * s(t))
    if param == 1.0:
        return lambda t, v, r: 1.0 + c * v * (1.0 - v) * s(t)
    # r = -1.  Off the entry's region 1 - x reaches 0, where the guard
    # raises and _dexp would return inf.
    return lambda t, v, r: _guarded_reciprocal(1.0 - c * v * (1.0 - v) * s(t))


class _Entry:
    """One catalog row: its BoundSpec and kernel.

    param is the family parameter, or None for a deformed entry whose r the
    caller may choose within scalar._admit_r's interval for its side.
    """

    def __init__(self, bid, side, region, family, param, description):
        deform = self.default_r = None
        if param is None:  # r is the caller's, by default the tightest
            self.default_r = _admit_r(bid, side == UPPER)
            deform = DeformParam(self.default_r)
        self.spec = BoundSpec(bid, side, region, deform, description)
        self.kernel = _kernel(family, region, param)

    def admit(self, deform):
        """Resolve the deformation (a DeformParam, a float or None) to a float r."""
        if self.default_r is None:
            if deform is not None:
                raise DomainError(f"{self.spec.id} takes no deformation parameter")
            return None
        return _admit_r(self.spec.id, self.spec.side == UPPER, deform)


# One row per entry.  Ten entries are deformed families at a fixed r:
# D1-exp and T31-poly are C33-expr at r = 0 and 1, D2-* is C38-* at r = 0,
# and T36-lo-* and T36-hi-* are C38-lo at r = -1 and C38-hi at r = 1.
_CATALOG = tuple(_Entry(*row) for row in (
    ("D1-exp", UPPER, ALL_T, "expr", 0.0,
     "exponential upper bound exp(v(1-v)(t-1)^2/t)"),
    ("K-upper", UPPER, ALL_T, "K-power", np.maximum,
     "Kantorovich power upper bound K(t)^max{v,1-v}"),
    ("K-lower", LOWER, ALL_T, "K-power", np.minimum,
     "Kantorovich power lower bound K(t)^min{v,1-v}"),
    ("D2-lo-le1", LOWER, T_LE_1, "half-lo", 0.0,
     "exponential lower bound exp((v(1-v)/2)(t-1)^2) for t <= 1"),
    ("D2-hi-le1", UPPER, T_LE_1, "half-hi", 0.0,
     "exponential upper bound exp((v(1-v)/2)(1/t-1)^2) for t <= 1"),
    ("D2-lo-ge1", LOWER, T_GE_1, "half-lo", 0.0,
     "exponential lower bound exp((v(1-v)/2)(1/t-1)^2) for t >= 1"),
    ("D2-hi-ge1", UPPER, T_GE_1, "half-hi", 0.0,
     "exponential upper bound exp((v(1-v)/2)(t-1)^2) for t >= 1"),
    ("FM-m", LOWER, T_LE_1, "FM", lambda t: 0.5 * (t + 1.0),
     "polynomial lower bound 1 + (v(1-v)(t-1)^2/2)((t+1)/2)^(-v-1) for t <= 1"),
    ("FM-M", UPPER, T_LE_1, "FM", lambda t: t,
     "polynomial upper bound 1 + (v(1-v)(t-1)^2/2) t^(-v-1) for t <= 1"),
    ("T31-poly", UPPER, ALL_T, "expr", 1.0,
     "polynomial upper bound 1 + v(1-v)(t-1)^2/t"),
    ("C33-expr", UPPER, ALL_T, "expr", None,
     "deformed-exponential upper bound exp_r(v(1-v)(t-1)^2/t), 0 < r <= 1"),
    ("T36-lo-le1", LOWER, T_LE_1, "half-lo", -1.0,
     "reciprocal lower bound 1/(1 - (v(1-v)/2)(t-1)^2) for t <= 1"),
    ("T36-hi-le1", UPPER, T_LE_1, "half-hi", 1.0,
     "polynomial upper bound 1 + (v(1-v)/2)(1/t-1)^2 for t <= 1"),
    ("T36-lo-ge1", LOWER, T_GE_1, "half-lo", -1.0,
     "reciprocal lower bound 1/(1 - (v(1-v)/2)(1/t-1)^2) for t >= 1"),
    ("T36-hi-ge1", UPPER, T_GE_1, "half-hi", 1.0,
     "polynomial upper bound 1 + (v(1-v)/2)(t-1)^2 for t >= 1"),
    ("C38-lo", LOWER, ALL_T, "half-lo", None,
     "deformed-exponential lower bound exp_r((v(1-v)/2)(1 - min{1,t}/max{1,t})^2), "
     "-1 <= r < 0"),
    ("C38-hi", UPPER, ALL_T, "half-hi", None,
     "deformed-exponential upper bound exp_r((v(1-v)/2)(1 - max{1,t}/min{1,t})^2), "
     "0 < r <= 1"),
))

_BY_ID = {e.spec.id: e for e in _CATALOG}


def _lookup(bound_id):
    try:
        return _BY_ID[bound_id]
    except KeyError:
        raise UnknownBoundError(f"unknown bound id {bound_id!r}") from None


def _in_region(region, t):
    if region == T_LE_1:
        return t <= 1.0
    if region == T_GE_1:
        return t >= 1.0
    return True


def bound_ids():
    """All catalog identifiers in stable catalog order."""
    return tuple(e.spec.id for e in _CATALOG)


def list_bounds():
    """All catalog entries as BoundSpec records, stable order."""
    return tuple(e.spec for e in _CATALOG)


def get_bound(bound_id):
    """The BoundSpec for one identifier."""
    return _lookup(bound_id).spec


def _value(entry, p, deform):
    if not _in_region(entry.spec.region, p.t):
        raise RegionError(f"{entry.spec.id} is not valid at t={p.t} (region {entry.spec.region})")
    return float(entry.kernel(p.t, p.v, entry.admit(deform)))


def _default_value(entry, p):
    # For callers that have already checked the region: the default r is
    # admissible by construction, so the kernel is called directly.
    return float(entry.kernel(p.t, p.v, entry.default_r))


def evaluate(bound_id, p, deform=None):
    """Value of the named bound at an EvalPoint.

    deform must be omitted for entries without a deformation parameter;
    for C33-expr/C38-hi/C38-lo it is a DeformParam or a float r, and
    defaults to the tightest admissible value.
    """
    return _value(_lookup(bound_id), p, deform)


def evaluate_grid(bound_id, t, v, deform=None):
    """Vectorized evaluate over broadcastable t/v arrays (region unchecked)."""
    entry = _lookup(bound_id)
    return entry.kernel(np.asarray(t, dtype=float), np.asarray(v, dtype=float),
                        entry.admit(deform))


def certify_point(bound_id, p, deform=None, tol=1e-12):
    """Check the named inequality at one point and report the signed margin.

    tol must be finite and >= 0 (DomainError otherwise).
    """
    _check_threshold("tol", tol)
    entry = _lookup(bound_id)
    bound_value = _value(entry, p, deform)
    ratio_value = p.ratio
    if entry.spec.side == UPPER:
        margin = bound_value - ratio_value
    else:
        margin = ratio_value - bound_value
    return Certificate(bound_id, p, ratio_value, bound_value, margin, margin >= -tol, tol)


def tightest(side, p):
    """(id, value) of the smallest upper or largest lower bound valid at p.

    Deformed entries enter with their default (tightest) parameter; ties are
    broken by catalog order.
    """
    if side not in (UPPER, LOWER):
        raise DomainError(f"side must be {UPPER!r} or {LOWER!r}, got {side!r}")
    best = None
    for entry in _CATALOG:
        if entry.spec.side != side or not _in_region(entry.spec.region, p.t):
            continue
        value = _default_value(entry, p)
        if best is None:
            best = (entry.spec.id, value)
        elif side == UPPER and value < best[1]:
            best = (entry.spec.id, value)
        elif side == LOWER and value > best[1]:
            best = (entry.spec.id, value)
    return best


def chain_check(p):
    """Margins of the six-link ordering chain on 0 < t <= 1.

    The chain is D2-lo-le1 <= FM-m <= ratio <= FM-M <= D2-hi-le1 together
    with the side links T36-lo-le1 <= FM-m and FM-M <= T36-hi-le1.  Every
    margin is the amount by which its inequality holds (>= 0 in exact
    arithmetic).
    """
    if p.t > 1.0:
        raise RegionError(f"the ordering chain applies to t <= 1 only, got t={p.t}")
    ratio = p.ratio
    d2lo, fm_lo, fm_hi, d2hi, t36lo, t36hi = (
        _default_value(_BY_ID[bid], p)
        for bid in ("D2-lo-le1", "FM-m", "FM-M", "D2-hi-le1", "T36-lo-le1", "T36-hi-le1")
    )
    return (
        ChainLink("D2-lo-le1 <= FM-m", fm_lo - d2lo),
        ChainLink("FM-m <= ratio", ratio - fm_lo),
        ChainLink("ratio <= FM-M", fm_hi - ratio),
        ChainLink("FM-M <= D2-hi-le1", d2hi - fm_hi),
        ChainLink("T36-lo-le1 <= FM-m", fm_lo - t36lo),
        ChainLink("FM-M <= T36-hi-le1", t36hi - fm_hi),
    )
