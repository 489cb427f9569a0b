"""Grid sweeps, sign-change witness search, and the reference-value table.

Three jobs live here:

- sweep: certify one catalog bound on a full (t, v) grid and report the
  violation count and the worst margin;
- find_sign_change: look for floating-point evidence that a difference
  function takes both signs (so neither of the two compared bounds
  dominates the other).  Six differences are bound pairs, a Kantorovich
  power entry minus a catalog entry; diff-ropt probes exp_r against R;
- reproduce_remarks: recompute the published six-figure comparison values
  and report the absolute errors.

Scans are deterministic.  Grids are walked with t as the outer axis, in
blocks of whole t-rows of about _BLOCK_POINTS points each, in ascending
row-major order.  Each block is one kernel call and is reduced on the spot;
the blocks combine as one whole-grid argmin/argmax would: the first NaN wins,
and otherwise a later block replaces the incumbent only on a strictly
better value, so ties keep the earliest point.  Every reported value is the
value the whole-grid evaluation gives, bit for bit, and peak memory is set
by the block, not by the grid.  A sweep reports a NaN margin (it is a
violation); the witness search skips non-finite values (NaN, and the
infinities left where one side of a difference overflowed), which are
evidence of neither sign, so its extrema are the first extrema of the
finite values.  The kernels leave numpy's error state alone; sweep and
find_sign_change silence overflow and invalid operations once per call.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import catalog
from .errors import DomainError, RegionError, UnknownDiffError, WitnessNotFoundError
from .scalar import EvalPoint, _check_threshold, _dexp, _ratio

LINEAR = "linear"
LOG = "log"

# Refinement shrinks the local step by 10x per round: 21 points across a
# +-1-step window around the incumbent extremum.
_REFINE_POINTS = 21

# Grid points per evaluation block: 64 KiB per float64 temporary.  At
# 128 KiB the temporaries sat at glibc's mmap threshold, so each block's
# memory went back to the OS and was faulted in again (about 950 minor
# faults per wide 600x301 sweep); at 64 KiB the heap reuses it, with none.
_BLOCK_POINTS = 1 << 13


@dataclass(frozen=True)
class Region:
    """A rectangular (t, v) window with its grid resolution."""

    t_min: float
    t_max: float
    v_min: float
    v_max: float
    t_scale: str = LOG
    n_t: int = 41
    n_v: int = 41

    def __post_init__(self):
        try:
            operator.index(self.n_t), operator.index(self.n_v)
        except TypeError:
            raise RegionError(
                f"grid sizes must be integers, got {self.n_t!r}x{self.n_v!r}") from None
        if self.t_scale not in (LINEAR, LOG):
            raise RegionError(f"t_scale must be {LINEAR!r} or {LOG!r}, got {self.t_scale!r}")
        if not 0.0 < self.t_min <= self.t_max < np.inf:
            raise RegionError(f"need 0 < t_min <= t_max, got [{self.t_min}, {self.t_max}]")
        if not 0.0 <= self.v_min <= self.v_max <= 1.0:
            raise RegionError(f"need 0 <= v_min <= v_max <= 1, got [{self.v_min}, {self.v_max}]")
        if self.n_t < 2 or self.n_v < 2:
            raise RegionError(f"grid must be at least 2x2, got {self.n_t}x{self.n_v}")

    def t_grid(self):
        if self.t_scale == LOG:
            return np.geomspace(self.t_min, self.t_max, self.n_t)
        return np.linspace(self.t_min, self.t_max, self.n_t)

    def v_grid(self):
        return np.linspace(self.v_min, self.v_max, self.n_v)


@dataclass(frozen=True)
class SweepReport:
    """Outcome of certifying one bound over a full grid."""

    bound_id: str
    n_points: int
    n_violations: int
    min_margin: float
    argmin_point: EvalPoint


@dataclass(frozen=True)
class NonOrderingWitness:
    """Two points where a difference function takes strictly opposite signs."""

    diff_id: str
    point_pos: EvalPoint
    point_neg: EvalPoint
    value_pos: float
    value_neg: float
    delta: float


class _Diff:
    def __init__(self, diff_id, region, kernel, preset, needs_r=False):
        self.id = diff_id
        self.region = region
        self.kernel = kernel
        self.preset = preset
        self.needs_r = needs_r


def _pair(diff_id, lhs_id, rhs_id, *preset):
    """lhs - rhs on the rhs entry's region; each lhs is a K entry, valid for all t."""
    lhs, rhs = catalog._BY_ID[lhs_id].kernel, catalog._BY_ID[rhs_id]
    rhs_kernel = rhs.kernel
    return _Diff(diff_id, rhs.spec.region,
                 lambda t, v, r: lhs(t, v, None) - rhs_kernel(t, v, None), preset)


def _ropt_probe(t, v, r):
    # The optimality probe: exp_r of the exponential bound's argument minus
    # the ratio itself, with r allowed outside [-1, 1].  The argument is
    # divided last, which rounds differently from _identity_arg.
    x = v * (1.0 - v) * ((t - 1.0) * (t - 1.0)) / t
    return _dexp(r, x) - _ratio(t, v)


# (id, lhs, rhs, then the default search window t_lo, t_hi and threshold
# delta).  The l1/l2 sign changes peak near 8e-4, hence the smaller delta there.
_DIFFS = tuple(_pair(*row) for row in (
    ("diff-l", "K-upper", "D1-exp", 0.1, 10.0, 1e-3),
    ("diff-u1", "K-upper", "T31-poly", 0.1, 10.0, 1e-3),
    ("diff-u2", "K-upper", "T36-hi-le1", 0.1, 1.0, 1e-3),
    ("diff-u3", "K-upper", "T36-hi-ge1", 1.0, 10.0, 1e-3),
    ("diff-l1", "K-lower", "T36-lo-le1", 0.1, 1.0, 1e-4),
    ("diff-l2", "K-lower", "T36-lo-ge1", 1.0, 10.0, 1e-4),
)) + (_Diff("diff-ropt", catalog.ALL_T, _ropt_probe, (0.1, 10.0, 1e-3), needs_r=True),)

_DIFF_BY_ID = {d.id: d for d in _DIFFS}

# Default search window [t_lo, t_hi] and threshold delta per difference id.
DIFF_PRESETS = {d.id: d.preset for d in _DIFFS}

# Published comparison values: (label, diff id, t, v, r, published value).
# The published figures carry six significant digits.
REMARK_VALUES = (
    ("l(1/2,1/5)", "diff-l", 0.5, 0.2, None, 0.0155215),
    ("l(1/4,1/5)", "diff-l", 0.25, 0.2, None, -0.00425113),
    ("l(3,1/5)", "diff-l", 3.0, 0.2, None, 0.0209862),
    ("l(5,1/5)", "diff-l", 5.0, 0.2, None, -0.0682639),
    ("u_1(1/2,0.6)", "diff-u1", 0.5, 0.6, None, -0.0467732),
    ("u_1(1/2,0.9)", "diff-u1", 0.5, 0.9, None, 0.0668271),
    ("u_2(1/2,0.6)", "diff-u2", 0.5, 0.6, None, -0.0467732),
    ("u_2(1/2,0.9)", "diff-u2", 0.5, 0.9, None, 0.0668271),
    ("u_3(2,0.6)", "diff-u3", 2.0, 0.6, None, -0.0467732),
    ("u_3(2,0.9)", "diff-u3", 2.0, 0.9, None, 0.0668271),
    ("l_1(3/5,0.1)", "diff-l1", 0.6, 0.1, None, -0.000777493),
    ("l_1(3/5,0.4)", "diff-l1", 0.6, 0.4, None, 0.00657566),
    ("l_2(5/3,0.1)", "diff-l2", 5.0 / 3.0, 0.1, None, -0.000777493),
    ("l_2(5/3,0.4)", "diff-l2", 5.0 / 3.0, 0.4, None, 0.00657566),
    ("ropt", "diff-ropt", 1e-6, 0.999999, 1.001, -0.000360488),
)


@dataclass(frozen=True)
class RemarkRow:
    """One recomputed reference value and its absolute error."""

    label: str
    paper_value: float
    computed: float
    abs_error: float


def diff_ids():
    """All difference-function identifiers in registry order."""
    return tuple(d.id for d in _DIFFS)


def _lookup_diff(diff_id):
    try:
        return _DIFF_BY_ID[diff_id]
    except KeyError:
        raise UnknownDiffError(f"unknown difference id {diff_id!r}") from None


def _check_window(region_kind, t_lo, t_hi, what):
    if region_kind == catalog.T_LE_1 and t_hi > 1.0:
        raise RegionError(f"{what} is restricted to t <= 1, window reaches t={t_hi}")
    if region_kind == catalog.T_GE_1 and t_lo < 1.0:
        raise RegionError(f"{what} is restricted to t >= 1, window reaches t={t_lo}")


def _row_blocks(kernel, tg, vg):
    """Yield (first_row, values) for blocks of whole t-rows of the tg x vg grid.

    Each block is one kernel(t, v) call on a column of t against the row of
    v, broadcast to (rows, vg.size).
    """
    n_v = vg.size
    rows = max(1, _BLOCK_POINTS // n_v)
    v_row = vg[None, :]
    for i0 in range(0, tg.size, rows):
        t_col = tg[i0:i0 + rows, None]
        yield i0, np.broadcast_to(kernel(t_col, v_row), (t_col.shape[0], n_v))


def _fold_extremum(best, block, i0, lower, skip_nonfinite=False):
    """Fold a block's first argmin (lower) or argmax into best.

    best is the running (value, row, column), None before the first block.
    Blocks arrive in row-major order and combine as numpy's whole-array
    argmin/argmax: the first NaN wins, and otherwise a later block wins
    only on a strictly better value, so ties keep the earliest point.
    With skip_nonfinite, NaN and +-inf values are passed over instead (best
    stays None while every value seen is non-finite); only a block whose
    plain argmin/argmax lands on a non-finite value pays for the second,
    finite-only search.
    """
    flat = int(np.argmin(block) if lower else np.argmax(block))
    i, j = divmod(flat, block.shape[1])
    value = float(block[i, j])
    if skip_nonfinite and not math.isfinite(value):
        finite = np.flatnonzero(np.isfinite(block))
        if finite.size == 0:
            return best
        values = block.ravel()[finite]
        flat = int(finite[np.argmin(values) if lower else np.argmax(values)])
        i, j = divmod(flat, block.shape[1])
        value = float(block[i, j])
    if best is not None:
        held = best[0]
        better = value < held if lower else value > held
        if math.isnan(held) or not (better or math.isnan(value)):
            return best
    return value, i0 + i, j


def sweep(bound_id, region, tol=1e-12, deform=None):
    """Certify one catalog bound at every grid point of a Region.

    The window must lie inside the bound's validity region, and tol must be
    finite and >= 0.  Returns a SweepReport; a positive n_violations means
    some margin fell below -tol or is NaN (which, for in-region input, would
    contradict the underlying theorem).
    """
    entry = catalog._lookup(bound_id)
    _check_window(entry.spec.region, region.t_min, region.t_max, bound_id)
    _check_threshold("tol", tol)
    r = entry.admit(deform)
    upper = entry.spec.side == catalog.UPPER

    def margin(t, v):
        if upper:
            return entry.kernel(t, v, r) - _ratio(t, v)
        return _ratio(t, v) - entry.kernel(t, v, r)

    tg = region.t_grid()
    vg = region.v_grid()
    n_violations = 0
    worst = None
    with np.errstate(over="ignore", invalid="ignore"):
        for i0, block in _row_blocks(margin, tg, vg):
            # Counted as not holding, like certify_point, so NaN margins count.
            n_violations += block.size - int(np.count_nonzero(block >= -tol))
            worst = _fold_extremum(worst, block, i0, lower=True)
    value, i, j = worst
    return SweepReport(
        bound_id=bound_id,
        n_points=region.n_t * region.n_v,
        n_violations=n_violations,
        min_margin=value,
        argmin_point=EvalPoint(float(tg[i]), float(vg[j])),
    )


def eval_diff(diff_id, p, r=None):
    """Signed value of one difference function at an EvalPoint.

    r is consumed only by diff-ropt (where it is required and may exceed 1);
    the other differences have no free parameter.
    """
    diff = _lookup_diff(diff_id)
    if not catalog._in_region(diff.region, p.t):
        raise RegionError(f"{diff_id} is restricted to region {diff.region}, got t={p.t}")
    if diff.needs_r and r is None:
        raise DomainError(f"{diff_id} requires an explicit r")
    return float(diff.kernel(p.t, p.v, float(r) if r is not None else None))


def _grid_extrema(diff, tg, vg, r):
    """Best positive and negative values over the tensor grid, first hit wins.

    Non-finite values are evidence of neither sign and are skipped; an
    extremum is None when no value is finite.
    """
    hi = lo = None
    for i0, block in _row_blocks(lambda t, v: diff.kernel(t, v, r), tg, vg):
        hi = _fold_extremum(hi, block, i0, lower=False, skip_nonfinite=True)
        lo = _fold_extremum(lo, block, i0, lower=True, skip_nonfinite=True)
    if hi is None:
        return None, None
    pos = (hi[0], float(tg[hi[1]]), float(vg[hi[2]]))
    neg = (lo[0], float(tg[lo[1]]), float(vg[lo[2]]))
    return pos, neg


def _refine_axis(center, step, lo, hi, log_scale):
    """21-point window of +-step around center, clipped to [lo, hi]."""
    if log_scale:
        lg = np.log10(center)
        grid = np.logspace(lg - step, lg + step, _REFINE_POINTS)
    else:
        grid = np.linspace(center - step, center + step, _REFINE_POINTS)
    return np.clip(grid, lo, hi)


def find_sign_change(diff_id, region, delta, refine_depth=3, r=None):
    """Search a Region for points where the difference exceeds +-delta >= 0.

    Coarse scan on the Region grid first; then up to refine_depth rounds of
    10x local refinement around the incumbent extremum of each sign.  Both
    extrema are refined every round, so the returned witness carries the
    best values found, not merely the first past the threshold.  Raises
    WitnessNotFoundError when refinement is exhausted with a sign missing;
    that is absence of evidence at this delta and depth, not a proof of
    ordering.
    """
    diff = _lookup_diff(diff_id)
    _check_window(diff.region, region.t_min, region.t_max, diff_id)
    _check_threshold("delta", delta)
    if diff.needs_r and r is None:
        raise DomainError(f"{diff_id} requires an explicit r")
    r_value = float(r) if r is not None else None

    log_t = region.t_scale == LOG
    if log_t:
        t_step = (np.log10(region.t_max) - np.log10(region.t_min)) / (region.n_t - 1)
    else:
        t_step = (region.t_max - region.t_min) / (region.n_t - 1)
    v_step = (region.v_max - region.v_min) / (region.n_v - 1)

    def found(best_pos, best_neg):
        return best_pos[0] > delta and best_neg[0] < -delta

    with np.errstate(over="ignore", invalid="ignore"):
        pos, neg = _grid_extrema(diff, region.t_grid(), region.v_grid(), r_value)
        if pos is None:
            raise WitnessNotFoundError(
                f"{diff_id}: no sign change above delta={delta} found "
                f"(every value on the {region.n_t}x{region.n_v} grid is NaN or infinite)"
            )
        depth = 0
        while not found(pos, neg) and depth < refine_depth:
            for side, best in (("pos", pos), ("neg", neg)):
                tw = _refine_axis(best[1], t_step, region.t_min, region.t_max, log_t)
                vw = _refine_axis(best[2], v_step, region.v_min, region.v_max, False)
                sub_pos, sub_neg = _grid_extrema(diff, tw, vw, r_value)
                if sub_pos is None:
                    continue
                if side == "pos" and sub_pos[0] > pos[0]:
                    pos = sub_pos
                if side == "neg" and sub_neg[0] < neg[0]:
                    neg = sub_neg
            t_step /= 10.0
            v_step /= 10.0
            depth += 1

    if not found(pos, neg):
        raise WitnessNotFoundError(
            f"{diff_id}: no sign change above delta={delta} found "
            f"(best +{pos[0]:.3g} / {neg[0]:.3g} after depth {depth})"
        )
    return NonOrderingWitness(
        diff_id=diff_id,
        point_pos=EvalPoint(pos[1], pos[2]),
        point_neg=EvalPoint(neg[1], neg[2]),
        value_pos=pos[0],
        value_neg=neg[0],
        delta=delta,
    )


def reproduce_remarks():
    """Recompute every published comparison value; rows carry the abs error."""
    rows = []
    for label, diff_id, t, v, r, published in REMARK_VALUES:
        computed = eval_diff(diff_id, EvalPoint(t, v), r)
        rows.append(RemarkRow(label, published, computed, abs(computed - published)))
    return tuple(rows)
