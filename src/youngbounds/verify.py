"""Grid sweeps, sign-change witness search, and the reference-value table.

Three jobs live here:

- sweep: walk one catalog bound's margin (its catalog._Pair with R) over a
  full (t, v) grid and report the violation count and the worst margin;
- find_sign_change: look for floating-point evidence that a difference
  function takes both signs (so neither of the two compared bounds
  dominates the other).  Each is the catalog._Pair of two rows, R being one
  more row; diff-ropt is C33-expr at a caller's r, which may exceed 1, minus R.
  At one point, eval_diff reads its two rows as every point query does, each
  one subscript of the EvalPoint's memo, p._rows[row id, r];
- reproduce_remarks: recompute the published six-figure comparison values
  and report the absolute errors.

Scans are deterministic.  Grids are walked with t as the outer axis, in
blocks of whole t-rows of about _BLOCK_POINTS points each (never less than
one row), in ascending row-major order.  A walk builds a plan once: the
plan of each row it reads (catalog._kernel's one plan, scalar._ratio_plan)
computes the row's t-only factors once over the walk's whole t column and
each v-only factor once, in place, as a row of n_v doubles; its fill writes
each block in place by broadcasting them against column slices, with the
kernel's ufuncs in the kernel's order.  A walk's one 64-byte-aligned arena
(_Arena) holds three block views and its v rows.  Each block is reduced on
the spot to its first extremum, and the walk picks one of those at the end
(_pick), as one whole-grid argmin/argmax would: the first NaN, or else the
first least or greatest value.  Every reported value is the value the
kernels give on the whole grid, bit for bit.  A walk of rows of at least
_UNBUFFERED_ROW points runs with numpy's ufunc buffer cut to 16 elements
(_RowBuffer), once per walk: numpy copies every operand of a broadcast
ufunc through its buffer, which costs more than running the inner loop row
by row once rows are long.  So 600x301 sweeps and the coarse walks of
401x401 searches run unbuffered, while 41x41 searches and every 21-point
refinement walk keep numpy's buffer.  Buffering only moves data: no bit
depends on it.  A block view holds at most max(_BLOCK_POINTS, n_v) points,
whatever n_t; the t-only columns are O(n_t) doubles each, the order of the t
grid the walk already holds.  Each block does only the work its verdict
needs: each run of a block's rows on one side of [1e-3, 1e3] evaluates R in
that side's form only, a catalog row at r > 0 skips exp_r's domain pass
(its argument is >= 0 or NaN, so it cannot fail), and a sweep counts a
block's violations only when its least margin is below -tol or is NaN (the
least margin is the first NaN if there is one).  A sweep reports a NaN
margin (it is a violation); the witness search skips non-finite values
(NaN, and the infinities left where one side of a difference overflowed),
which are evidence of neither sign, so its extrema are the first extrema of
the finite values.  The kernels leave numpy's error state alone; sweep and
find_sign_change silence overflow and invalid operations once per call.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import catalog
from .errors import DomainError, RegionError, UnknownDiffError, WitnessNotFoundError
from .scalar import EvalPoint, _check_threshold, _finite_r, _record

LINEAR = "linear"
LOG = "log"

# Refinement shrinks the local step by 10x per round: 21 points across a
# +-1-step window around the incumbent extremum.
_REFINE_POINTS = 21

# Grid points per evaluation block: 256 KiB per float64 block view, 768 KiB
# for a walk's three (_Arena), inside a 2 MiB per-core L2.  A sweep-grid
# round (seed 1, sum of per-op minima in ms, numpy 2.4.6, one CPU):
#
#   block points           4K     8K     16K    32K    64K
#   8 views, v tiles       63.7   51.9   46.6   48.5   60.1
#   3 views, 1-D v rows    62.3   50.8   44.4   41.4   44.3
_BLOCK_POINTS = 1 << 15

# Row length from which a walk runs numpy's ufuncs unbuffered (_RowBuffer):
# the inner loop then runs row by row, which costs more than numpy's buffer
# copies when rows are short.  Whole sweeps in the default window, buffered
# -> unbuffered (minima of 7-10 processes, numpy 2.4.6, one CPU); at 48 and
# 56 points the two modes were within 5%:
#
#   n_t x n_v    T31-poly  FM-M
#   600 x 301    -44.0%    -40.4%
#   1000 x 101   -26.8%    -25.0%
#   1100 x 91    -24.0%    -24.8%
#   1200 x 81    -24.9%    -25.0%
#   1500 x 64    -10.3%    -9.0%
#   2000 x 41    -0.3%     -0.5%
#   2000 x 21    +42.3%    +45.3%
_UNBUFFERED_ROW = 64


class _RowBuffer:
    """numpy's ufunc buffer over one walk of n_v-point rows, as a context:
    16 elements from _UNBUFFERED_ROW points on (numpy 1.x takes only
    multiples of 16), numpy's own size below.  Exit restores the caller's
    size, which numpy 1.x's errstate does not.  Entered once per walk, not
    per block: a set-and-restore pair costs about 2 us."""

    def __init__(self, n_v):
        self.unbuffered = n_v >= _UNBUFFERED_ROW

    def __enter__(self):
        if self.unbuffered:
            self.saved = np.setbufsize(16)

    def __exit__(self, *exc):
        if self.unbuffered:
            np.setbufsize(self.saved)


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
        """np.geomspace (log scale) or np.linspace (linear) of [t_min, t_max]
        at n_t points, bit for bit, built by _linspace."""
        if self.t_scale == LINEAR:
            return _linspace(self.t_min, self.t_max, self.n_t)
        t = _logspace(np.log10(float(self.t_min)), np.log10(float(self.t_max)), self.n_t)
        # As np.geomspace: 10^log10(t) need not give t back.
        t[0], t[-1] = self.t_min, self.t_max
        return t

    def v_grid(self):
        """np.linspace of [v_min, v_max] at n_v points, bit for bit, built by
        _linspace."""
        return _linspace(self.v_min, self.v_max, self.n_v)


def _linspace(lo, hi, n):
    """np.linspace(lo, hi, n)'s float64 values for n >= 2, bit for bit.

    numpy's own arithmetic in a few ufunc calls on one fresh array.  numpy's
    range builders spend 6-37 us a call on generic dtype and shape handling,
    a third of a small walk's cost.
    """
    lo, hi = float(lo), float(hi)
    y = np.arange(n, dtype=float)
    delta = hi - lo
    step = delta / (n - 1)
    if step == 0.0:
        # numpy's branch for a step that underflows to zero
        y /= n - 1
        y *= delta
    else:
        y *= step
    y += lo
    y[-1] = hi
    return y


def _logspace(lo, hi, n):
    """np.logspace(lo, hi, n)'s values (base 10) for n >= 2, bit for bit."""
    y = _linspace(lo, hi, n)
    return np.power(10.0, y, out=y)


@_record
class SweepReport:
    """Outcome of certifying one bound over a full grid."""

    bound_id: str
    n_points: int
    n_violations: int
    min_margin: float
    argmin_point: EvalPoint


@_record
class NonOrderingWitness:
    """Two points where a difference function takes strictly opposite signs."""

    diff_id: str
    point_pos: EvalPoint
    point_neg: EvalPoint
    value_pos: float
    value_neg: float
    delta: float


class _Diff(catalog._Pair):
    """A difference function: the _Pair of two rows, lhs - rhs, with its id and
    default search window.  At a point (kernel, eval_diff) only an lhs row that
    takes the caller's r (needs_r) gets it; the rest get r = None."""

    def __init__(self, diff_id, lhs_id, rhs_id, t_lo, t_hi, delta):
        super().__init__(catalog._ROWS[lhs_id], catalog._ROWS[rhs_id])
        self.id, self.preset = diff_id, (t_lo, t_hi, delta)
        self.needs_r = self.lhs.default_r is not None


# (id, lhs, rhs, then the default search window t_lo, t_hi and threshold
# delta).  The l1/l2 sign changes peak near 8e-4, hence the smaller delta
# there.  diff-ropt's r may exceed 1: at r = 1.001 C33-expr falls below R
# near t = 1e-6, v = 1 (the "ropt" remark), so the bound's r <= 1 is sharp.
_DIFFS = tuple(_Diff(*row) for row in (
    ("diff-l", "K-upper", "D1-exp", 0.1, 10.0, 1e-3),
    ("diff-u1", "K-upper", "T31-poly", 0.1, 10.0, 1e-3),
    ("diff-u2", "K-upper", "T36-hi-le1", 0.1, 1.0, 1e-3),
    ("diff-u3", "K-upper", "T36-hi-ge1", 1.0, 10.0, 1e-3),
    ("diff-l1", "K-lower", "T36-lo-le1", 0.1, 1.0, 1e-4),
    ("diff-l2", "K-lower", "T36-lo-ge1", 1.0, 10.0, 1e-4),
    ("diff-ropt", "C33-expr", "ratio", 0.1, 10.0, 1e-3),
))

_DIFF_BY_ID = {d.id: d for d in _DIFFS}

_DIFF_IDS = tuple(_DIFF_BY_ID)

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


@_record
class RemarkRow:
    """One recomputed reference value and its absolute error."""

    label: str
    paper_value: float
    computed: float
    abs_error: float


def diff_ids():
    """All difference-function identifiers in registry order."""
    return _DIFF_IDS


def _lookup_diff(diff_id):
    try:
        return _DIFF_BY_ID[diff_id]
    except KeyError:
        raise UnknownDiffError(f"unknown difference id {diff_id!r}") from None


def _check_window(row, lo, hi):
    if hi > row.t_hi:
        raise RegionError(f"{row.id} is restricted to t <= {row.t_hi:g}, window reaches t={hi}")
    if lo < row.t_lo:
        raise RegionError(f"{row.id} is restricted to t >= {row.t_lo:g}, window reaches t={lo}")


def _admit_diff_r(diff, r):
    """diff's kernel's r: a finite float if diff needs_r (DomainError
    otherwise), as diff-ropt does; None for the bound pairs, which ignore r."""
    if not diff.needs_r:
        return None
    if r is None:
        raise DomainError(f"{diff.id} requires an explicit r")
    return _finite_r(diff.id, r)


class _Arena:
    """One grid walk's memory, cut from one np.empty, each piece starting on a
    64-byte boundary: three (rows, n_v) block views, out, tmp and scratch (a
    catalog._Pair's third buffer), then rows, an iterator over n_rows v rows.

    On an AVX-512 host a multiply of 8K doubles into a 64-byte-aligned output
    ran about twice as fast as into any other alignment.  One allocation per
    walk leaves the heap one chunk to reuse: with fresh arrays as v rows, a
    4 x 200,001 sweep took about 55% longer, as glibc trimmed the heap after
    each walk.  Each walk owns its arena, so walks stay re-entrant.
    """

    def __init__(self, rows, n_v, n_rows):
        block, line = -(-rows * n_v // 8) * 64, -(-n_v // 8) * 64  # bytes, whole 64-byte lines
        buf = np.empty((3 * block + n_rows * line) // 8 + 7)
        start = -buf.__array_interface__["data"][0] % 64
        views = np.ndarray((3, rows, n_v), float, buf, start, (block, 8 * n_v, 8))
        self.out, self.tmp, self.scratch = views
        self.rows = iter(np.ndarray((n_rows, n_v), float, buf, start + 3 * block, (line, 8)))


def _row_blocks(row, tg, vg, r):
    """Yield (first_row, values) for blocks of whole t-rows of a row (a catalog
    row, R or a catalog._Pair) on the tg x vg grid.

    The walk builds row.plan(tg[:, None], vg, r, arena) once, in an _Arena of
    row.v_rows v rows: the plan computes its t-only factors over the whole t
    column, O(n_t) doubles each, and each v-only factor into one v row.  Its
    fill(i0, out, tmp) then writes each block, rows i0, i0 + 1, ... of t, by
    broadcasting the v rows against slices of those columns, into the same
    (rows, vg.size) view, at most max(_BLOCK_POINTS, n_v) points.  A block is
    valid until the walk advances.
    """
    rows = min(max(1, _BLOCK_POINTS // vg.size), tg.size)
    arena = _Arena(rows, vg.size, row.v_rows)
    fill = row.plan(tg[:, None], vg, r, arena)
    for i0 in range(0, tg.size, rows):
        block = arena.out[:min(rows, tg.size - i0)]
        fill(i0, block, arena.tmp[:len(block)])
        yield i0, block


def _block_extremum(block, i0, lower, skip_nonfinite=False):
    """A block's first argmin (lower) or argmax as (value, i0 + row, column).

    As numpy's argmin/argmax, the first NaN wins.  With skip_nonfinite, NaN
    and +-inf values are passed over instead (None when every value is
    non-finite); only a block whose plain argmin/argmax lands on a
    non-finite value pays for the second, finite-only search.
    """
    flat = int(block.argmin() if lower else block.argmax())
    i, j = divmod(flat, block.shape[1])
    value = float(block[i, j])
    if skip_nonfinite and not math.isfinite(value):
        finite = np.flatnonzero(np.isfinite(block))
        if finite.size == 0:
            return None
        values = block.ravel()[finite]
        flat = int(finite[np.argmin(values) if lower else np.argmax(values)])
        i, j = divmod(flat, block.shape[1])
        value = float(block[i, j])
    return value, i0 + i, j


def _pick(extrema, lower):
    """The grid's extremum from its blocks' (_block_extremum), in row-major order.

    As numpy's argmin/argmax on the whole grid: the first NaN, or else the
    first least (lower) or greatest value, which is the one min and max
    return.  Blocks without an extremum (None) are passed over, and None is
    returned when no block has one.
    """
    extrema = [found for found in extrema if found is not None]
    for found in extrema:
        if math.isnan(found[0]):
            return found
    return (min if lower else max)(extrema, key=operator.itemgetter(0), default=None)


def sweep(bound_id, region, tol=1e-12, deform=None):
    """Certify one catalog bound at every grid point of a Region.

    The window must lie inside the bound's validity region, and tol must be
    finite and >= 0.  Returns a SweepReport; a positive n_violations means
    some margin fell below -tol or is NaN (which, for in-region input, would
    contradict the underlying theorem).
    """
    entry = catalog._lookup(bound_id)
    _check_window(entry, region.t_min, region.t_max)
    _check_threshold("tol", tol)
    r = entry.admit(deform)
    tg, vg = region.t_grid(), region.v_grid()
    n_violations = 0
    extrema = []
    with np.errstate(over="ignore", invalid="ignore"), _RowBuffer(vg.size):
        for i0, block in _row_blocks(entry.margin, tg, vg, r):
            least = _block_extremum(block, i0, lower=True)
            # Counted as not holding, like certify_point, so NaN margins
            # count.  The least margin is the first NaN if there is one, so
            # a block whose least margin holds has nothing to count.
            if not least[0] >= -tol:
                n_violations += block.size - int(np.count_nonzero(block >= -tol))
            extrema.append(least)
    value, i, j = _pick(extrema, lower=True)
    return SweepReport(
        bound_id=bound_id,
        n_points=region.n_t * region.n_v,
        n_violations=n_violations,
        min_margin=value,
        argmin_point=EvalPoint(float(tg[i]), float(vg[j])),
    )


def eval_diff(diff_id, p, r=None):
    """Signed value of one difference function at an EvalPoint.

    r is consumed only by diff-ropt (where it is required, must be finite
    and may exceed 1); the other differences have no free parameter.
    """
    diff = _DIFF_BY_ID.get(diff_id) or _lookup_diff(diff_id)
    if not diff.t_lo <= p.t <= diff.t_hi:
        raise RegionError(f"{diff_id} is restricted to region {diff.region}, got t={p.t}")
    rows = p._rows
    lhs = rows[diff.lhs.id, _admit_diff_r(diff, r)]
    return lhs - rows[diff.rhs.id, None]


def _grid_extrema(diff, tg, vg, r):
    """Best positive and negative values over the tensor grid, first hit wins.

    Non-finite values are evidence of neither sign and are skipped; an
    extremum is None when no value is finite.
    """
    his, los = [], []
    with _RowBuffer(vg.size):
        for i0, block in _row_blocks(diff, tg, vg, r):
            his.append(_block_extremum(block, i0, False, True))
            los.append(_block_extremum(block, i0, True, True))
    hi, lo = _pick(his, lower=False), _pick(los, lower=True)
    if hi is None:
        return None, None
    pos = (hi[0], float(tg[hi[1]]), float(vg[hi[2]]))
    neg = (lo[0], float(tg[lo[1]]), float(vg[lo[2]]))
    return pos, neg


def _refine_axis(center, step, lo, hi, log_scale):
    """21-point window of +-step around center, clipped to [lo, hi]."""
    if log_scale:
        lg = np.log10(center)
        grid = _logspace(lg - step, lg + step, _REFINE_POINTS)
    else:
        grid = _linspace(center - step, center + step, _REFINE_POINTS)
    return np.clip(grid, lo, hi, out=grid)


def find_sign_change(diff_id, region, delta, refine_depth=3, r=None):
    """Search a Region for points where the difference exceeds +-delta >= 0.

    Coarse scan on the Region grid first; then up to refine_depth rounds of
    10x local refinement around the incumbent extremum of each sign.  Both
    extrema are refined every round, so the returned witness carries the
    best values found, not merely the first past the threshold.  Raises
    WitnessNotFoundError when refinement is exhausted with a sign missing;
    that is absence of evidence at this delta and depth, not a proof of
    ordering.  refine_depth is an integer (int, bool or a numpy integer);
    anything else, or a negative one, raises DomainError before any scan.
    """
    diff = _lookup_diff(diff_id)
    _check_window(diff, region.t_min, region.t_max)
    _check_threshold("delta", delta)
    try:
        operator.index(refine_depth)
    except TypeError:
        raise DomainError(f"refine_depth must be an integer, got {refine_depth!r}") from None
    if refine_depth < 0:
        raise DomainError(f"refine_depth must be >= 0, got {refine_depth!r}")
    r_value = _admit_diff_r(diff, r)

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
