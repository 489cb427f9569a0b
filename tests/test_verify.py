"""Sweep, sign-change search, and reference-table checks."""

import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from youngbounds import (
    DIFF_PRESETS,
    DeformParam,
    EvalPoint,
    Region,
    SweepReport,
    certify_point,
    diff_ids,
    eval_diff,
    evaluate,
    evaluate_grid,
    find_sign_change,
    list_bounds,
    reproduce_remarks,
    sweep,
    tightest,
)
from youngbounds import catalog, scalar, verify
from youngbounds.errors import (
    DomainError,
    RegionError,
    UnknownDiffError,
    WitnessNotFoundError,
)
from youngbounds.scalar import _ratio
from youngbounds.verify import LINEAR, LOG

relaxed = settings(deadline=None)

# Independent recomputation (mpmath, 50 digits) of the published table,
# keyed by row label, to twelve significant digits.
ORACLE_REMARKS = {
    "l(1/2,1/5)": 0.0155214516689,
    "l(1/4,1/5)": -0.00425112728745,
    "l(3,1/5)": 0.020986166848,
    "l(5,1/5)": -0.0682639451017,
    "u_1(1/2,0.6)": -0.0467731891711,
    "u_1(1/2,0.9)": 0.066827137761,
    "u_2(1/2,0.6)": -0.0467731891711,
    "u_2(1/2,0.9)": 0.066827137761,
    "u_3(2,0.6)": -0.0467731891711,
    "u_3(2,0.9)": 0.066827137761,
    "l_1(3/5,0.1)": -0.00077749286232,
    "l_1(3/5,0.4)": 0.00657565565309,
    "l_2(5/3,0.1)": -0.00077749286232,
    "l_2(5/3,0.4)": 0.00657565565309,
    "ropt": -0.000360487945022,
}


def test_region_validation():
    with pytest.raises(RegionError):
        Region(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(RegionError):
        Region(2.0, 1.0, 0.0, 1.0)
    with pytest.raises(RegionError):
        Region(0.1, 1.0, -0.1, 1.0)
    with pytest.raises(RegionError):
        Region(0.1, 1.0, 0.6, 0.4)
    with pytest.raises(RegionError):
        Region(0.1, 1.0, 0.0, 1.0, "cubic")
    with pytest.raises(RegionError):
        Region(0.1, 1.0, 0.0, 1.0, LOG, 1, 41)
    with pytest.raises(RegionError):
        Region(0.1, 1.0, 0.0, 1.0, LOG, 41, 1)
    # grid sizes are integers: not floats, even whole ones, and not strings
    with pytest.raises(RegionError):
        Region(0.1, 10.0, 0.0, 1.0, LOG, 40.0, 41)
    with pytest.raises(RegionError):
        Region(0.1, 10.0, 0.0, 1.0, LOG, 41, "41")
    numpy_sized = Region(0.1, 10.0, 0.0, 1.0, LOG, np.int64(5), np.int32(3))
    assert sweep("T31-poly", numpy_sized).n_points == 15


def test_region_defaults_and_grids():
    r = Region(0.1, 10.0, 0.0, 1.0)
    assert (r.t_scale, r.n_t, r.n_v) == (LOG, 41, 41)
    r3 = Region(0.01, 1.0, 0.2, 0.8, LOG, 3, 3)
    np.testing.assert_allclose(r3.t_grid(), [0.01, 0.1, 1.0], rtol=1e-12)
    np.testing.assert_allclose(r3.v_grid(), [0.2, 0.5, 0.8], rtol=1e-15)
    lin = Region(1.0, 3.0, 0.0, 1.0, LINEAR, 3, 2)
    np.testing.assert_allclose(lin.t_grid(), [1.0, 2.0, 3.0], rtol=1e-15)
    collapsed = Region(1.0, 1.0, 0.5, 0.5, LINEAR, 2, 2)
    assert collapsed.t_grid().tolist() == [1.0, 1.0]
    assert collapsed.v_grid().tolist() == [0.5, 0.5]


def test_sweep_clean_and_deterministic():
    region = Region(1e-3, 1e3, 0.0, 1.0, LOG, 200, 101)
    first = sweep("T31-poly", region)
    second = sweep("T31-poly", region)
    assert first == second
    assert first.bound_id == "T31-poly"
    assert first.n_points == 20200
    assert first.n_violations == 0
    assert first.min_margin >= -1e-12


def test_sweep_collapsed_region_at_one():
    report = sweep("K-lower", Region(1.0, 1.0, 0.5, 0.5, LINEAR, 2, 2))
    assert report.n_points == 4
    assert report.n_violations == 0
    assert report.min_margin == 0.0
    assert report.argmin_point == EvalPoint(1.0, 0.5)


def test_sweep_rejects_window_outside_validity_region():
    with pytest.raises(RegionError):
        sweep("FM-m", Region(0.1, 2.0, 0.0, 1.0))
    with pytest.raises(RegionError):
        sweep("T36-lo-ge1", Region(0.5, 10.0, 0.0, 1.0))


@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300, math.inf, -math.inf])
def test_sweep_rejects_invalid_tolerance(tol):
    with pytest.raises(DomainError, match="tol"):
        sweep("T31-poly", Region(0.1, 10.0, 0.0, 1.0, LOG, 5, 3), tol=tol)


def test_sweep_accepts_zero_tolerance():
    region = Region(1.0, 1.0, 0.5, 0.5, LINEAR, 2, 2)
    assert sweep("K-lower", region, tol=0.0).n_violations == 0


def test_sweep_deform_passthrough():
    region = Region(0.1, 10.0, 0.0, 1.0, LOG, 41, 21)
    looser = sweep("C33-expr", region, deform=DeformParam(0.5))
    default = sweep("C33-expr", region)
    assert looser.n_violations == 0 and default.n_violations == 0
    # a smaller r gives a pointwise larger upper bound, so larger margins
    assert looser.min_margin >= default.min_margin


# FM-M is an upper row and FM-m a lower one, whose margin pair is reversed.
@pytest.mark.parametrize("bound_id", ["FM-M", "FM-m"])
def test_sweep_margins_match_pointwise_certificates(bound_id):
    region = Region(0.2, 1.0, 0.0, 1.0, LINEAR, 5, 5)
    report = sweep(bound_id, region)
    worst = min(
        certify_point(bound_id, EvalPoint(float(t), float(v))).margin
        for t in region.t_grid()
        for v in region.v_grid()
    )
    assert report.min_margin == worst


def test_every_margin_and_difference_is_one_catalog_pair():
    # One comparison of two rows serves points, sweeps, searches and claims:
    # each entry's margin is its pair with R, reversed exactly for a lower row.
    for entry in catalog._CATALOG:
        margin = entry.margin
        assert type(margin) is catalog._Pair
        assert margin.lhs is entry and margin.rhs is scalar._R_ROW
        assert margin.reverse == (entry.spec.side == catalog.LOWER)
        assert margin.region == entry.region
    for diff in verify._DIFFS:
        assert isinstance(diff, catalog._Pair) and not diff.reverse


# The whole-grid reference that the blocked reductions must match bit for
# bit: one kernel call over the full grid, reduced by numpy's argmin/argmax.
# Reports are compared by repr, which tells every float apart, -0.0 and NaN
# included.
def _full_grid_sweep(bound_id, region, tol=1e-12, deform=None):
    tg, vg = region.t_grid(), region.v_grid()
    bound = evaluate_grid(bound_id, tg[:, None], vg[None, :], deform)
    ratio = _ratio(tg[:, None], vg[None, :])
    if catalog.get_bound(bound_id).side == catalog.UPPER:
        margin = bound - ratio
    else:
        margin = ratio - bound
    margin = np.broadcast_to(margin, (tg.size, vg.size))
    i, j = divmod(int(np.argmin(margin)), vg.size)
    return SweepReport(bound_id, margin.size, int(np.count_nonzero(~(margin >= -tol))),
                       float(margin[i, j]), EvalPoint(float(tg[i]), float(vg[j])))


def _full_grid_extrema(diff, tg, vg, r):
    values = np.broadcast_to(diff.kernel(tg[:, None], vg[None, :], r), (tg.size, vg.size))
    ihi, jhi = divmod(int(np.argmax(values)), vg.size)
    ilo, jlo = divmod(int(np.argmin(values)), vg.size)
    return ((float(values[ihi, jhi]), float(tg[ihi]), float(vg[jhi])),
            (float(values[ilo, jlo]), float(tg[ilo]), float(vg[jlo])))


_DEFAULT_WINDOWS = {catalog.ALL_T: (1e-3, 1e3), catalog.T_LE_1: (1e-3, 1.0),
                    catalog.T_GE_1: (1.0, 1e3)}
_WIDE_WINDOWS = {catalog.ALL_T: (1e-9, 1e9), catalog.T_LE_1: (1e-9, 1.0),
                 catalog.T_GE_1: (1.0, 1e9)}

# Row-length floors that make every walk unbuffered (2) or buffered: the
# values of a walk must not depend on numpy's ufunc buffer.
_FORCED_FLOORS = (2, 2**62)

# Two edge grids of test_blocked_sweep_edge_grids_equal_full_grid: n_t is not
# a multiple of the rows per block (ragged), and n_v exceeds a block, so every
# block is one row.
_RAGGED = Region(1e-3, 1.0, 0.0, 1.0, LINEAR, 2500, 33)
_ONE_ROW = Region(1e-9, 1e9, 0.0, 1.0, LOG, 3, 40000)


@pytest.mark.parametrize("windows", [_DEFAULT_WINDOWS, _WIDE_WINDOWS], ids=["default", "wide"])
@pytest.mark.parametrize("bound_id", catalog.bound_ids())
def test_blocked_sweep_equals_full_grid_bitwise(bound_id, windows, monkeypatch):
    lo, hi = windows[catalog.get_bound(bound_id).region]
    region = Region(lo, hi, 0.0, 1.0, LOG, 600, 301)
    # The exp of D1-exp (wide) and of the D2-hi rows overflows to inf at the
    # windows' far ends, in both walks alike.
    with np.errstate(over="ignore"):
        want = repr(_full_grid_sweep(bound_id, region))
        for floor in _FORCED_FLOORS:
            monkeypatch.setattr(verify, "_UNBUFFERED_ROW", floor)
            assert repr(sweep(bound_id, region)) == want, floor


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bound_id, region, deform", [
    ("T36-lo-le1", _RAGGED, None),
    ("K-upper", _ONE_ROW, None),
    ("FM-M", Region(0.2, 1.0, 0.0, 1.0, LINEAR, 2, 2), None),
    ("C38-lo", Region(1e-3, 1e3, 0.0, 1.0, LOG, 200, 101), DeformParam(-0.5)),
    # every margin is 0 at v = 0: the argmin is the first point
    ("D1-exp", Region(1e-3, 1e3, 0.0, 0.0, LOG, 700, 50), None),
    # NaN margins past t ~ 1.34e154, in later blocks: the first NaN is reported
    ("D1-exp", Region(1e-3, 1e300, 0.0, 1.0, LOG, 50, 11), None),
    ("K-lower", Region(1e-3, 1e300, 0.0, 1.0, LOG, 700, 101), None),
], ids=["ragged", "one-row-blocks", "2x2", "deformed", "all-tie", "nan", "nan-blocks"])
def test_blocked_sweep_edge_grids_equal_full_grid(bound_id, region, deform, monkeypatch):
    want = repr(_full_grid_sweep(bound_id, region, deform=deform))
    for floor in _FORCED_FLOORS:
        monkeypatch.setattr(verify, "_UNBUFFERED_ROW", floor)
        report = sweep(bound_id, region, deform=deform)
        assert repr(report) == want, floor
    if region.v_max == 0.0:
        assert report.min_margin == 0.0
        assert report.argmin_point == EvalPoint(region.t_min, 0.0)


def _block_rows(bound_id, region):
    row = catalog._BY_ID[bound_id]
    return [len(block) for _, block in
            verify._row_blocks(row, region.t_grid(), region.v_grid(), row.default_r)]


def test_edge_grids_reach_ragged_and_one_row_blocks():
    # At least two blocks, the last one partial; and one row per block.
    ragged = _block_rows("T36-lo-le1", _RAGGED)
    assert len(ragged) >= 2 and ragged[-1] < ragged[0]
    assert _block_rows("K-upper", _ONE_ROW) == [1, 1, 1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_counts_nan_margins_as_violations():
    # At v in {0, 1} the D1-exp kernel is 0 * inf = nan past t ~ 1.34e154;
    # certify_point says such a point does not hold, and so must the sweep.
    report = sweep("D1-exp", Region(1e-3, 1e300, 0.0, 1.0, LOG, 50, 11))
    assert math.isnan(report.min_margin)
    assert report.n_violations == 48
    assert not certify_point("D1-exp", report.argmin_point).holds


def test_sweep_count_at_least_margin_equal_to_minus_tol():
    # With tol = -min_margin the least margin is exactly -tol: it holds, so
    # its block counts no violation and none is counted anywhere.  One ulp
    # less tol and the points at the least margin count again.
    region = Region(1e-9, 1e9, 0.0, 1.0, LOG, 600, 301)
    first = sweep("K-upper", region)
    assert first.n_violations > 0 and first.min_margin < 0.0
    tol = -first.min_margin
    report = sweep("K-upper", region, tol=tol)
    assert report.n_violations == 0
    assert repr(report) == repr(_full_grid_sweep("K-upper", region, tol=tol))
    below = float(np.nextafter(tol, 0.0))
    report = sweep("K-upper", region, tol=below)
    assert report.n_violations > 0
    assert repr(report) == repr(_full_grid_sweep("K-upper", region, tol=below))


@pytest.mark.parametrize("diff_id", ["diff-l", "diff-u2", "diff-l2"])
@pytest.mark.parametrize("n", [41, 401, 1001])
def test_blocked_witness_search_equals_full_grid(diff_id, n, monkeypatch):
    t_lo, t_hi, delta = DIFF_PRESETS[diff_id]
    region = Region(t_lo, t_hi, 0.0, 1.0, LOG, n, n)
    diff = verify._DIFF_BY_ID[diff_id]
    tg, vg = region.t_grid(), region.v_grid()
    assert repr(verify._grid_extrema(diff, tg, vg, None)) == \
        repr(_full_grid_extrema(diff, tg, vg, None))
    blocked = find_sign_change(diff_id, region, delta)
    monkeypatch.setattr(verify, "_grid_extrema", _full_grid_extrema)
    assert repr(blocked) == repr(find_sign_change(diff_id, region, delta))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blocked_extrema_skip_nan_values():
    # NaN and -inf (one side overflowed) past t ~ 1e3 in later blocks: the
    # extrema are those of the finite values, first occurrence in row-major order.
    diff = verify._DIFF_BY_ID["diff-l"]
    region = Region(1e-3, 1e300, 0.0, 1.0, LOG, 700, 101)
    tg, vg = region.t_grid(), region.v_grid()
    values = np.broadcast_to(diff.kernel(tg[:, None], vg[None, :], None), (tg.size, vg.size))
    assert np.isnan(values).any() and np.isinf(values).any()
    finite = np.flatnonzero(np.isfinite(values))
    ihi, jhi = divmod(int(finite[np.argmax(values.ravel()[finite])]), vg.size)
    ilo, jlo = divmod(int(finite[np.argmin(values.ravel()[finite])]), vg.size)
    expected = ((float(values[ihi, jhi]), float(tg[ihi]), float(vg[jhi])),
                (float(values[ilo, jlo]), float(tg[ilo]), float(vg[jlo])))
    blocked = verify._grid_extrema(diff, tg, vg, None)
    assert all(math.isfinite(value) for value, _, _ in blocked)
    assert repr(blocked) == repr(expected)


def _fold(best, block, i0, lower, skip_nonfinite=False):
    return verify._pick([best, verify._block_extremum(block, i0, lower, skip_nonfinite)], lower)


def test_nan_skipping_fold_never_lands_on_a_nan():
    # Neither NaN nor an infinity is a value to compare: the pick takes the
    # finite extremum, which np.nanargmax (NaN read as -inf) would not.
    block = np.array([[np.nan, -np.inf, 2.0], [np.inf, np.nan, -3.0]])
    assert _fold(None, block, 5, lower=False, skip_nonfinite=True) == (2.0, 5, 2)
    assert _fold(None, block, 5, lower=True, skip_nonfinite=True) == (-3.0, 6, 2)
    for bad in (np.nan, np.inf, -np.inf):
        bad_block = np.full((2, 3), bad)
        bad_block[0, 1] = np.nan
        assert verify._block_extremum(bad_block, 0, True, skip_nonfinite=True) is None
        assert _fold(None, bad_block, 0, lower=True, skip_nonfinite=True) is None
        held = (1.0, 0, 2)
        assert _fold(held, bad_block, 2, lower=False, skip_nonfinite=True) == held
    # without skip_nonfinite the first NaN still wins, as a sweep needs
    nan_block = np.full((2, 3), np.nan)
    assert math.isnan(_fold(held, nan_block, 2, lower=True)[0])


# Values whose NaNs, infinities and ties (-0.0 with 0.0 among them) cross
# block boundaries.
_PICK_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0]


def _whole_grid_extremum(grid, lower, finite_only):
    """numpy's argmin (lower) or argmax of the whole grid as (value, row,
    column); with finite_only over its finite values, None if it has none."""
    flat = grid.ravel()
    keep = np.flatnonzero(np.isfinite(flat)) if finite_only else np.arange(flat.size)
    if keep.size == 0:
        return None
    i, j = divmod(int(keep[np.argmin(flat[keep]) if lower else np.argmax(flat[keep])]),
                  grid.shape[1])
    return float(grid[i, j]), i, j


@given(st.integers(1, 7), st.integers(1, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_pick_of_block_extrema_is_the_whole_grid_extremum(n_t, n_v, data):
    # For every block height, the pick of the blocks' extrema is the whole
    # grid's, under the sweep's rule (the first NaN wins) and the witness
    # search's (finite values only, None when none is finite).
    cells = data.draw(st.lists(st.sampled_from(_PICK_VALUES),
                               min_size=n_t * n_v, max_size=n_t * n_v))
    grid = np.array(cells).reshape(n_t, n_v)
    for lower in (True, False):
        for finite_only in (False, True):
            want = _whole_grid_extremum(grid, lower, finite_only)
            for rows in range(1, n_t + 1):
                found = [verify._block_extremum(grid[i0:i0 + rows], i0, lower, finite_only)
                         for i0 in range(0, n_t, rows)]
                assert repr(verify._pick(found, lower)) == repr(want), (rows, lower, finite_only)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_witness_search_skips_nan_values():
    # The coarse grid of [0.1, 1e300] holds NaN past t ~ 1.34e154; before NaN
    # was skipped it won both extrema and the search failed with "best +nan".
    # -inf, where D1-exp overflows, is skipped too: it was reported as the
    # negative witness at (3.35e6, 0.025).  The expected overflow warns nowhere.
    w = find_sign_change("diff-l", Region(0.1, 1e300, 0.0, 1.0, LOG, 41, 41), 1e-3)
    assert w.value_pos > 1e-3 and w.value_neg < -1e-3
    assert math.isfinite(w.value_pos) and math.isfinite(w.value_neg)
    assert eval_diff("diff-l", w.point_pos) == w.value_pos
    assert eval_diff("diff-l", w.point_neg) == w.value_neg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_witness_search_on_an_all_nan_window_finds_nothing():
    region = Region(1e200, 1e300, 0.0, 1.0, LOG, 41, 41)
    diff = verify._DIFF_BY_ID["diff-l"]
    assert np.isnan(diff.kernel(region.t_grid()[:, None], region.v_grid()[None, :], None)).all()
    with pytest.raises(WitnessNotFoundError, match="every value on the 41x41 grid is NaN"):
        find_sign_change("diff-l", region, 1e-3)


def test_sweeps_and_witness_searches_own_their_error_state():
    # Both silence overflow and invalid values once per call, whatever the
    # caller's np.errstate; the results are those of the default state.
    region = Region(1e-3, 1e300, 0.0, 1.0, LOG, 700, 101)
    window = Region(0.1, 1e300, 0.0, 1.0, LOG, 41, 41)
    expected = (repr(sweep("K-lower", region)),
                repr(find_sign_change("diff-l", window, 1e-3)))
    with np.errstate(over="raise", invalid="raise"):
        got = (repr(sweep("K-lower", region)),
               repr(find_sign_change("diff-l", window, 1e-3)))
    assert got == expected


# A window whose differences stay below the threshold, so the search refines
# to its full depth (six 21x21 walks) and finds nothing.
_NEAR_EQUALITY = (0.9, 1.1, 0.49, 0.51, LINEAR)

# (walk, exception it raises or None): long rows and short ones.
_STATEFUL_WALKS = {
    "sweep-600x301": (lambda: sweep("T31-poly", Region(1e-3, 1e3, 0.0, 1.0, LOG, 600, 301)),
                      None),
    "sweep-200x11": (lambda: sweep("T31-poly", Region(1e-3, 1e3, 0.0, 1.0, LOG, 200, 11)),
                     None),
    "found": (lambda: find_sign_change("diff-l", Region(0.1, 10.0, 0.0, 1.0, LOG, 401, 401),
                                       1e-3), None),
    "not-found": (lambda: find_sign_change("diff-l", Region(*_NEAR_EQUALITY, 401, 401), 0.5),
                  WitnessNotFoundError),
    # exp_r's domain pass fails inside the coarse walk
    "domain-error": (lambda: find_sign_change("diff-ropt", Region(0.1, 10, 0, 1, LOG, 401, 401),
                                              1e-3, r=-1.0), DomainError),
    # outside any np.errstate, which restores the buffer size on numpy 2
    "bare-walk": (lambda: _walk(catalog._BY_ID["T31-poly"], np.geomspace(1e-3, 1e3, 600),
                                np.linspace(0.0, 1.0, 301), None), None),
}


@pytest.mark.parametrize("bufsize", [None, 4096], ids=["default", "caller-4096"])
@pytest.mark.parametrize("walk", list(_STATEFUL_WALKS))
def test_walks_leave_numpys_state_as_they_found_it(walk, bufsize):
    run, raises = _STATEFUL_WALKS[walk]
    saved = np.getbufsize()
    try:
        if bufsize is not None:
            np.setbufsize(bufsize)
        before = (np.getbufsize(), np.geterr())
        if raises is None:
            run()
        else:
            with pytest.raises(raises):
                run()
        assert (np.getbufsize(), np.geterr()) == before
    finally:
        np.setbufsize(saved)


def test_walks_set_the_buffer_once_per_walk(monkeypatch):
    # A long-row walk sets and restores the buffer once, not once per block;
    # a short-row walk never touches it, refinement rounds included.
    calls, walks = [], []
    setbufsize, grid_extrema = np.setbufsize, verify._grid_extrema

    def recorded(size):
        calls.append(size)
        return setbufsize(size)

    def counted(*args):
        walks.append(args[2].size)
        return grid_extrema(*args)

    monkeypatch.setattr(np, "setbufsize", recorded)
    monkeypatch.setattr(verify, "_grid_extrema", counted)
    default = np.getbufsize()
    sweep("FM-M", Region(1e-3, 1.0, 0.0, 1.0, LOG, 600, 301))
    assert calls == [16, default]
    for n, want in ((41, []), (401, [16, default])):
        del calls[:], walks[:]
        with pytest.raises(WitnessNotFoundError):
            find_sign_change("diff-l", Region(*_NEAR_EQUALITY, n, n), 0.5)
        assert walks == [n] + [verify._REFINE_POINTS] * 6
        assert calls == want, n


@pytest.mark.parametrize("n", [41, 401])
def test_witness_presets_do_not_depend_on_the_buffer_mode(n, monkeypatch):
    found = []
    for floor in _FORCED_FLOORS:
        monkeypatch.setattr(verify, "_UNBUFFERED_ROW", floor)
        found.append([repr(find_sign_change(d.id, Region(lo, hi, 0.0, 1.0, LOG, n, n), delta))
                      for d in verify._DIFFS if not d.needs_r
                      for lo, hi, delta in [d.preset]])
    assert len(found[0]) == 6 and found[0] == found[1]


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_is_set_by_the_block_not_the_grid():
    region = Region(1e-9, 1e9, 0.0, 1.0, LOG, 2000, 1001)
    assert _traced_peak(lambda: sweep("K-upper", region)) < 2 * 2**20


# Python floats, ints and numpy floats: the types a Region may hold.
_T_ENDS = st.one_of(st.floats(5e-324, 1.7e308), st.floats(5e-324, 1.7e308).map(np.float64),
                    st.integers(1, 2**53))
_V_ENDS = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0).map(np.float64),
                    st.integers(0, 1))
_SIZES = st.one_of(st.integers(2, 2000), st.integers(2, 2000).map(np.int64))


def _assert_fresh_copy_of(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.flags.c_contiguous and got.flags.writeable and got.flags.owndata
    assert got.tobytes() == want.tobytes()


def _assert_numpys_grids(region):
    lo, hi, n = region.t_min, region.t_max, region.n_t
    want_t = np.geomspace(lo, hi, n) if region.t_scale == LOG else np.linspace(lo, hi, n)
    _assert_fresh_copy_of(region.t_grid(), want_t)
    _assert_fresh_copy_of(region.v_grid(), np.linspace(region.v_min, region.v_max, region.n_v))
    assert not np.shares_memory(region.t_grid(), region.t_grid())


@settings(max_examples=300, deadline=None)
@given(_T_ENDS, _T_ENDS, _V_ENDS, _V_ENDS, _SIZES, _SIZES, st.sampled_from([LOG, LINEAR]))
def test_grids_are_numpys_range_builders_bitwise(t1, t2, v1, v2, n_t, n_v, t_scale):
    (t_min, t_max), (v_min, v_max) = sorted((t1, t2)), sorted((v1, v2))
    _assert_numpys_grids(Region(t_min, t_max, v_min, v_max, t_scale, n_t, n_v))


@pytest.mark.parametrize("t_scale", [LOG, LINEAR])
@pytest.mark.parametrize("t_min, t_max, v_min, v_max, n_t, n_v", [
    (0.1, 10.0, 0.0, 1.0, 2, 2),
    (1.0, 1.0, 0.5, 0.5, 7, 3),
    (5e-324, 5e-324, 0.0, 5e-324, 3, 9),
    (1.7e308, 1.7e308, -0.0, 1.0, 2, 5),
    (5e-324, 1.7e308, -0.0, 1.0, 200_001, 200_001),
    (1, 10, 0, 1, np.int32(5), np.uint8(4)),
    (np.float64(1e-3), np.float64(1e3), np.float64(0.25), np.float64(0.75), 600, 301),
])
def test_grids_are_numpys_range_builders_at_the_edges(t_min, t_max, v_min, v_max, n_t, n_v,
                                                      t_scale):
    _assert_numpys_grids(Region(t_min, t_max, v_min, v_max, t_scale, n_t, n_v))


@settings(max_examples=300, deadline=None)
@given(_T_ENDS, _T_ENDS, st.floats(0.0, 1.0), st.floats(1e-9, 5.0), _V_ENDS, _V_ENDS,
       st.floats(0.0, 1.0), st.floats(0.0, 0.5))
def test_refinement_windows_are_numpys_range_builders_bitwise(t1, t2, t_at, t_step, v1, v2,
                                                              v_at, v_step):
    (t_lo, t_hi), (v_lo, v_hi) = sorted((t1, t2)), sorted((v1, v2))
    # a window's center is a grid point: float(tg[i]) or float(vg[j])
    t_center = float(np.geomspace(t_lo, t_hi, 3)[round(2 * t_at)])
    v_center = float(v_lo + (v_hi - v_lo) * v_at)
    lg = np.log10(t_center)
    with np.errstate(over="ignore"):
        want_t = np.clip(np.logspace(lg - t_step, lg + t_step, verify._REFINE_POINTS), t_lo, t_hi)
        got_t = verify._refine_axis(t_center, t_step, t_lo, t_hi, True)
    _assert_fresh_copy_of(got_t, want_t)
    want_v = np.clip(np.linspace(v_center - v_step, v_center + v_step, verify._REFINE_POINTS),
                     v_lo, v_hi)
    _assert_fresh_copy_of(verify._refine_axis(v_center, v_step, v_lo, v_hi, False), want_v)


def test_walks_never_call_numpys_range_builders(monkeypatch):
    # The grids and refinement windows come from verify's own builder: at
    # 6-37 us a call, numpy's were a third of a small walk's cost.
    def refuse(*args, **kwargs):
        raise AssertionError("a walk called one of numpy's range builders")

    for name in ("geomspace", "linspace", "logspace"):
        monkeypatch.setattr(np, name, refuse)
    sweep("K-upper", Region(1e-3, 1e3, 0.0, 1.0, LINEAR, 3, 5))
    sweep("FM-m", Region(1e-3, 1.0, 0.0, 1.0, LOG, 3, 5))
    # diff-l2 at 3x5 finds its witness only after refinement windows
    calls = []
    refine = verify._refine_axis
    monkeypatch.setattr(verify, "_refine_axis", lambda *a: calls.append(a) or refine(*a))
    find_sign_change("diff-l2", Region(1.0, 10.0, 0.0, 1.0, LOG, 3, 5), 1e-4)
    assert calls


def test_witness_search_memory_is_set_by_the_block_not_the_grid():
    region = Region(0.1, 10.0, 0.0, 1.0, LOG, 1001, 1001)
    assert _traced_peak(lambda: find_sign_change("diff-l", region, 1e-3)) < 2 * 2**20


@pytest.mark.parametrize("bound_id", ["K-upper", "FM-m", "C38-lo"])
def test_sweep_holds_a_few_t_columns_beside_the_t_grid(bound_id):
    # A walk computes each t-only factor once over the whole t column, so a
    # 200,000x2 sweep holds a few columns of tg's size.  Walks that computed
    # them per block peaked at 2 x tg.nbytes here, while np.geomspace built tg.
    lo, hi = _WIDE_WINDOWS[catalog.get_bound(bound_id).region]
    region = Region(lo, hi, 0.0, 1.0, LOG, 200_000, 2)
    column = region.t_grid().nbytes
    sweep(bound_id, region)
    assert _traced_peak(lambda: sweep(bound_id, region)) < (2 + 3) * column


def test_one_row_walk_holds_three_block_views_and_its_v_rows():
    # A sweep at one row per block holds three block views (out, tmp and the
    # margin's scratch), its plans' v rows (the row's weight, FM's -v-1, R's
    # 1-v and -v), the v grid, and t columns of three points.  Every v row is
    # written in place: K's weight takes no v-sized temporary, and c v(1-v)
    # takes one, c v.
    row = _ONE_ROW.v_grid().nbytes
    for bound_id, t_max, v_rows, temporaries in (("K-upper", 1e9, 3, 0), ("D1-exp", 1e9, 3, 1),
                                                 ("FM-m", 1.0, 4, 1)):
        region = Region(_ONE_ROW.t_min, t_max, 0.0, 1.0, LOG, 3, _ONE_ROW.n_v)
        assert catalog._BY_ID[bound_id].v_rows + scalar._R_ROW.v_rows == v_rows
        sweep(bound_id, region)
        peak = _traced_peak(lambda: sweep(bound_id, region))
        assert peak < (3 + v_rows + 1 + temporaries) * row + 2**14, bound_id


def test_every_kernel_returns_whole_row_blocks(monkeypatch):
    # _block_extremum's divmod reads each block as (rows, n_v): the walk of
    # every catalog and difference plan must yield that full shape, the
    # ragged last block included.
    monkeypatch.setattr(verify, "_BLOCK_POINTS", 14)  # blocks of 2, 2 and 1 rows
    vg = np.linspace(0.0, 1.0, 7)
    rows = [(e, e.default_r) for e in catalog._CATALOG]
    rows += [(d, 1.5 if d.needs_r else None) for d in verify._DIFFS]
    assert len(rows) == 17 + 7
    for row, r in rows:
        lo, hi = catalog._REGION_T[row.region]
        tg = np.geomspace(max(lo, 1e-3), min(hi, 1e3), 5)
        with np.errstate(over="ignore", invalid="ignore"):
            shapes = [block.shape for _, block in verify._row_blocks(row, tg, vg, r)]
        assert shapes == [(2, 7), (2, 7), (1, 7)], row.region


# Every row and every difference, at its default r and at a caller's:
# (name, row, r).
_CALLER_R = {"C33-expr": 0.37, "C38-hi": 0.37, "C38-lo": -0.37}
_PLANS = ([(e.id, e, e.default_r) for e in catalog._CATALOG]
          + [(e.id, e, _CALLER_R[e.id]) for e in catalog._CATALOG if e.default_r is not None]
          + [("ratio", catalog._R_ROW, None)]
          + [(d.id, d, r) for d in verify._DIFFS
             for r in ((1.001, 0.7) if d.needs_r else (None,))])

# Blocks of two rows at n_v = 7: wholly extreme (the smallest subnormal among
# them), in-window, straddling the window, in-window, wholly extreme (up to
# 1.7e308), and a ragged last block of one row.
_EDGE_T = np.array([5e-324, 1e-300, 1e-3, 0.5, 0.9, 1e5, 1.0, 7.0, 1e300, 1.7e308, 3.0])
_EDGE_V = np.array([0.0, 5e-324, 0.25, 0.37, 0.5, np.nextafter(1.0, 0.0), 1.0])


def _walk(row, tg, vg, r):
    """The blocks of one walk, copied (a block is valid until the walk advances)."""
    blocks = []
    with verify._RowBuffer(vg.size):
        for i0, block in verify._row_blocks(row, tg, vg, r):
            assert block.flags.c_contiguous and block.__array_interface__["data"][0] % 64 == 0
            blocks.append((i0, block.copy()))
    return blocks


# (block points, or None for the real block size; t grid; v grid) per walk.
_PLAN_GRIDS = {
    "two-row": (14, _EDGE_T, _EDGE_V),
    "one-row": (5, _EDGE_T, _EDGE_V),
    # A 600x301 wide grid at the real block size: a ragged last block,
    # in-window blocks and wholly extreme ones at both ends.
    "default": (None, np.geomspace(1e-9, 1e9, 600), np.linspace(0.0, 1.0, 301)),
    # A refinement window clipped at its region's edge t = 2e3: in-window,
    # straddling and wholly extreme blocks, the last ones of one repeated t.
    "refine-edge": (14, verify._refine_axis(1e3, 0.5, 1e-9, 2e3, True), _EDGE_V),
    # One block holding both extremes and no t inside the window.
    "extremes": (None, np.array([1e-6, 1e6]), _EDGE_V),
    # Blocks of three rows, each row's side of the window set by its own t:
    # extreme, in-window, extreme; then in-window, extreme, in-window; the
    # window's ends 1e-3 and 1e3 inside it, their outer neighbours outside.
    "three-runs": (21, np.array([1e-300, 1e-3, np.nextafter(1e3, np.inf), 1e3,
                                 np.nextafter(1e-3, 0.0), 0.5, 1e300]), _EDGE_V),
    # Unsorted t: runs of every length in either order, at both ends.
    "unsorted": (35, np.random.default_rng(7).permutation(np.geomspace(1e-9, 1e9, 61)), _EDGE_V),
}


@pytest.mark.parametrize("grid", list(_PLAN_GRIDS))
@pytest.mark.parametrize("name, row, r", _PLANS, ids=[f"{name}@{r}" for name, _, r in _PLANS])
def test_plans_fill_their_kernels_blocks_bitwise(name, row, r, grid, monkeypatch):
    block_points, tg, vg = _PLAN_GRIDS[grid]
    if block_points is not None:
        monkeypatch.setattr(verify, "_BLOCK_POINTS", block_points)
    with np.errstate(all="ignore"):
        want = np.broadcast_to(row.kernel(tg[:, None], vg[None, :], r), (tg.size, vg.size))
    rows = max(1, verify._BLOCK_POINTS // vg.size)
    for floor in _FORCED_FLOORS:
        monkeypatch.setattr(verify, "_UNBUFFERED_ROW", floor)
        with np.errstate(all="ignore"):
            blocks = _walk(row, tg, vg, r)
        assert [i0 for i0, _ in blocks] == list(range(0, tg.size, rows))
        got = np.concatenate([block for _, block in blocks])
        assert got.tobytes() == want.tobytes(), floor


def test_plans_take_exactly_their_v_rows():
    # A walk's arena holds row.v_rows v rows: a plan that took more would stop
    # the walk, and one that took fewer would leave a row unused.
    for name, row, r in _PLANS:
        arena = verify._Arena(2, _EDGE_V.size, row.v_rows)
        with np.errstate(all="ignore"):
            row.plan(_EDGE_T[:, None], _EDGE_V, r, arena)
        assert next(arena.rows, None) is None, name


@pytest.mark.parametrize("windows", [_DEFAULT_WINDOWS, _WIDE_WINDOWS], ids=["default", "wide"])
def test_outputs_do_not_depend_on_the_block_size(windows, monkeypatch):
    # The benchmark's grids: every catalog sweep, the deformed rows at a
    # caller's r too, on 600x301, and the six preset witness searches at 401x401.
    sweeps = [(e.id, r) for e in catalog._CATALOG
              for r in ((None, _CALLER_R[e.id]) if e.default_r is not None else (None,))]
    assert len(sweeps) == 17 + 3
    found = []
    for block_points in (1 << 13, 1 << 15, 1 << 17):
        monkeypatch.setattr(verify, "_BLOCK_POINTS", block_points)
        reports = [repr(sweep(bound_id, Region(*windows[catalog.get_bound(bound_id).region],
                                               0.0, 1.0, LOG, 600, 301), deform=r))
                   for bound_id, r in sweeps]
        if windows is _DEFAULT_WINDOWS:
            reports += [repr(find_sign_change(d.id, Region(lo, hi, 0.0, 1.0, LOG, 401, 401), delta))
                        for d in verify._DIFFS if not d.needs_r for lo, hi, delta in [d.preset]]
        found.append(reports)
    assert found[0] == found[1] == found[2]


def test_plan_walks_never_call_the_ratio_kernel(monkeypatch):
    # The kernel _ratio stays the reference for points and evaluate_grid; a
    # walk fills every block, straddling ones included, from its plan alone.
    def refuse(t, v):
        raise AssertionError("a plan walk called scalar._ratio")

    monkeypatch.setattr(scalar, "_ratio", refuse)
    sweep("K-upper", Region(1e-9, 1e9, 0.0, 1.0, LOG, 600, 301))
    find_sign_change("diff-ropt", Region(1e-7, 1e4, 0.99, 1.0, LOG, 81, 41), 1e-5, r=1.001)
    default = verify._BLOCK_POINTS
    with np.errstate(all="ignore"):
        for block_points, tg, vg in _PLAN_GRIDS.values():
            monkeypatch.setattr(verify, "_BLOCK_POINTS", block_points or default)
            for _, row, r in _PLANS:
                _walk(row, tg, vg, r)


def test_a_walk_frees_its_arena_by_reference_counting(monkeypatch):
    # With the cyclic collector off, a walk's arena must be gone once the
    # walk ends: a plan whose closures formed a cycle would keep every view
    # alive until the next collection, and a process of many walks would hold
    # many arenas at once.
    refs, arena = [], verify._Arena

    def tracked(rows, n_v, n_rows):
        made = arena(rows, n_v, n_rows)
        v_rows = list(made.rows)
        refs.extend(weakref.ref(piece) for piece in
                    [made, made.out.base, made.out, made.tmp, made.scratch, *v_rows])
        made.rows = iter(v_rows)
        return made

    monkeypatch.setattr(verify, "_Arena", tracked)
    straddling = np.geomspace(1e-4, 1e4, 600)
    walks = [
        lambda: sweep("C33-expr", Region(1e-9, 1e9, 0.0, 1.0, LOG, 600, 301), deform=0.5),
        lambda: find_sign_change("diff-ropt", Region(1e-7, 1e4, 0.99, 1.0, LOG, 81, 41), 1e-5,
                                 r=1.001),
        lambda: _walk(scalar._R_ROW, straddling, _EDGE_V, None),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for walk in walks:
            del refs[:]
            with np.errstate(all="ignore"):
                walk()
            assert refs and all(ref() is None for ref in refs)
    finally:
        if enabled:
            gc.enable()


def test_interleaved_walks_yield_the_blocks_of_separate_walks(monkeypatch):
    # Each walk owns its arena: two walks advanced alternately yield what the
    # same walks yield one after the other.
    monkeypatch.setattr(verify, "_BLOCK_POINTS", 14)
    ropt, diff_l = verify._DIFF_BY_ID["diff-ropt"], verify._DIFF_BY_ID["diff-l"]
    with np.errstate(all="ignore"):
        alone = (_walk(ropt, _EDGE_T, _EDGE_V, 0.7), _walk(diff_l, _EDGE_T, _EDGE_V, None))
        pairs = zip(verify._row_blocks(ropt, _EDGE_T, _EDGE_V, 0.7),
                    verify._row_blocks(diff_l, _EDGE_T, _EDGE_V, None))
        interleaved = [((i, a.copy()), (j, b.copy())) for (i, a), (j, b) in pairs]
    for k, walk in enumerate(alone):
        assert [i for i, _ in walk] == [pair[k][0] for pair in interleaved]
        assert all(block.tobytes() == pair[k][1].tobytes()
                   for (_, block), pair in zip(walk, interleaved))


def _kernel_blocks(kernel, tg, vg, r):
    """The walk as one kernel call per block, the reference for where a walk raises."""
    rows = max(1, verify._BLOCK_POINTS // vg.size)
    for i0 in range(0, tg.size, rows):
        yield i0, kernel(tg[i0:i0 + rows, None], vg[None, :], r)


def _raised_after(blocks):
    seen = []
    with pytest.raises(DomainError) as info:
        for i0, _ in blocks:
            seen.append(i0)
    return seen, str(info.value)


def test_plans_raise_where_and_as_their_kernels_raise(monkeypatch):
    # 1 + r*x < 0 first in the third block (t = 1 gives x = 0): the plan walk
    # and the kernel walk yield the same two blocks, then raise alike.
    monkeypatch.setattr(verify, "_BLOCK_POINTS", 14)
    tg = np.array([1.0, 1.0, 1.0, 1.0, 10.0, 1.0, 0.1])
    message = "exp_r undefined: 1 + r*x < 0 at r=-2.0"
    for row in (verify._DIFF_BY_ID["diff-ropt"], catalog._BY_ID["C33-expr"]):
        walked = _raised_after(verify._row_blocks(row, tg, _EDGE_V, -2.0))
        kernel_walked = _raised_after(_kernel_blocks(row.kernel, tg, _EDGE_V, -2.0))
        assert walked == kernel_walked == ([0, 2], message)
    # The public paths: a grid walk and a point raise the same error.
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        find_sign_change("diff-ropt", Region(0.1, 10.0, 0.0, 1.0), 1e-3, r=-2.0)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        eval_diff("diff-ropt", EvalPoint(10.0, 0.5), -2.0)


def test_diff_census():
    assert diff_ids() == (
        "diff-l", "diff-u1", "diff-u2", "diff-u3", "diff-l1", "diff-l2", "diff-ropt",
    )
    assert set(DIFF_PRESETS) == set(diff_ids())


def test_diff_presets_in_registry_order():
    # each difference's window and threshold sit on its registry row
    assert list(DIFF_PRESETS.items()) == [
        ("diff-l", (0.1, 10.0, 1e-3)),
        ("diff-u1", (0.1, 10.0, 1e-3)),
        ("diff-u2", (0.1, 1.0, 1e-3)),
        ("diff-u3", (1.0, 10.0, 1e-3)),
        ("diff-l1", (0.1, 1.0, 1e-4)),
        ("diff-l2", (1.0, 10.0, 1e-4)),
        ("diff-ropt", (0.1, 10.0, 1e-3)),
    ]


def test_eval_diff_known_values():
    assert eval_diff("diff-l", EvalPoint(0.5, 0.2)) == pytest.approx(
        0.015521451668861985, rel=1e-12
    )
    assert eval_diff("diff-l", EvalPoint(3.0, 0.2)) == pytest.approx(
        0.020986166847956733, rel=1e-12
    )
    assert eval_diff("diff-l", EvalPoint(5.0, 0.2)) == pytest.approx(
        -0.06826394510170686, rel=1e-12
    )
    assert eval_diff("diff-u1", EvalPoint(0.5, 0.6)) == pytest.approx(
        -0.0467731891711, rel=1e-9
    )
    assert eval_diff("diff-l1", EvalPoint(0.6, 0.1)) == pytest.approx(
        -0.00077749286232, rel=1e-9
    )
    assert eval_diff("diff-l2", EvalPoint(5.0 / 3.0, 0.1)) == pytest.approx(
        -0.00077749286232, rel=1e-9
    )


def test_eval_diff_errors():
    with pytest.raises(UnknownDiffError):
        eval_diff("diff-x", EvalPoint(0.5, 0.5))
    with pytest.raises(RegionError):
        eval_diff("diff-u2", EvalPoint(2.0, 0.5))
    with pytest.raises(RegionError):
        eval_diff("diff-l2", EvalPoint(0.5, 0.5))
    with pytest.raises(DomainError):
        eval_diff("diff-ropt", EvalPoint(0.5, 0.5))  # r is required


def _bits(x):
    x = float(x)
    return "nan" if math.isnan(x) else x.hex()


def test_point_values_equal_grid_values_bitwise():
    # Scalars and arrays go through the same ufuncs, so the per-point API
    # must reproduce the grid kernels bit for bit, edges included.
    rng = np.random.default_rng(11)
    n = 400
    t = 10.0 ** rng.uniform(-12.0, 12.0, n)
    v = rng.random(n)
    v[:90] = np.resize([0.0, 0.5, 1.0], 90)
    t[90:120] = 1.0
    v[90:93] = (0.0, 0.5, 1.0)
    points = [EvalPoint(float(a), float(b)) for a, b in zip(t, v)]
    # The exp rows overflow to inf at the far t, on points and grids alike.
    with np.errstate(over="ignore"):
        ratio = _ratio(t, v)
        for k, p in enumerate(points):
            assert _bits(certify_point("D1-exp", p).ratio_value) == _bits(ratio[k]), p

        for entry in catalog._CATALOG:
            inside = [k for k, p in enumerate(points) if entry.t_lo <= p.t <= entry.t_hi]
            grid = evaluate_grid(entry.id, t[inside], v[inside])
            for k, g in zip(inside, grid):
                assert _bits(evaluate(entry.id, points[k])) == _bits(g), (entry.id, points[k])

        for diff_id in diff_ids():
            diff = verify._DIFF_BY_ID[diff_id]
            inside = [k for k, p in enumerate(points) if diff.t_lo <= p.t <= diff.t_hi]
            for r in ((0.0, 0.5, 1.0, 1.001) if diff.needs_r else (None,)):
                grid = diff.kernel(t[inside], v[inside], r)
                for k, g in zip(inside, grid):
                    got = eval_diff(diff_id, points[k], r)
                    assert _bits(got) == _bits(g), (diff_id, r, points[k])


# Past t ~ 1.34e154 the squares in the kernels overflow to inf, and some
# values come out inf or nan (with numpy's RuntimeWarning); the point API
# must return them, as the grid path does, rather than raise.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("t", [1e200, 1e300, 1.7e308])
def test_point_api_does_not_raise_at_huge_t(t):
    for v in (0.0, 0.3, 0.5, 1.0):
        p = EvalPoint(t, v)
        assert math.isfinite(p.ratio)
        for spec in list_bounds():
            if spec.region != catalog.T_LE_1:
                certify_point(spec.id, p)
        tightest(catalog.UPPER, p)
        tightest(catalog.LOWER, p)
        for diff_id in diff_ids():
            if verify._DIFF_BY_ID[diff_id].region != catalog.T_LE_1:
                eval_diff(diff_id, p, 1.001)
    assert certify_point("D1-exp", EvalPoint(t, 0.5)).holds


@given(st.floats(-2.0, 0.0), st.floats(0.0, 1.0))
@relaxed
def test_reciprocal_regions_mirror(u, v):
    # the t <= 1 and t >= 1 differences agree under t -> 1/t
    t = 10.0**u
    p, q = EvalPoint(t, v), EvalPoint(1.0 / t, v)
    assert eval_diff("diff-u2", p) == pytest.approx(
        eval_diff("diff-u3", q), rel=1e-11, abs=1e-12
    )
    assert eval_diff("diff-l1", p) == pytest.approx(
        eval_diff("diff-l2", q), rel=1e-11, abs=1e-12
    )


def test_optimality_probe_nonnegative_inside_unit_interval():
    worst = min(
        eval_diff("diff-ropt", EvalPoint(float(t), float(v)), r=1.0)
        for t in np.geomspace(1e-3, 1e3, 61)
        for v in np.linspace(0.0, 1.0, 21)
    )
    assert worst >= -1e-12


def test_optimality_probe_fails_just_above_one():
    value = eval_diff("diff-ropt", EvalPoint(1e-6, 0.999999), r=1.001)
    assert value == pytest.approx(-0.00036048794502181422, rel=1e-9)
    assert value <= -3e-4


def test_published_pair_shows_both_signs():
    assert eval_diff("diff-u1", EvalPoint(0.5, 0.6)) < -1e-3
    assert eval_diff("diff-u1", EvalPoint(0.5, 0.9)) > 1e-3


def test_witness_found_and_reproducible():
    region = Region(0.1, 1.0, 0.0, 1.0, LOG, 41, 41)
    w = find_sign_change("diff-u1", region, 1e-3)
    assert w.diff_id == "diff-u1" and w.delta == 1e-3
    assert w.value_pos > 1e-3
    assert w.value_neg < -1e-3
    assert eval_diff("diff-u1", w.point_pos) == w.value_pos
    assert eval_diff("diff-u1", w.point_neg) == w.value_neg
    assert find_sign_change("diff-u1", region, 1e-3) == w


def test_default_windows_yield_witnesses_for_every_difference():
    for diff_id, (t_lo, t_hi, delta) in DIFF_PRESETS.items():
        if diff_id == "diff-ropt":
            continue
        region = Region(t_lo, t_hi, 0.0, 1.0, LOG, 41, 41)
        w = find_sign_change(diff_id, region, delta)
        assert w.value_pos > delta and w.value_neg < -delta, diff_id


def test_optimality_probe_witness_needs_wide_window():
    # inside the default window the probe at r just above 1 never goes
    # negative; pushed toward the (t -> 0, v -> 1) corner it does
    preset = Region(0.1, 10.0, 0.0, 1.0, LOG, 41, 41)
    with pytest.raises(WitnessNotFoundError):
        find_sign_change("diff-ropt", preset, 1e-3, r=1.001)
    corner = Region(1e-8, 1.0, 0.999, 1.0, LOG, 41, 41)
    w = find_sign_change("diff-ropt", corner, 1e-4, r=1.001)
    assert w.value_neg < -100.0
    assert w.value_pos > 100.0


def test_witness_requires_r_for_probe():
    with pytest.raises(DomainError):
        find_sign_change("diff-ropt", Region(0.1, 10.0, 0.0, 1.0), 1e-3)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_probe_rejects_a_non_finite_r(r):
    # A NaN r made every probe value NaN, so the search reported "not found".
    message = f"diff-ropt requires a finite r, got {r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        eval_diff("diff-ropt", EvalPoint(2.0, 0.5), r)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        find_sign_change("diff-ropt", Region(0.1, 10.0, 0.0, 1.0), 1e-3, r=r)


def test_window_messages_name_the_region_bound():
    with pytest.raises(RegionError,
                       match=r"^FM-m is restricted to t <= 1, window reaches t=2\.0$"):
        sweep("FM-m", Region(0.1, 2.0, 0.0, 1.0))
    with pytest.raises(RegionError,
                       match=r"^diff-l2 is restricted to t >= 1, window reaches t=0\.5$"):
        find_sign_change("diff-l2", Region(0.5, 10.0, 0.0, 1.0), 1e-4)


@pytest.mark.parametrize("delta", [math.nan, -1.0, math.inf])
def test_witness_search_rejects_invalid_delta(delta):
    # delta = -1 made any two values a "sign change"; nan and inf can never
    # be exceeded.  Each is an input error, not a search outcome.
    region = Region(0.9, 1.0, 0.0, 0.01)
    with pytest.raises(DomainError, match="delta"):
        find_sign_change("diff-u2", region, delta)


def test_witness_absent_when_single_signed():
    region = Region(2.0, 2.0, 0.6, 0.6, LINEAR, 2, 2)
    with pytest.raises(WitnessNotFoundError):
        find_sign_change("diff-u3", region, 1e-3)


def test_witness_absent_near_equality_with_large_threshold():
    region = Region(0.9, 1.1, 0.49, 0.51, LINEAR, 41, 41)
    with pytest.raises(WitnessNotFoundError):
        find_sign_change("diff-l", region, 0.5)


def test_witness_respects_difference_region():
    with pytest.raises(RegionError):
        find_sign_change("diff-u2", Region(0.1, 2.0, 0.0, 1.0), 1e-3)


def test_refinement_extends_past_the_coarse_grid():
    # calibrated so the 7x7 scan stops short of delta and refinement does not
    region = Region(0.5, 1.0, 0.0, 1.0, LINEAR, 7, 7)
    with pytest.raises(WitnessNotFoundError):
        find_sign_change("diff-l1", region, 1e-3, refine_depth=0)
    w = find_sign_change("diff-l1", region, 1e-3, refine_depth=3)
    assert w.value_neg == pytest.approx(-0.0010169829573123401, rel=1e-12)
    assert w.value_neg < -1e-3 < 1e-3 < w.value_pos
    assert w.point_neg.t == pytest.approx(0.6917, rel=1e-2)
    assert find_sign_change("diff-l1", region, 1e-3, refine_depth=3) == w


@pytest.mark.parametrize("depth", [-1, -3])
def test_negative_refine_depth_is_a_domain_error(depth):
    region = Region(0.5, 1.0, 0.0, 1.0, LINEAR, 7, 7)
    message = f"refine_depth must be >= 0, got {depth}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        find_sign_change("diff-l1", region, 1e-3, refine_depth=depth)


@pytest.mark.parametrize("depth", [math.inf, math.nan, 2.5, "3", None])
def test_non_integer_refine_depth_is_a_domain_error(depth):
    # inf would refine forever where no witness exists, nan would skip
    # refinement and 2.5 would run three rounds: each is refused before a scan.
    region = Region(0.5, 1.0, 0.0, 1.0, LINEAR, 7, 7)
    message = f"refine_depth must be an integer, got {depth!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        find_sign_change("diff-l1", region, 1e-3, refine_depth=depth)


def test_numpy_integer_refine_depth_is_its_int():
    region = Region(0.5, 1.0, 0.0, 1.0, LINEAR, 7, 7)
    w = find_sign_change("diff-l1", region, 1e-3, refine_depth=2)
    assert find_sign_change("diff-l1", region, 1e-3, refine_depth=np.int64(2)) == w


def test_reference_table_matches_independent_recomputation():
    rows = reproduce_remarks()
    assert len(rows) == 15
    assert [row.label for row in rows] == list(ORACLE_REMARKS)
    for row in rows:
        assert row.computed == pytest.approx(ORACLE_REMARKS[row.label], rel=1e-9), row.label
        assert row.abs_error == abs(row.computed - row.paper_value)
        assert row.abs_error <= 1e-6


def test_reference_table_is_deterministic():
    assert reproduce_remarks() == reproduce_remarks()


# The known false verdicts (ROADMAP "Where things stand").  Each test asserts
# the correct verdict and is a strict xfail: the change that mends one must
# drop its marker.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: at t = 1e200 K-lower's linear margin reads bound inf, margin -inf; "
    "test_cli.py::test_eval_past_overflow_writes_one_stderr_line asserts exit 1 for the "
    "same defect at v in {0, 1}"))
def test_k_lower_holds_past_overflow_on_its_equality_curve():
    # at v = 1/2, K-lower is sqrt(K(t)), which equals R exactly
    assert certify_point("K-lower", EvalPoint(1e200, 0.5)).holds


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: past t ~ 1e154 the linear margin is NaN at v = 0 (48 violations)"))
def test_d1_exp_holds_on_a_window_to_1e300():
    assert sweep("D1-exp", Region(1e-3, 1e300, 0.0, 1.0, LOG, 50, 11)).n_violations == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 1-2: the absolute tol 1e-12 reads rounding as violation where K-upper "
    "equals R at v = 1/2 (10 violations, min -2.73e-11 at t = 9.0e8)"))
def test_k_upper_holds_on_its_equality_curve_to_1e9():
    assert sweep("K-upper", Region(1.0, 1e9, 0.0, 1.0, LOG, 200, 101)).n_violations == 0


@pytest.mark.xfail(strict=True, raises=WitnessNotFoundError, reason=(
    "ROADMAP item 3: the preset window's search finds no negative value below -2.22e-16 "
    "after depth 3, so it cannot show that C33-expr's r <= 1 is sharp"))
def test_diff_ropt_witness_shows_r_past_1_fails():
    t_lo, t_hi, delta = DIFF_PRESETS["diff-ropt"]
    w = find_sign_change("diff-ropt", Region(t_lo, t_hi, 0.0, 1.0, LOG, 41, 41), delta, r=1.001)
    assert w.value_pos > delta and w.value_neg < -delta
