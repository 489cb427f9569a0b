"""Sweep, sign-change search, and reference-table checks."""

import math
import tracemalloc

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
from youngbounds import catalog, verify
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


def test_sweep_margins_match_pointwise_certificates():
    region = Region(0.2, 1.0, 0.0, 1.0, LINEAR, 5, 5)
    report = sweep("FM-M", region)
    worst = min(
        certify_point("FM-M", EvalPoint(float(t), float(v))).margin
        for t in region.t_grid()
        for v in region.v_grid()
    )
    assert report.min_margin == worst


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


@pytest.mark.parametrize("windows", [_DEFAULT_WINDOWS, _WIDE_WINDOWS], ids=["default", "wide"])
@pytest.mark.parametrize("bound_id", catalog.bound_ids())
def test_blocked_sweep_equals_full_grid_bitwise(bound_id, windows):
    lo, hi = windows[catalog.get_bound(bound_id).region]
    region = Region(lo, hi, 0.0, 1.0, LOG, 600, 301)
    assert repr(sweep(bound_id, region)) == repr(_full_grid_sweep(bound_id, region))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bound_id, region, deform", [
    # n_t is not a multiple of the rows per block
    ("T36-lo-le1", Region(1e-3, 1.0, 0.0, 1.0, LINEAR, 777, 33), None),
    # n_v exceeds a block, so every block is one row
    ("K-upper", Region(1e-9, 1e9, 0.0, 1.0, LOG, 3, 40000), None),
    ("FM-M", Region(0.2, 1.0, 0.0, 1.0, LINEAR, 2, 2), None),
    ("C38-lo", Region(1e-3, 1e3, 0.0, 1.0, LOG, 200, 101), DeformParam(-0.5)),
    # every margin is 0 at v = 0: the argmin is the first point
    ("D1-exp", Region(1e-3, 1e3, 0.0, 0.0, LOG, 700, 50), None),
    # NaN margins past t ~ 1.34e154, in later blocks: the first NaN is reported
    ("D1-exp", Region(1e-3, 1e300, 0.0, 1.0, LOG, 50, 11), None),
    ("K-lower", Region(1e-3, 1e300, 0.0, 1.0, LOG, 700, 101), None),
], ids=["ragged", "one-row-blocks", "2x2", "deformed", "all-tie", "nan", "nan-blocks"])
def test_blocked_sweep_edge_grids_equal_full_grid(bound_id, region, deform):
    report = sweep(bound_id, region, deform=deform)
    assert repr(report) == repr(_full_grid_sweep(bound_id, region, deform=deform))
    if region.v_max == 0.0:
        assert report.min_margin == 0.0
        assert report.argmin_point == EvalPoint(region.t_min, 0.0)


def test_edge_grids_reach_ragged_and_one_row_blocks():
    assert 777 % (verify._BLOCK_POINTS // 33) != 0
    assert verify._BLOCK_POINTS < 40000


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_counts_nan_margins_as_violations():
    # At v in {0, 1} the D1-exp kernel is 0 * inf = nan past t ~ 1.34e154;
    # certify_point says such a point does not hold, and so must the sweep.
    report = sweep("D1-exp", Region(1e-3, 1e300, 0.0, 1.0, LOG, 50, 11))
    assert math.isnan(report.min_margin)
    assert report.n_violations == 48
    assert not certify_point("D1-exp", report.argmin_point).holds


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


def test_nan_skipping_fold_never_lands_on_a_nan():
    # Neither NaN nor an infinity is a value to compare: the fold takes the
    # finite extremum, which np.nanargmax (NaN read as -inf) would not.
    block = np.array([[np.nan, -np.inf, 2.0], [np.inf, np.nan, -3.0]])
    assert verify._fold_extremum(None, block, 5, lower=False, skip_nonfinite=True) == \
        (2.0, 5, 2)
    assert verify._fold_extremum(None, block, 5, lower=True, skip_nonfinite=True) == \
        (-3.0, 6, 2)
    for bad in (np.nan, np.inf, -np.inf):
        bad_block = np.full((2, 3), bad)
        bad_block[0, 1] = np.nan
        assert verify._fold_extremum(None, bad_block, 0, lower=True,
                                     skip_nonfinite=True) is None
        held = (1.0, 0, 2)
        assert verify._fold_extremum(held, bad_block, 2, lower=False,
                                     skip_nonfinite=True) == held
    # without skip_nonfinite the first NaN still wins, as a sweep needs
    nan_block = np.full((2, 3), np.nan)
    assert math.isnan(verify._fold_extremum(held, nan_block, 2, lower=True)[0])


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


def test_witness_search_memory_is_set_by_the_block_not_the_grid():
    region = Region(0.1, 10.0, 0.0, 1.0, LOG, 1001, 1001)
    assert _traced_peak(lambda: find_sign_change("diff-l", region, 1e-3)) < 2 * 2**20


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

    ratio = _ratio(t, v)
    for k, p in enumerate(points):
        assert _bits(certify_point("D1-exp", p).ratio_value) == _bits(ratio[k]), p

    for spec in list_bounds():
        inside = [k for k, p in enumerate(points) if catalog._in_region(spec.region, p.t)]
        grid = evaluate_grid(spec.id, t[inside], v[inside])
        for k, g in zip(inside, grid):
            assert _bits(evaluate(spec.id, points[k])) == _bits(g), (spec.id, points[k])

    for diff_id in diff_ids():
        diff = verify._DIFF_BY_ID[diff_id]
        inside = [k for k, p in enumerate(points) if catalog._in_region(diff.region, p.t)]
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
