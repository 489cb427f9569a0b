"""Catalog checks: census, evaluation, certificates, envelopes, the chain,
and a reference kernel per entry that the catalog must match bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from youngbounds import (
    DeformParam,
    EvalPoint,
    bound_ids,
    certify_point,
    chain_check,
    eval_diff,
    evaluate,
    evaluate_grid,
    get_bound,
    kantorovich,
    list_bounds,
    tightest,
    young_ratio,
)
from youngbounds import scalar, verify
from youngbounds.catalog import ALL_T, LOWER, T_GE_1, T_LE_1, UPPER
from youngbounds.errors import DomainError, RegionError, UnknownBoundError

relaxed = settings(deadline=None)

EXPECTED_IDS = (
    "D1-exp", "K-upper", "K-lower", "D2-lo-le1", "D2-hi-le1", "D2-lo-ge1",
    "D2-hi-ge1", "FM-m", "FM-M", "T31-poly", "C33-expr", "T36-lo-le1",
    "T36-hi-le1", "T36-lo-ge1", "T36-hi-ge1", "C38-lo", "C38-hi",
)

# Strategy for a t inside a given validity region (as a log10 exponent).
REGION_LOG_T = {
    ALL_T: st.floats(-3.0, 3.0),
    T_LE_1: st.floats(-3.0, 0.0),
    T_GE_1: st.floats(0.0, 3.0),
}


def test_census():
    assert bound_ids() == EXPECTED_IDS
    specs = {s.id: s for s in list_bounds()}
    assert len(specs) == 17
    assert sum(s.side == UPPER for s in specs.values()) == 10
    assert sum(s.side == LOWER for s in specs.values()) == 7
    assert specs["T31-poly"].side == UPPER and specs["T31-poly"].region == ALL_T
    assert specs["FM-m"].side == LOWER and specs["FM-m"].region == T_LE_1
    assert specs["T36-hi-ge1"].region == T_GE_1
    assert specs["C33-expr"].deform.r == 1.0
    assert specs["C38-hi"].deform.r == 1.0
    assert specs["C38-lo"].deform.r == -1.0
    assert specs["D1-exp"].deform is None
    assert all(s.description for s in specs.values())


def test_get_bound_unknown():
    with pytest.raises(UnknownBoundError):
        get_bound("nope")


def test_evaluate_known_values():
    assert evaluate("T31-poly", EvalPoint(4.0, 0.5)) == 1.5625
    assert evaluate("K-upper", EvalPoint(4.0, 0.5)) == pytest.approx(1.25, rel=1e-14)
    assert evaluate("FM-M", EvalPoint(0.25, 0.5)) == pytest.approx(1.5625, rel=1e-14)
    # mpmath column at (t, v) = (1/4, 1/4)
    p = EvalPoint(0.25, 0.25)
    assert evaluate("D1-exp", p) == pytest.approx(1.52481791053, rel=1e-11)
    assert evaluate("K-upper", p) == pytest.approx(1.39754248594, rel=1e-11)
    assert evaluate("K-lower", p) == pytest.approx(1.118033988749895, rel=1e-14)
    assert evaluate("D2-hi-le1", p) == pytest.approx(2.32506966028, rel=1e-11)
    assert evaluate("T31-poly", p) == 1.421875
    assert evaluate("T36-hi-le1", p) == 1.84375
    assert evaluate("C38-hi", p) == 1.84375
    assert evaluate("FM-M", p) == pytest.approx(1.2983106733130747, rel=1e-13)


def test_every_entry_is_one_at_t_equal_one():
    p = EvalPoint(1.0, 0.3)
    for bid in bound_ids():
        assert evaluate(bid, p) == 1.0, bid


def test_evaluate_error_paths():
    p_le = EvalPoint(0.5, 0.5)
    p_ge = EvalPoint(2.0, 0.5)
    with pytest.raises(UnknownBoundError):
        evaluate("nope", p_le)
    with pytest.raises(RegionError):
        evaluate("FM-M", p_ge)
    with pytest.raises(RegionError):
        evaluate("T36-lo-ge1", p_le)
    with pytest.raises(DomainError):
        evaluate("C33-expr", p_le, DeformParam(-0.5))
    with pytest.raises(DomainError):
        evaluate("C33-expr", p_le, DeformParam(0.0))
    with pytest.raises(DomainError):
        evaluate("C38-lo", p_le, DeformParam(0.5))
    with pytest.raises(DomainError):
        evaluate("T31-poly", p_le, DeformParam(1.0))


def test_point_queries_report_overflow_under_the_callers_error_state():
    # D1-exp overflows past t ~ 2.8e3 at v = 1/2; the kernel leaves the
    # decision to warn, raise or ignore to the caller.
    p = EvalPoint(1e4, 0.5)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            evaluate("D1-exp", p)
    with np.errstate(over="ignore"):
        assert evaluate("D1-exp", p) == np.inf


def test_deformed_entries_tighten_as_r_grows():
    p = EvalPoint(0.4, 0.3)
    uppers = [evaluate("C33-expr", p, DeformParam(r)) for r in (0.1, 0.5, 1.0)]
    assert uppers[0] >= uppers[1] >= uppers[2]
    assert evaluate("C33-expr", p) == uppers[2]
    lowers = [evaluate("C38-lo", p, DeformParam(r)) for r in (-1.0, -0.5, -0.1)]
    assert lowers[0] >= lowers[1] >= lowers[2]
    assert evaluate("C38-lo", p) == lowers[0]


def test_grid_evaluation_matches_pointwise():
    t = np.geomspace(0.1, 1.0, 9)
    v = np.linspace(0.0, 1.0, 7)
    grid = evaluate_grid("FM-M", t[:, None], v[None, :])
    assert grid.shape == (9, 7)
    for i, ti in enumerate(t):
        for j, vj in enumerate(v):
            assert grid[i, j] == evaluate("FM-M", EvalPoint(float(ti), float(vj)))


def test_certify_point_upper_margin():
    cert = certify_point("T36-hi-ge1", EvalPoint(2.0, 0.5))
    assert cert.holds and cert.tol == 1e-12
    assert cert.margin == pytest.approx(0.064339828220178713, rel=1e-13)
    assert cert.margin == cert.bound_value - cert.ratio_value


def test_certify_point_lower_margin():
    cert = certify_point("K-lower", EvalPoint(0.5, 0.5))
    assert cert.holds
    assert cert.bound_value == pytest.approx(1.0606601717798213, rel=1e-14)
    assert cert.margin == cert.ratio_value - cert.bound_value


def test_certify_point_degenerate_at_one():
    cert = certify_point("K-lower", EvalPoint(1.0, 0.5))
    assert cert.ratio_value == 1.0 and cert.bound_value == 1.0
    assert cert.margin == 0.0 and cert.holds


@pytest.mark.parametrize("tol", [np.nan, -1.0, -1e-300, np.inf, -np.inf])
def test_certify_point_rejects_invalid_tolerance(tol):
    # nan made every point fail and inf made every point hold, whatever the
    # margin; each is an input error, not a verdict.
    with pytest.raises(DomainError, match="tol"):
        certify_point("T31-poly", EvalPoint(2.0, 0.5), tol=tol)


def test_certify_point_accepts_zero_tolerance():
    cert = certify_point("T31-poly", EvalPoint(2.0, 0.5), tol=0.0)
    assert cert.holds and cert.tol == 0.0


@given(st.sampled_from(EXPECTED_IDS), st.data())
@relaxed
def test_entries_bound_the_ratio_on_their_regions(bid, data):
    spec = get_bound(bid)
    u = data.draw(REGION_LOG_T[spec.region])
    v = data.draw(st.floats(0.0, 1.0))
    cert = certify_point(bid, EvalPoint(10.0**u, v))
    assert cert.margin >= -1e-12


@given(st.floats(-3.0, 3.0), st.floats(0.0, 1.0))
@relaxed
def test_polynomial_upper_bound_dominates_exponential(u, v):
    p = EvalPoint(10.0**u, v)
    assert evaluate("T31-poly", p) <= evaluate("D1-exp", p) + 1e-12


def test_polynomial_upper_bound_at_half_is_kantorovich():
    for t in np.geomspace(1e-3, 1e3, 211):
        poly = evaluate("T31-poly", EvalPoint(float(t), 0.5))
        assert poly == pytest.approx(kantorovich(float(t)), rel=1e-14)


@given(st.floats(-3.0, 3.0))
@relaxed
def test_power_bounds_collapse_to_ratio_at_half(u):
    p = EvalPoint(10.0**u, 0.5)
    r = young_ratio(p)
    assert evaluate("K-upper", p) == pytest.approx(r, rel=1e-12)
    assert evaluate("K-lower", p) == pytest.approx(r, rel=1e-12)


def test_tightest_selects_best_entry():
    bid, value = tightest(UPPER, EvalPoint(0.25, 0.25))
    assert bid == "FM-M"
    assert value == pytest.approx(1.2983106733130747, rel=1e-13)
    bid, value = tightest(LOWER, EvalPoint(0.5, 0.5))
    assert bid == "K-lower"
    assert value == pytest.approx(1.0606601717798213, rel=1e-14)


def test_tightest_tie_at_one_prefers_catalog_order():
    assert tightest(UPPER, EvalPoint(1.0, 0.4)) == ("D1-exp", 1.0)
    assert tightest(LOWER, EvalPoint(1.0, 0.4)) == ("K-lower", 1.0)


def test_tightest_rejects_unknown_side():
    with pytest.raises(DomainError):
        tightest("middle", EvalPoint(1.0, 0.5))


@given(st.floats(-3.0, 3.0), st.floats(0.0, 1.0))
@relaxed
def test_tightest_envelope_brackets_ratio(u, v):
    p = EvalPoint(10.0**u, v)
    _, hi = tightest(UPPER, p)
    _, lo = tightest(LOWER, p)
    r = young_ratio(p)
    assert lo <= r + 1e-12
    assert r <= hi + 1e-12


def test_chain_at_one_is_exactly_flat():
    links = chain_check(EvalPoint(1.0, 0.3))
    assert [link.claim for link in links] == [
        "D2-lo-le1 <= FM-m",
        "FM-m <= ratio",
        "ratio <= FM-M",
        "FM-M <= D2-hi-le1",
        "T36-lo-le1 <= FM-m",
        "FM-M <= T36-hi-le1",
    ]
    assert [link.margin for link in links] == [0.0] * 6


def test_chain_rejects_t_above_one():
    with pytest.raises(RegionError):
        chain_check(EvalPoint(1.5, 0.5))


@given(st.floats(-3.0, 0.0), st.floats(0.0, 1.0))
@relaxed
def test_chain_margins_nonnegative(u, v):
    for link in chain_check(EvalPoint(10.0**u, v)):
        assert link.margin >= -1e-12, link.claim


def test_ratio_computed_once_per_point(monkeypatch):
    calls = []
    kernel = scalar._ratio

    def counting(t, v):
        calls.append((t, v))
        return kernel(t, v)

    monkeypatch.setattr(scalar, "_ratio", counting)
    p = EvalPoint(0.3, 0.4)
    certs = [certify_point(s.id, p) for s in list_bounds() if s.region != T_GE_1]
    links = chain_check(p)
    assert calls == [(0.3, 0.4)]
    assert len(certs) == 13 and len(links) == 6
    assert {c.ratio_value for c in certs} == {young_ratio(p)} == {kernel(0.3, 0.4)}


def test_cached_ratio_is_not_part_of_point_identity():
    used = EvalPoint(0.3, 0.4)
    assert used.ratio > 1.0
    fresh = EvalPoint(0.3, 0.4)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == "EvalPoint(t=0.3, v=0.4)"
    assert {used: 1}[fresh] == 1


# Reference kernels: every entry's formula written out on its own, apart
# from the family rows the catalog builds them from.  The catalog must give
# the same bits, in grids and at points.
def _ref_exp(x):
    with np.errstate(over="ignore"):
        return np.exp(x)


def _ref_sq(t):
    return (t - 1.0) * (t - 1.0)


def _ref_inv_sq(t):
    return (1.0 / t - 1.0) * (1.0 / t - 1.0)


REFERENCE = {
    "D1-exp": lambda t, v, r: _ref_exp(v * (1.0 - v) * scalar._identity_arg(t)),
    "K-upper": lambda t, v, r: scalar._pow(scalar._kantorovich(t), np.maximum(v, 1.0 - v)),
    "K-lower": lambda t, v, r: scalar._pow(scalar._kantorovich(t), np.minimum(v, 1.0 - v)),
    "D2-lo-le1": lambda t, v, r: _ref_exp(0.5 * v * (1.0 - v) * _ref_sq(t)),
    "D2-hi-le1": lambda t, v, r: _ref_exp(0.5 * v * (1.0 - v) * _ref_inv_sq(t)),
    "D2-lo-ge1": lambda t, v, r: _ref_exp(0.5 * v * (1.0 - v) * _ref_inv_sq(t)),
    "D2-hi-ge1": lambda t, v, r: _ref_exp(0.5 * v * (1.0 - v) * _ref_sq(t)),
    "FM-m": lambda t, v, r: (1.0 + 0.5 * v * (1.0 - v) * _ref_sq(t)
                             * scalar._pow(0.5 * (t + 1.0), -v - 1.0)),
    "FM-M": lambda t, v, r: 1.0 + 0.5 * v * (1.0 - v) * _ref_sq(t) * scalar._pow(t, -v - 1.0),
    "T31-poly": lambda t, v, r: 1.0 + v * (1.0 - v) * scalar._identity_arg(t),
    "C33-expr": lambda t, v, r: scalar._dexp(r, v * (1.0 - v) * scalar._identity_arg(t)),
    "T36-lo-le1": lambda t, v, r: 1.0 / (1.0 - 0.5 * v * (1.0 - v) * _ref_sq(t)),
    "T36-hi-le1": lambda t, v, r: 1.0 + 0.5 * v * (1.0 - v) * _ref_inv_sq(t),
    "T36-lo-ge1": lambda t, v, r: 1.0 / (1.0 - 0.5 * v * (1.0 - v) * _ref_inv_sq(t)),
    "T36-hi-ge1": lambda t, v, r: 1.0 + 0.5 * v * (1.0 - v) * _ref_sq(t),
    "C38-lo": lambda t, v, r: scalar._dexp(r, 0.5 * v * (1.0 - v) * (
        (1.0 - np.minimum(1.0, t) / np.maximum(1.0, t))
        * (1.0 - np.minimum(1.0, t) / np.maximum(1.0, t)))),
    "C38-hi": lambda t, v, r: scalar._dexp(r, 0.5 * v * (1.0 - v) * (
        (1.0 - np.maximum(1.0, t) / np.minimum(1.0, t))
        * (1.0 - np.maximum(1.0, t) / np.minimum(1.0, t)))),
}

# Caller-chosen r per deformed entry, the ends of each interval included;
# 1e-23 is below the switch to the exponential limit, 1e-11 above it.
CALLER_R = {
    "C33-expr": (1e-23, 1e-11, 0.25, 0.5, 1.0),
    "C38-lo": (-1.0, -0.5, -1e-11, -1e-23),
    "C38-hi": (1e-23, 1e-11, 0.5, 1.0),
}

# Each difference minus the reference it is built from.
REFERENCE_PAIRS = {
    "diff-l": ("K-upper", "D1-exp"),
    "diff-u1": ("K-upper", "T31-poly"),
    "diff-u2": ("K-upper", "T36-hi-le1"),
    "diff-u3": ("K-upper", "T36-hi-ge1"),
    "diff-l1": ("K-lower", "T36-lo-le1"),
    "diff-l2": ("K-lower", "T36-lo-ge1"),
}


def _oracle_grid(region):
    """Seeded (t column, v row) inside a region, with its edge values."""
    rng = np.random.default_rng(7)
    lo, hi = {ALL_T: (-300.0, 308.0), T_LE_1: (-300.0, 0.0), T_GE_1: (0.0, 308.0)}[region]
    t = 10.0 ** rng.uniform(lo, hi, 60)
    edges = {ALL_T: [1e-300, 1e-6, 1.0, 1e154, 1.4e154, 1e200, 1.7e308],
             T_LE_1: [1e-300, 1e-154, 1e-6, 0.5, 1.0],
             T_GE_1: [1.0, 2.0, 1e6, 1e154, 1.4e154, 1e200, 1.7e308]}[region]
    t = np.concatenate([edges, t, 10.0 ** rng.uniform(-2.0, 2.0, 40)])
    t = t[(t <= 1.0) if region == T_LE_1 else (t >= 1.0) if region == T_GE_1 else t > 0.0]
    v = np.concatenate([[0.0, 0.5, 1.0], rng.random(12)])
    return t[:, None], v[None, :]


def _bits(x):
    return float(x).hex()


def test_reference_oracle_covers_the_catalog():
    assert tuple(REFERENCE) == EXPECTED_IDS
    assert {s.id for s in list_bounds() if s.deform is not None} == set(CALLER_R)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bid", EXPECTED_IDS)
def test_grid_values_equal_the_reference_bitwise(bid):
    spec = get_bound(bid)
    t, v = _oracle_grid(spec.region)
    default_r = spec.deform.r if spec.deform is not None else None
    cases = [(None, default_r)] + [(DeformParam(r), r) for r in CALLER_R.get(bid, ())]
    for deform, r in cases:
        got = evaluate_grid(bid, t, v, deform)
        with np.errstate(all="ignore"):
            want = np.broadcast_to(REFERENCE[bid](t, v, r), got.shape)
        assert got.shape == (t.size, v.size)
        assert got.tobytes() == want.tobytes(), (bid, r)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bid", EXPECTED_IDS)
def test_point_values_equal_the_reference_bitwise(bid):
    spec = get_bound(bid)
    t, v = _oracle_grid(spec.region)
    default_r = spec.deform.r if spec.deform is not None else None
    cases = [(None, default_r)] + [(DeformParam(r), r) for r in CALLER_R.get(bid, ())]
    for ti in t[::3, 0].tolist():
        for vj in v[0, ::2].tolist():
            p = EvalPoint(ti, vj)
            for deform, r in cases:
                want = _bits(REFERENCE[bid](ti, vj, r))
                assert _bits(evaluate(bid, p, deform)) == want, (bid, p, r)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("diff_id", REFERENCE_PAIRS)
def test_differences_are_k_minus_the_reference_bitwise(diff_id):
    lhs, rhs = REFERENCE_PAIRS[diff_id]
    diff = verify._DIFF_BY_ID[diff_id]
    assert diff.region == get_bound(rhs).region
    t, v = _oracle_grid(diff.region)
    with np.errstate(all="ignore"):
        want = REFERENCE[lhs](t, v, None) - REFERENCE[rhs](t, v, None)
        got = np.broadcast_to(diff.kernel(t, v, None), want.shape)
    assert got.tobytes() == want.tobytes()
    for ti in t[::3, 0].tolist():
        for vj in v[0, ::2].tolist():
            point = REFERENCE[lhs](ti, vj, None) - REFERENCE[rhs](ti, vj, None)
            assert _bits(eval_diff(diff_id, EvalPoint(ti, vj))) == _bits(point), (diff_id, ti, vj)


def test_reciprocal_entries_raise_off_their_regions():
    # Evaluated off its half-line the reciprocal's denominator reaches 0 and
    # below; evaluate_grid (region unchecked) raises rather than return inf.
    v = np.array([0.5])
    with pytest.raises(DomainError, match="nonpositive"):
        evaluate_grid("T36-lo-le1", np.array([0.5, 10.0]), v)
    with pytest.raises(DomainError, match="nonpositive"):
        evaluate_grid("T36-lo-ge1", np.array([2.0, 0.1]), v)
