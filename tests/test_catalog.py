"""Catalog checks: census, evaluation, certificates, envelopes, the chain,
and a reference kernel per entry that the catalog must match bit for bit."""

import copy
import dataclasses
import inspect
import pickle

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
from youngbounds import catalog, operators, scalar, verify
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
    # R is a row of the comparisons, not a catalog entry.
    assert "ratio" not in bound_ids()
    for bid in ("nope", "ratio"):
        with pytest.raises(UnknownBoundError):
            get_bound(bid)


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
    for bid in ("nope", "ratio"):
        with pytest.raises(UnknownBoundError):
            evaluate(bid, p_le)
        with pytest.raises(UnknownBoundError):
            certify_point(bid, p_le)
        with pytest.raises(UnknownBoundError):
            verify.sweep(bid, verify.Region(0.1, 10.0, 0.0, 1.0))
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


# Each grid read a number where a point query raises: -11.0, -3.5, 0.3247,
# 0.0 and NaN before evaluate_grid checked its domain.
@pytest.mark.parametrize("bid, t, v, quoted", [
    ("FM-M", 0.5, 3.0, "v must lie in [0, 1], got 3.0"),
    ("T31-poly", 4.0, 2.0, "v must lie in [0, 1], got 2.0"),
    ("D1-exp", -2.0, 0.5, "t must be a finite positive real, got -2.0"),
    ("K-upper", -1.0, 0.5, "t must be a finite positive real, got -1.0"),
    ("D1-exp", np.nan, 0.5, "t must be a finite positive real, got nan"),
], ids=["FM-M-v=3", "T31-poly-v=2", "D1-exp-t=-2", "K-upper-t=-1", "D1-exp-t=nan"])
def test_grid_evaluation_checks_the_domain_as_a_point_does(bid, t, v, quoted):
    for query in (lambda: evaluate_grid(bid, t, v), lambda: EvalPoint(t, v)):
        with pytest.raises(DomainError) as raised:
            query()
        assert str(raised.value) == quoted


def test_grid_evaluation_checks_every_value_of_each_operand():
    t, v = np.geomspace(0.1, 10.0, 5), np.linspace(0.0, 1.0, 5)
    for bad in (0.0, -0.0, -5e-324, np.inf, np.nan):
        worse = t.copy()
        worse[2] = bad
        with pytest.raises(DomainError, match="^t must be a finite positive real"):
            evaluate_grid("D1-exp", worse[:, None], v[None, :])
    for bad in (-5e-324, np.nextafter(1.0, 2.0), np.inf, np.nan):
        worse = v.copy()
        worse[2] = bad
        with pytest.raises(DomainError, match=r"^v must lie in \[0, 1\]"):
            evaluate_grid("D1-exp", t[:, None], worse[None, :])
    # An empty operand passes its check, and the result is empty.
    assert evaluate_grid("D1-exp", t[:0, None], v[None, :]).shape == (0, 5)
    assert evaluate_grid("K-lower", 2.0, v[:0]).shape == (0,)


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
    upper, hi = tightest(UPPER, p)
    lower, lo = tightest(LOWER, p)
    assert "ratio" not in (upper, lower)
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
    _profile(used, 0.7)  # fills the row memo too
    # 13 in-region rows, C33-expr at diff-ropt's r, and R.
    assert len(used._rows) == 15
    fresh = EvalPoint(0.3, 0.4)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == "EvalPoint(t=0.3, v=0.4)"
    assert {used: 1}[fresh] == 1
    assert [f.name for f in dataclasses.fields(EvalPoint)] == ["t", "v"]


# The point-path records: a class, its field names and one instance's values.
_RECORDS = {
    "EvalPoint": (EvalPoint, ("t", "v"), (0.3, 0.4)),
    "Certificate": (catalog.Certificate,
                    ("bound_id", "point", "ratio_value", "bound_value", "margin", "holds", "tol"),
                    ("T31-poly", EvalPoint(4.0, 0.5), 1.25, 1.5625, 0.3125, True, 1e-12)),
    "ChainLink": (catalog.ChainLink, ("claim", "margin"), ("FM-m <= ratio", 0.25)),
    "RemarkRow": (verify.RemarkRow, ("label", "paper_value", "computed", "abs_error"),
                  ("l(1/2,1/5)", 0.0155215, 0.01552151, 1e-8)),
    "SweepReport": (verify.SweepReport,
                    ("bound_id", "n_points", "n_violations", "min_margin", "argmin_point"),
                    ("K-upper", 4, 0, 0.0, EvalPoint(1.0, 0.5))),
    "NonOrderingWitness": (verify.NonOrderingWitness,
                           ("diff_id", "point_pos", "point_neg", "value_pos", "value_neg",
                            "delta"),
                           ("diff-l", EvalPoint(0.5, 0.2), EvalPoint(5.0, 0.2), 0.0155,
                            -0.0683, 1e-3)),
    "OperatorCertificate": (operators.OperatorCertificate,
                            ("claim_id", "scalar_factor", "min_eigen_margin", "holds",
                             "variant", "tol"),
                            ("corollary-two-upper", 1.25, 0.0625, True, "as-stated", 1e-10)),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_point_path_records_are_frozen_dataclasses(name):
    cls, names, values = _RECORDS[name]
    assert [f.name for f in dataclasses.fields(cls)] == list(names)
    assert tuple(cls.__dataclass_fields__) == names
    # one positional-or-keyword parameter per field, in field order, no defaults
    parameters = inspect.signature(cls).parameters.values()
    assert [p.name for p in parameters] == list(names)
    assert {(p.kind, p.default) for p in parameters} == {
        (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)}
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert hash(record) == hash(cls(*values))
    assert dataclasses.astuple(record) == dataclasses.astuple(cls(*values))
    assert [getattr(record, n) for n in names] == list(values)
    assert repr(record) == f"{name}({', '.join(f'{n}={x!r}' for n, x in zip(names, values))})"
    for n in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, n, values[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, n)
    copy = dataclasses.replace(record, **{names[-1]: 0.5})
    assert copy != record and getattr(copy, names[-1]) == 0.5
    assert dataclasses.replace(copy, **{names[-1]: values[-1]}) == record
    restored = pickle.loads(pickle.dumps(record))
    assert restored == record and repr(restored) == repr(record)
    with pytest.raises(TypeError):
        cls(*values[:-1])


def test_an_eval_point_admits_t_then_v_and_replace_starts_a_fresh_memo():
    with pytest.raises(DomainError, match=r"^t must be a finite positive real, got 0$"):
        EvalPoint(0, 2.0)
    with pytest.raises(DomainError, match=r"^v must lie in \[0, 1\], got 2\.0$"):
        EvalPoint(v=2.0, t=1.0)
    p = EvalPoint(t=np.float32(0.5), v=1)
    assert type(p.t) is type(p.v) is float and (p.t, p.v) == (0.5, 1.0)
    used = EvalPoint(0.3, 0.4)
    value = evaluate("D1-exp", used)
    same = dataclasses.replace(used)
    assert same == used and same._rows == {} and used._rows
    assert evaluate("D1-exp", same) == value
    with pytest.raises(DomainError, match="^t must be"):
        dataclasses.replace(used, t=-1.0)
    # A pickled point keeps working as a point.
    restored = pickle.loads(pickle.dumps(used))
    assert restored == used and evaluate("D1-exp", restored) == value
    assert evaluate("K-upper", restored) == evaluate("K-upper", EvalPoint(0.3, 0.4))


def _count_kernel_calls(monkeypatch):
    """Wrap every row's kernel, R's included; returns the list of (row id, r) calls."""
    calls = []
    for row in (*catalog._CATALOG, scalar._R_ROW):
        def counting(t, v, r, bid=row.id, kernel=row.kernel):
            calls.append((bid, r))
            return kernel(t, v, r)
        monkeypatch.setattr(row, "kernel", counting)
    return calls


def _profile(p, r):
    """Every point query at p, as the benchmark's point profile makes them."""
    ids = [e.id for e in catalog._CATALOG if e.t_lo <= p.t <= e.t_hi]
    certs = [certify_point(bid, p) for bid in ids]
    values = [evaluate(bid, p) for bid in ids]
    best = tightest(UPPER, p), tightest(LOWER, p)
    links = chain_check(p) if p.t <= 1.0 else ()
    diffs = [eval_diff(d.id, p, r) for d in verify._DIFFS if d.t_lo <= p.t <= d.t_hi]
    return certs, values, best, links, diffs


@pytest.mark.parametrize("t, n_rows", [(0.3, 13), (1.0, 17), (4.0, 11)])
def test_each_row_is_evaluated_once_per_point(monkeypatch, t, n_rows):
    calls = _count_kernel_calls(monkeypatch)
    p = EvalPoint(t, 0.4)
    first = _profile(p, 0.7)
    assert _profile(p, 0.7) == first
    # Each in-region row at its default r, C33-expr at diff-ropt's r, and R.
    assert len(calls) == len(set(calls)) == n_rows + 2
    assert ("C33-expr", 0.7) in calls and ("C33-expr", 1.0) in calls
    # On a fresh point the chain reads its rows in the order of their first
    # read (each link's hi before its lo), then tightest reads each side's
    # in-region entries in catalog order: every kernel once.
    calls.clear()
    fresh = EvalPoint(t, 0.4)
    links = chain_check(fresh) if t <= 1.0 else ()
    best = tightest(UPPER, fresh), tightest(LOWER, fresh)
    chain = (["FM-m", "D2-lo-le1", "ratio", "FM-M", "D2-hi-le1", "T36-lo-le1", "T36-hi-le1"]
             if t <= 1.0 else [])
    sides = [e.id for side in (UPPER, LOWER) for e in catalog._CATALOG
             if e.spec.side == side and e.t_lo <= t <= e.t_hi and e.id not in chain]
    assert [bid for bid, _ in calls] == chain + sides
    assert (links, best) == (first[3], first[2])
    # tightest alone on a fresh point reads every in-region entry of its side.
    calls.clear()
    assert (tightest(UPPER, EvalPoint(t, 0.4)), tightest(LOWER, EvalPoint(t, 0.4))) == best
    assert [bid for bid, _ in calls] == [e.id for side in (UPPER, LOWER) for e in catalog._CATALOG
                                         if e.spec.side == side and e.t_lo <= t <= e.t_hi]


def _copied(p, how):
    if how == "copy":
        return copy.copy(p)
    if how == "deepcopy":
        return copy.deepcopy(p)
    return pickle.loads(pickle.dumps(p, protocol=int(how.removeprefix("pickle-"))))


@pytest.mark.parametrize("how", [f"pickle-{k}" for k in range(6)] + ["copy", "deepcopy"])
def test_a_point_with_kept_values_survives_pickle_and_copy(monkeypatch, how):
    used = EvalPoint(0.3, 0.4)
    kept = {("D1-exp", None): evaluate("D1-exp", used),
            ("C33-expr", 0.7): evaluate("C33-expr", used, 0.7),
            ("ratio", None): used.ratio}
    same = _copied(used, how)
    assert same == used and type(same._rows) is type(used._rows) and same._rows == kept
    # Its kept values are read, not computed again.
    calls = _count_kernel_calls(monkeypatch)
    assert evaluate("D1-exp", same) == kept["D1-exp", None]
    cert = certify_point("C33-expr", same, 0.7)
    assert (cert.bound_value, cert.ratio_value) == (kept["C33-expr", 0.7], kept["ratio", None])
    assert calls == []
    # A new row is evaluated at the copy's own (t, v), once.
    assert evaluate("K-upper", same) == evaluate("K-upper", EvalPoint(0.3, 0.4))
    assert evaluate("K-upper", same) == same._rows["K-upper", None]
    assert calls == [("K-upper", None)] * 2
    # A shallow copy shares the memo, as it shares every attribute; the
    # others own theirs, and the original keeps only its own values.
    assert (same._rows is used._rows) == (how == "copy")
    assert used._rows == (same._rows if how == "copy" else kept)


def test_a_chain_row_that_raised_keeps_nothing():
    # FM-M's t^(-v-1) overflows at t = 1e-300; the three rows read before it
    # are kept, FM-M is not, and the next chain_check raises again.
    p = EvalPoint(1e-300, 0.5)
    for _ in range(2):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            chain_check(p)
        assert list(p._rows) == [("FM-m", None), ("D2-lo-le1", None), ("ratio", None)]
    with np.errstate(over="ignore"):
        assert len(chain_check(p)) == 6
    assert len(p._rows) == 7


def test_a_row_at_two_r_is_two_values():
    p = EvalPoint(1e-6, 0.999999)
    ropt = eval_diff("diff-ropt", p, 1.001)
    c33 = evaluate("C33-expr", p)
    assert set(p._rows) == {("C33-expr", 1.001), ("ratio", None), ("C33-expr", 1.0)}
    assert ropt < 0.0 < c33 - p.ratio
    fresh = EvalPoint(1e-6, 0.999999)
    assert evaluate("C33-expr", fresh) == c33
    assert eval_diff("diff-ropt", fresh, 1.001) == ropt
    # diff-ropt at r = 1 reads C33-expr's default value.
    assert eval_diff("diff-ropt", p, 1.0) == c33 - p.ratio
    assert len(p._rows) == 3


def test_an_equal_point_computes_its_values_again(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    a, b = EvalPoint(2.0, 0.3), EvalPoint(2.0, 0.3)
    assert a == b
    assert evaluate("D1-exp", a) == evaluate("D1-exp", b) == evaluate("D1-exp", a)
    assert calls == [("D1-exp", None)] * 2


def test_a_query_that_raised_keeps_nothing():
    # exp overflows past t ~ 2.8e3 at v = 1/2.
    p = EvalPoint(1e4, 0.5)
    for _ in range(2):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            evaluate("D1-exp", p)
    assert p._rows == {}
    # exp_r's domain: 1 + r x < 0 at r = -5 raises, twice.
    for _ in range(2):
        with pytest.raises(DomainError, match="exp_r undefined"):
            eval_diff("diff-ropt", p, -5.0)
    assert p._rows == {}
    # diff-l is K-upper - D1-exp: K-upper completes and is kept, D1-exp raises, twice.
    for _ in range(2):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            eval_diff("diff-l", p)
    assert list(p._rows) == [("K-upper", None)]
    # The first query that completes decides: its value is kept and read.
    with np.errstate(over="ignore"):
        assert evaluate("D1-exp", p) == np.inf
    with np.errstate(over="raise"):
        assert evaluate("D1-exp", p) == np.inf


def test_every_row_is_one_formula():
    # The 17 rows differ only in their pieces: one kernel code object and one
    # plan code object serve them all.
    assert len(catalog._CATALOG) == 17
    assert len({e.kernel.__code__ for e in catalog._CATALOG}) == 1
    assert len({e.plan.__code__ for e in catalog._CATALOG}) == 1


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
    edges = {ALL_T: [5e-324, 1e-300, 1e-6, 1.0, 1e154, 1.4e154, 1e200, 1.7e308],
             T_LE_1: [5e-324, 1e-300, 1e-154, 1e-6, 0.5, 1.0],
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


@pytest.mark.parametrize("bid", ["K-upper", "K-lower"])
def test_k_power_point_weight_equals_its_grid_weight_bitwise(bid):
    # A point picks the weight with builtin max/min, a grid with
    # np.maximum/np.minimum.
    edges = [-0.0, 0.0, 5e-324, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
             1.0 - 2.0**-53, 1.0]
    v = np.concatenate([np.linspace(0.0, 1.0, 100_001), edges])
    t = np.random.default_rng(3).permutation(np.geomspace(1e-6, 1e6, v.size))
    grid = evaluate_grid(bid, t, v)
    points = [evaluate(bid, EvalPoint(ti, vi)) for ti, vi in zip(t.tolist(), v.tolist())]
    assert np.array(points).tobytes() == grid.tobytes()


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


# The point profile's edge points, t in {1e-9, 1, 1e9} and v in {0, 1/2, 1}, and an inner v.
EDGE_POINTS = [(t, v) for t in (1e-9, 1.0, 1e9) for v in (0.0, 0.5, 1.0, 0.3)]


@pytest.mark.parametrize("t, v", EDGE_POINTS)
def test_kept_values_equal_fresh_and_grid_values_bitwise(t, v):
    rows = [(e.id, r) for e in catalog._CATALOG if e.t_lo <= t <= e.t_hi
            for r in (None,) + CALLER_R.get(e.id, ())]
    diffs = [(d.id, r) for d in verify._DIFFS if d.t_lo <= t <= d.t_hi
             for r in ((0.7, 1.001, 1.0) if d.needs_r else (None,))]
    grid_t, grid_v = np.array([t]), np.array([v])

    # R is one more row, read the three public ways.
    def values(point):
        return ([_bits(evaluate(bid, point(), r)) for bid, r in rows]
                + [_bits(eval_diff(did, point(), r)) for did, r in diffs]
                + [_bits(point().ratio), _bits(young_ratio(point())),
                   _bits(certify_point("D1-exp", point()).ratio_value)])

    reused = EvalPoint(t, v)
    with np.errstate(all="ignore"):
        _profile(reused, 0.7)
        first = values(lambda: reused)
        kept = values(lambda: reused)
        fresh = values(lambda: EvalPoint(t, v))
        grid = ([_bits(evaluate_grid(bid, grid_t, grid_v, r)[0]) for bid, r in rows]
                + [_bits(verify._DIFF_BY_ID[did].kernel(grid_t, grid_v, r)[0]) for did, r in diffs]
                + [_bits(scalar._ratio(grid_t, grid_v)[0])] * 3)
    assert kept == first == fresh == grid


# Twins: rows whose kernels are one formula at every t > 0.  A half-line row
# reads its family's one square on both sides of 1, so off its region it is
# its other-half twin and, at the twins' r, its all-t family member.
TWINS = (
    (("D2-lo-le1", None), ("D2-lo-ge1", None), ("C38-lo", -1e-23)),
    (("D2-hi-le1", None), ("D2-hi-ge1", None), ("C38-hi", 1e-23)),
    (("T36-lo-le1", None), ("T36-lo-ge1", None), ("C38-lo", -1.0)),
    (("T36-hi-le1", None), ("T36-hi-ge1", None), ("C38-hi", 1.0)),
)


@pytest.mark.parametrize("twins", TWINS, ids=[row[0][0][:-4] for row in TWINS])
def test_half_line_rows_equal_their_twins_on_both_sides_bitwise(twins):
    rng = np.random.default_rng(11)
    edges = [5e-324, 1e-300, 0.25, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 4.0,
             1e300, np.finfo(float).max]
    t = np.concatenate([edges, 10.0 ** rng.uniform(-300.0, 300.0, 200)])
    v = np.concatenate([[0.0, 0.25, 0.5, 1.0], rng.random(11)])
    with np.errstate(all="ignore"):
        grids = [evaluate_grid(bid, t[:, None], v[None, :], r).tobytes() for bid, r in twins]
    assert grids[1:] == grids[:-1]


def _r_ends(spec):
    """A row's default r, and the ends of its r interval, or None for a fixed r."""
    if spec.deform is None:
        return (None,)
    ends = (5e-324, 1.0) if spec.side == UPPER else (-1.0, -5e-324)
    return (spec.deform.r,) + ends


@given(st.floats(-300.0, 300.0), st.floats(0.0, 1.0))
@relaxed
def test_no_row_raises_at_any_t(u, v):
    # Off its half-line a row is its twin, a bound valid for every t > 0, so
    # no 1 + r x falls below 0: on a grid (region unchecked) and on a float.
    t = 10.0 ** u
    with np.errstate(all="ignore"):
        for spec in list_bounds():
            for r in _r_ends(spec):
                evaluate_grid(spec.id, np.array([t]), np.array([v]), r)
                catalog._BY_ID[spec.id].kernel(t, v, r)


# Every all-t row, each r of a deformed one as (id, r).
SWAP_ROWS = [("D1-exp", None), ("K-upper", None), ("K-lower", None), ("T31-poly", None),
             ("C33-expr", 1.0), ("C33-expr", 0.5), ("C38-lo", -1.0), ("C38-lo", -0.5),
             ("C38-hi", 1.0), ("C38-hi", 0.5)]


# An all-t row is invariant under t -> 1/t and under v -> 1-v, so it takes
# one value at (t, v) and (1/t, 1-v), as R does.  v = k / 2^53 makes 1 - v
# exact.  The allowance, 1e-12 relative, covers a few ulps of the argument
# carried through exp: the worst over 200,000 draws was 2.3e-13 (D1-exp).
# Equal infinities (D1-exp overflows) are equal.  Past t ~ 1.34e154 one
# side's square overflows while the other's does not, so t stops at 1e150.
@pytest.mark.parametrize("bid, r", SWAP_ROWS)
@given(st.floats(-150.0, 150.0), st.integers(1, 2**53 - 1).map(lambda k: k / 2**53))
@settings(max_examples=300, deadline=None)
def test_all_t_rows_swap_symmetry(bid, r, u, v):
    t = 10.0**u
    with np.errstate(over="ignore"):
        a = evaluate(bid, EvalPoint(t, v), r)
        b = evaluate(bid, EvalPoint(1.0 / t, 1.0 - v), r)
    assert a == pytest.approx(b, rel=1e-12, abs=0.0)
