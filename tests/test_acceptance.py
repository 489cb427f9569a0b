"""Acceptance gate: seven end-to-end criteria, one PASS/FAIL line each.

The per-criterion lines are printed outside pytest's capture so a plain
``pytest -v`` run always shows them.  Criteria with runtime limits record
their timings for the closing desk-scale summary.
"""

import json
import math
import time

import numpy as np

from youngbounds import (
    DeformParam,
    EvalPoint,
    Region,
    SandwichSpec,
    bound_ids,
    certify_corollary_one,
    certify_corollary_two,
    chain_check,
    deformed_exp,
    evaluate_grid,
    get_bound,
    kantorovich,
    kantorovich_identity_arg,
    loewner_leq,
    sweep,
    weighted_arithmetic,
    weighted_geometric,
)
from youngbounds.catalog import ALL_T, T_GE_1, T_LE_1
from youngbounds.cli import main as cli_main

from sandwich_pairs import random_sandwich_pair

WINDOWS = {ALL_T: (1e-3, 1e3), T_LE_1: (1e-3, 1.0), T_GE_1: (1.0, 1e3)}

# Timings recorded by the timed criteria, consumed by criterion 7.
RECORDS = {}


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {n}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_reference_table(capsys):
    start = time.perf_counter()
    code = cli_main(["remarks"])
    elapsed = time.perf_counter() - start
    env = json.loads(capsys.readouterr().out)
    rows = env["results"]["rows"]
    max_err = env["results"]["max_abs_error"]
    RECORDS[1] = elapsed
    ok = code == 0 and len(rows) == 15 and max_err <= 1e-6 and elapsed < 1.0
    _report(capsys, 1, ok,
            f"{len(rows)} reference rows, max abs error {max_err:.3g} "
            f"(tol 1e-06), {elapsed:.2f}s")
    assert code == 0
    assert len(rows) == 15
    assert max_err <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_full_catalog_sweeps(capsys):
    start = time.perf_counter()
    violations = 0
    points = 0
    worst_id, worst = None, math.inf
    for bid in bound_ids():
        lo, hi = WINDOWS[get_bound(bid).region]
        report = sweep(bid, Region(lo, hi, 0.0, 1.0, "log", 200, 101), tol=1e-12)
        violations += report.n_violations
        points += report.n_points
        if report.min_margin < worst:
            worst_id, worst = bid, report.min_margin
    elapsed = time.perf_counter() - start
    RECORDS[2] = elapsed
    ok = violations == 0 and elapsed < 10.0
    _report(capsys, 2, ok,
            f"17 bounds x {points // 17} points, {violations} violations, "
            f"worst margin {worst:.3g} ({worst_id}), {elapsed:.2f}s")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_3_ordering_chain_random_points(capsys):
    rng = np.random.default_rng(20260811)
    worst_claim, worst = None, math.inf
    # Near t = 1e-3, D2-hi-le1's exp overflows to inf, a link that holds.
    with np.errstate(over="ignore"):
        for _ in range(10_000):
            p = EvalPoint(10.0 ** rng.uniform(-3.0, 0.0), rng.uniform(0.0, 1.0))
            for link in chain_check(p):
                if link.margin < worst:
                    worst_claim, worst = link.claim, link.margin
    ok = worst >= -1e-12
    _report(capsys, 3, ok,
            f"six chain links at 10^4 random points, worst margin "
            f"{worst:.3g} ({worst_claim})")
    assert worst >= -1e-12


def test_criterion_4_deformation_monotonicity(capsys):
    rng = np.random.default_rng(20260807)
    worst = math.inf
    for k in range(1_000):
        kind = k % 5
        if kind < 2:
            # positive arguments, positive deformations
            x = 10.0 ** rng.uniform(-3.0, 1.0)
            r1, r2 = np.sort(rng.uniform(1e-6, 1.0, 2))
        elif kind < 4:
            # unit-interval arguments, negative deformations
            x = rng.uniform(0.0, 1.0)
            r1, r2 = np.sort(rng.uniform(-1.0, -1e-6, 2))
        else:
            # mixed pair straddling the classical limit
            x = rng.uniform(0.0, 1.0)
            r1 = rng.uniform(-1.0, -1e-6)
            r2 = rng.uniform(1e-6, 1.0)
        larger = deformed_exp(DeformParam(float(r1)), x)
        smaller = deformed_exp(DeformParam(float(r2)), x)
        assert larger >= smaller - 1e-12, (x, r1, r2)
        if math.isfinite(larger):
            worst = min(worst, larger - smaller)
    ok = worst >= -1e-12
    _report(capsys, 4, ok,
            f"exp_r decreasing in r on 10^3 pairs, worst difference {worst:.3g}")
    assert ok


def test_criterion_5_dominance_and_identity(capsys):
    tg = np.geomspace(1e-3, 1e3, 200)
    vg = np.linspace(0.0, 1.0, 101)
    gap = (evaluate_grid("D1-exp", tg[:, None], vg[None, :])
           - evaluate_grid("T31-poly", tg[:, None], vg[None, :]))
    min_gap = float(gap.min())

    half_rel = 0.0
    id_rel = 0.0
    for t in tg:
        t = float(t)
        poly = 1.0 + 0.25 * kantorovich_identity_arg(t)
        k = kantorovich(t)
        half_rel = max(half_rel, abs(poly - k) / max(abs(poly), abs(k)))
        a = kantorovich_identity_arg(t)
        b = 4.0 * (k - 1.0)
        id_rel = max(id_rel, abs(a - b) / max(1.0, abs(a), abs(b)))

    ok = min_gap >= -1e-12 and half_rel <= 1e-14 and id_rel <= 1e-14
    _report(capsys, 5, ok,
            f"poly <= exp everywhere (min gap {min_gap:.3g}), v=1/2 matches K "
            f"(rel {half_rel:.3g}), identity rel {id_rel:.3g}")
    assert min_gap >= -1e-12
    assert half_rel <= 1e-14
    assert id_rel <= 1e-14


def test_criterion_6_operator_certificates(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(20260806)
    r_pos = (0.25, 0.5, 1.0)
    r_neg = (-1.0, -0.5, -0.25)
    n_fail = 0
    as_lo, as_hi = [], []
    for k in range(500):
        dim = k % 8 + 1
        case = "i" if k % 2 == 0 else "ii"
        commuting = (k // 2) % 2 == 0
        v = (k % 11) / 10.0
        m = rng.uniform(0.5, 2.0)
        m_prime = m * rng.uniform(1.0, 1.5)
        M_prime = m_prime * rng.uniform(1.05, 3.0)
        M = M_prime * rng.uniform(1.0, 2.0)
        s = SandwichSpec(m, m_prime, M_prime, M, case)
        A, B = random_sandwich_pair(s, dim, rng, commuting=commuting)

        young_ok, _ = loewner_leq(
            weighted_geometric(A, B, v), weighted_arithmetic(A, B, v), tol=1e-10
        )
        one = certify_corollary_one(A, B, v, r_pos[k % 3], s, tol=1e-10)
        ext_lo, ext_hi = certify_corollary_two(
            A, B, v, r_neg[k % 3], r_pos[(k + 1) % 3], s, "interval-extremal", tol=1e-10
        )
        if not (young_ok and one.holds and ext_lo.holds and ext_hi.holds):
            n_fail += 1

        stated_lo, stated_hi = certify_corollary_two(
            A, B, v, r_neg[k % 3], r_pos[(k + 1) % 3], s, "as-stated", tol=1e-10
        )
        as_lo.append(stated_lo.min_eigen_margin)
        as_hi.append(stated_hi.min_eigen_margin)
    elapsed = time.perf_counter() - start
    RECORDS[6] = elapsed

    as_lo, as_hi = np.array(as_lo), np.array(as_hi)
    with capsys.disabled():
        print(f"\n[acceptance 6] finding: as-stated lower margins min "
              f"{as_lo.min():.4g}, {int((as_lo < -1e-10).sum())}/500 below -1e-10")
        print(f"[acceptance 6] finding: as-stated upper margins min "
              f"{as_hi.min():.4g}, {int((as_hi < -1e-10).sum())}/500 below -1e-10")
    ok = n_fail == 0 and elapsed < 30.0
    _report(capsys, 6, ok,
            f"500 sandwich instances (dims 1-8): Young, one-parameter and "
            f"interval-extremal certificates all hold, {elapsed:.1f}s")
    assert n_fail == 0
    assert elapsed < 30.0


def test_criterion_7_desk_scale_summary(capsys):
    limits = {1: 1.0, 2: 10.0, 6: 30.0}
    recorded = dict(RECORDS)
    ok = all(recorded[n] < limits[n] for n in recorded)
    if recorded:
        timing = ", ".join(f"criterion {n}: {recorded[n]:.2f}s" for n in sorted(recorded))
    else:
        timing = "no timed criteria ran in this session"
    _report(capsys, 7, ok,
            f"entire evidence base reruns at desk scale ({timing}); "
            f"no larger computation exists to reproduce")
    for n, elapsed in recorded.items():
        assert elapsed < limits[n]
