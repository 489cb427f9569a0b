"""Spot checks against a 50-digit mpmath recomputation.

The frozen constants in the other test modules came from offline runs of the
same formulas; these tests keep a live high-precision witness in the suite so
a regression in any kernel cannot hide behind a stale constant.  Inputs are
converted from the binary64 values the package actually evaluates at.
"""

import mpmath as mp
import numpy as np
import pytest

from youngbounds import (
    DeformParam,
    EvalPoint,
    HermitianMatrix,
    SandwichSpec,
    certify_corollary_one,
    certify_corollary_two,
    deformed_exp,
    eval_diff,
    evaluate,
    kantorovich,
    young_ratio,
)
from youngbounds.operators import _pencil

mp.mp.dps = 50


def _hp_ratio(t, v):
    t, v = mp.mpf(t), mp.mpf(v)
    return ((1 - v) + v * t) / t**v


def _hp_kantorovich(t):
    t = mp.mpf(t)
    return (t + 1) ** 2 / (4 * t)


def test_ratio_matches_high_precision():
    for t, v in ((0.5, 0.2), (4.0, 0.5), (1e-6, 0.999999), (123.456, 0.789)):
        assert young_ratio(EvalPoint(t, v)) == pytest.approx(
            float(_hp_ratio(t, v)), rel=1e-13
        )


def test_kantorovich_matches_high_precision():
    for t in (1e-3, 0.25, 0.5, 2.0, 977.0):
        assert kantorovich(t) == pytest.approx(float(_hp_kantorovich(t)), rel=1e-14)


def test_deformed_exp_matches_high_precision():
    for r, x in ((0.3, 2.0), (-0.7, 1.2), (1.0, 0.9), (-1.0, 0.25)):
        hp = (1 + mp.mpf(r) * mp.mpf(x)) ** (1 / mp.mpf(r))
        assert deformed_exp(DeformParam(r), x) == pytest.approx(float(hp), rel=1e-13)


def test_catalog_entries_match_high_precision():
    p = EvalPoint(0.25, 0.25)
    t, v = mp.mpf(p.t), mp.mpf(p.v)
    fm_upper = 1 + v * (1 - v) / 2 * (t - 1) ** 2 * t ** (-v - 1)
    assert evaluate("FM-M", p) == pytest.approx(float(fm_upper), rel=1e-13)
    exp_upper = mp.e ** (v * (1 - v) * (t - 1) ** 2 / t)
    assert evaluate("D1-exp", p) == pytest.approx(float(exp_upper), rel=1e-13)
    k_lower = _hp_kantorovich(p.t) ** mp.mpf(0.25)
    assert evaluate("K-lower", p) == pytest.approx(float(k_lower), rel=1e-13)


def test_difference_matches_high_precision():
    p = EvalPoint(0.5, 0.2)
    t, v = mp.mpf(p.t), mp.mpf(p.v)
    hp = _hp_kantorovich(p.t) ** (1 - v) - mp.e ** (v * (1 - v) * (t - 1) ** 2 / t)
    assert eval_diff("diff-l", p) == pytest.approx(float(hp), rel=1e-11)
    # and the published rounding of that value is honest to its six figures
    assert abs(float(hp) - 0.0155215) <= 1e-6


def _hp_dexp(r, x):
    r = mp.mpf(r)
    return (1 + r * x) ** (1 / r)


# r at the ends of each side's interval, mid-interval, and on either side of
# 1e-10, where exp_r used to be replaced by exp.
UPPER_R = (1.0, 0.5, 9.9e-11, 1e-12)
LOWER_R = tuple(-r for r in UPPER_R)


def _half_line(x):
    """t = 1 + sqrt(8x) >= 1: there C38-hi's exp_r argument is x at v = 1/2."""
    return 1.0 + (8.0 * x) ** 0.5


@pytest.mark.parametrize("x", [0.5, 5.0, 50.0])
def test_deformed_entries_match_high_precision_across_r(x):
    v = mp.mpf(0.5)
    for t in (_half_line(x), 1.0 / _half_line(x)):
        p = EvalPoint(t, 0.5)
        lo, hi = min(mp.mpf(p.t), 1), max(mp.mpf(p.t), 1)
        args = {"C33-expr": v * (1 - v) * (mp.mpf(p.t) - 1) ** 2 / mp.mpf(p.t),
                "C38-lo": v * (1 - v) / 2 * (1 - lo / hi) ** 2,
                "C38-hi": v * (1 - v) / 2 * (1 - hi / lo) ** 2}
        for bid, rs in (("C33-expr", UPPER_R), ("C38-lo", LOWER_R), ("C38-hi", UPPER_R)):
            for r in rs:
                want = float(_hp_dexp(r, args[bid]))
                assert evaluate(bid, p, DeformParam(r)) == pytest.approx(want, rel=1e-13), (
                    bid, t, r)


@pytest.mark.parametrize("x", [0.5, 5.0, 50.0])
def test_operator_factors_match_high_precision_across_r(x):
    # m = m' = 1, so h = M and h' = M' exactly; the as-stated upper argument
    # is x at v = 1/2.
    hp_, h_ = _half_line(x), 2.0 * _half_line(x)
    s = SandwichSpec(1.0, 1.0, hp_, h_)
    A, B = HermitianMatrix.diagonal([1.0]), HermitianMatrix.diagonal([hp_])
    v = mp.mpf(0.5)
    h, hp = mp.mpf(h_), mp.mpf(hp_)
    k_minus_1 = (h - 1) ** 2 / (4 * h)
    args = {"as-stated": (((h - 1) / h) ** 2, (hp - 1) ** 2),
            "interval-extremal": (((hp - 1) / hp) ** 2, (h - 1) ** 2)}
    for r, r1 in zip(UPPER_R, LOWER_R):
        one = certify_corollary_one(A, B, 0.5, r, s)
        want = float(_hp_dexp(r, 4 * v * (1 - v) * k_minus_1))
        assert one.scalar_factor == pytest.approx(want, rel=1e-13), r
        for variant, (arg_lo, arg_hi) in args.items():
            lower, upper = certify_corollary_two(A, B, 0.5, r1, r, s, variant)
            want_lo = float(_hp_dexp(r1, v * (1 - v) / 2 * arg_lo))
            want_hi = float(_hp_dexp(r, v * (1 - v) / 2 * arg_hi))
            assert lower.scalar_factor == pytest.approx(want_lo, rel=1e-13), (variant, r1)
            assert upper.scalar_factor == pytest.approx(want_hi, rel=1e-13), (variant, r)


def _signed_powers(rng, lo, hi, n):
    return np.copysign(10.0 ** rng.uniform(lo, hi, n), rng.uniform(-1.0, 1.0, n))


# Seeded arguments over the ranges the kernels feed each ufunc, half over the
# whole range and half where most values lie.  exp: v log t for t over the
# positive finite doubles, exp_r's log1p(r x)/r and R's log form, so
# [-745, 709.78], and small arguments.  log: t, K(t), R's numerator, so the
# positive normal doubles, and 1 + e, where log K(t) reads t near 1.  log1p:
# r x > -1, so (-1, 0) and up to 1e308.
_ULP_DRAWS = 10_000
_ULP_ARGS = {
    "exp": lambda rng, n: np.concatenate(
        [rng.uniform(-745.0, 709.78, n), _signed_powers(rng, -20.0, 2.85, n)]),
    "log": lambda rng, n: np.concatenate(
        [10.0 ** rng.uniform(-307.0, 308.0, n), 1.0 + _signed_powers(rng, -15.0, -0.5, n)]),
    "log1p": lambda rng, n: np.concatenate(
        [10.0 ** rng.uniform(-300.0, 308.0, n), -(10.0 ** rng.uniform(-300.0, -1e-9, n))]),
}


@pytest.mark.parametrize("name", _ULP_ARGS)
def test_numpy_exp_log_log1p_are_within_one_ulp(name):
    # The error of numpy's float64 ufunc, in units in the last place of the
    # exact 50-digit value's binade (2^-1074 below the normal range).  The
    # point kernels call the ufunc on floats, the grids on arrays: each float
    # call must give the array's bits.
    ufunc, exact = getattr(np, name), getattr(mp, name)
    x = _ULP_ARGS[name](np.random.default_rng([33, len(name)]), _ULP_DRAWS // 2)
    y = ufunc(x)
    worst = 0.0
    for xi, yi in zip(x.tolist(), y.tolist()):
        want = exact(mp.mpf(xi))
        ulp = mp.ldexp(1, max(mp.frexp(want)[1] - 53, -1074))
        worst = max(worst, float(abs(mp.mpf(yi) - want) / ulp))
    assert worst <= 1.0, (name, worst)
    assert [ufunc(xi) for xi in x[::50].tolist()] == y[::50].tolist()


def _orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diagonal(r))


def _hp_pencil_spectrum(A, B):
    """spec(L^{-1}BL^{-T}) with A = LL^T, both real, in 60-digit arithmetic
    from the binary64 entries of the stored matrices; ascending."""
    with mp.workdps(60):
        inv = mp.cholesky(mp.matrix(A.entries.real.tolist())) ** -1
        X = inv * mp.matrix(B.entries.real.tolist()) * inv.T
        E, _ = mp.eigsy((X + X.T) / 2)
        return sorted(E[i] for i in range(A.dim))


# Each pencil eigenvalue's relative error is below cond(A) * 1e-15 (about
# 4.5 cond(A) eps); the worst of these 60 pairs per cond(A) read 3.0e-14 at
# 1e2 and 2.3e-10 at 1e6 (numpy 2.4.6, OpenBLAS).
@pytest.mark.parametrize("kappa", [1e2, 1e6])
def test_pencil_spectrum_matches_60_digits(kappa):
    worst = 0.0
    for dim in range(1, 7):
        for seed in range(10):
            rng = np.random.default_rng([211, dim, seed, int(np.log10(kappa))])
            U, V = _orthogonal(rng, dim), _orthogonal(rng, dim)
            A = HermitianMatrix((U * np.geomspace(1.0, kappa, dim)) @ U.T)
            B = HermitianMatrix((V * rng.uniform(0.5, 2.0, dim)) @ V.T)
            lam = _pencil(A, B).lam
            with mp.workdps(60):
                exact = _hp_pencil_spectrum(A, B)
                worst = max(worst, max(float(abs(mp.mpf(float(x)) - e) / e)
                                       for x, e in zip(lam, exact)))
    assert worst <= kappa * 1e-15, worst


def _hp_margin(lam, v, factor, lower):
    """The certificate's margin on a 60-digit spectrum, with its float factor."""
    with mp.workdps(60):
        v, factor = mp.mpf(v), mp.mpf(factor)
        arithmetic = [(1 - v) + v * x for x in lam]
        bound = [factor * x**v for x in lam]
        diff = [a - b if lower else b - a for a, b in zip(arithmetic, bound)]
        return min(diff) / max(abs(x) for x in arithmetic + bound)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: at cond(A) = 1e10 the pencil spectrum's rounding error moves this "
    "as-stated lower margin by about 2e-7, from -1.05e-7 to +1.05e-7, a false 'holds'"))
def test_a_kappa_1e10_certificate_agrees_with_60_digits():
    # Case ii: A spans [M', M] with M = 1e10 M', its spectrum geomspace(M', M);
    # B spans [m, m'] with both ends.  A seeded draw from a bounded search
    # (seeds 0-299) for the largest such disagreement.
    rng = np.random.default_rng([223, 226])
    dim = int(rng.integers(2, 7))
    m_prime = rng.uniform(1.0, 1.5)
    M_prime = m_prime * rng.uniform(1.05, 3.0)
    s = SandwichSpec(1.0, m_prime, M_prime, M_prime * 1e10, "ii")
    U, V = _orthogonal(rng, dim), _orthogonal(rng, dim)
    A = HermitianMatrix((U * np.geomspace(M_prime, s.M, dim)) @ U.T)
    B = HermitianMatrix((V * np.r_[m_prime, 1.0, rng.uniform(1.0, m_prime, dim - 2)]) @ V.T)
    v = 0.4286368133089614
    lower, _ = certify_corollary_two(A, B, v, None, None, s)
    exact = _hp_margin(_hp_pencil_spectrum(A, B), v, lower.scalar_factor, lower=True)
    assert lower.holds == (exact >= -lower.tol), (lower.min_eigen_margin, float(exact))
