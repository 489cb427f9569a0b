"""Matrix-side checks: construction, means, Loewner order, certificates, I/O."""

import gc
import math
import os
import pickle
import re
import subprocess
import sys
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import youngbounds
from youngbounds import (
    DeformParam,
    EvalPoint,
    HermitianMatrix,
    SandwichSpec,
    certify_corollary_one,
    certify_corollary_two,
    evaluate,
    hermitian_power,
    loewner_leq,
    operators,
    read_matrix,
    validate_sandwich,
    weighted_arithmetic,
    weighted_geometric,
    write_matrix,
)
from youngbounds.errors import (
    DimensionMismatchError,
    DomainError,
    NotPositiveDefiniteError,
    SandwichViolationError,
)
from youngbounds.operators import HERMITIAN_TOL, PD_FLOOR, _pencil

import sandwich_pairs
from sandwich_pairs import _SANDWICH_TRIES, haar_unitary, random_sandwich_pair

relaxed = settings(deadline=None)


def random_hpd(dim, rng, eig_range=(0.5, 2.0)):
    """Random Hermitian positive-definite matrix with uniform eigenvalues."""
    U = haar_unitary(dim, rng)
    w = rng.uniform(eig_range[0], eig_range[1], dim)
    return HermitianMatrix((U * w) @ U.conj().T)


def test_hermitian_accepts_and_symmetrizes():
    A = HermitianMatrix(np.array([[1.0, 0.5 + 1e-15], [0.5, 2.0]]))
    assert A.dim == 2
    assert np.array_equal(A.entries, A.entries.conj().T)
    assert A.is_real()


def test_hermitian_entries_are_frozen():
    A = HermitianMatrix.identity(2)
    with pytest.raises(ValueError):
        A.entries[0, 0] = 5.0


def test_hermitian_rejects_bad_input():
    with pytest.raises(DomainError):
        HermitianMatrix([[0.0, 1.0], [-1.0, 0.0]])  # skew-symmetric
    with pytest.raises(DomainError):
        HermitianMatrix([[1.0, 1j], [1j, 1.0]])
    with pytest.raises(DimensionMismatchError,
                       match=r"^expected a square matrix, got shape \(2, 3\)$"):
        HermitianMatrix(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError,
                       match=r"^expected a square matrix, got shape \(4,\)$"):
        HermitianMatrix(np.zeros(4))
    with pytest.raises(DomainError, match="^matrix entries must be finite$"):
        HermitianMatrix([[np.inf, 0.0], [0.0, 1.0]])
    for bad in (np.inf, -np.inf, np.nan):
        # non-finite only in the imaginary part of an otherwise Hermitian matrix
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            HermitianMatrix(np.array([[1.0, 0.0], [0.0, complex(1.0, bad)]]))
    # ||X||_F is 2 to within 1e-12, and a skew of d on both off-diagonal
    # entries has Frobenius norm d * sqrt(2): relative skew d * sqrt(2) / 2.
    assert math.sqrt(2.0) * 1.3e-12 < 2.0 * HERMITIAN_TOL < math.sqrt(2.0) * 1.5e-12
    HermitianMatrix([[1.0, 1.0], [1.0 + 1.3e-12, 1.0]])
    with pytest.raises(DomainError,
                       match=r"^matrix is not Hermitian \(relative skew 1\.06e-12\)$"):
        HermitianMatrix([[1.0, 1.0], [1.0 + 1.5e-12, 1.0]])


def _skew_1e6():
    """All 7s but one entry 2^-14 above: relative skew 1.03e-6.  Times 2^k for k in
    [-1060, 1020] it stays exact: the skew is above the least subnormal, and
    X + X* below the largest double."""
    X = np.full((12, 12), 7.0)
    X[0, 1] += 2.0 ** -14
    return X


@pytest.mark.parametrize("X, holds", [
    (np.array([[2.0, 1.0 - 1.0j, 0.5j], [1.0 + 1.0j, 3.0, 4.0], [-0.5j, 4.0, 7.0]]), True),
    (_skew_1e6(), False),
    (np.array([[1.0, 1.0], [0.0, 1.0]]), False),     # relative skew 0.82
    (np.zeros((3, 3)), True),
], ids=["hermitian", "skew-1e-6", "skew-0.82", "zero"])
def test_hermitian_verdict_does_not_depend_on_scale(X, holds):
    # X * 2^k is exact for every k here, subnormal and huge entries included:
    # np.ldexp scales the real and imaginary parts apart.
    for k in range(-1060, 1021):
        scaled = np.ldexp(X.real, k) + 1j * np.ldexp(X.imag, k)
        if holds:
            HermitianMatrix(scaled)
        else:
            with pytest.raises(DomainError, match=r"^matrix is not Hermitian "):
                HermitianMatrix(scaled)


def test_hermitian_rejects_empty_matrix():
    # read_matrix refuses "dim 0"; construction refuses it the same way.
    for empty in (np.zeros((0, 0)), np.empty((0, 0), dtype=complex)):
        with pytest.raises(DimensionMismatchError,
                           match=r"^expected a non-empty matrix, got shape \(0, 0\)$"):
            HermitianMatrix(empty)
    with pytest.raises(DimensionMismatchError):
        HermitianMatrix.identity(0)


def _hermitian_with_skew(rng, dim, complex_):
    """A Hermitian matrix plus a skew part well inside HERMITIAN_TOL."""
    X = rng.standard_normal((dim, dim))
    if complex_:
        X = X + 1j * rng.standard_normal((dim, dim))
    H = X + X.conj().T
    return H + 1e-14 * (X - X.conj().T)


@pytest.mark.parametrize("dim", [1, 4, 8, 64])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_entries_are_the_symmetrization_bitwise(dim, complex_):
    rng = np.random.default_rng([dim, complex_])
    for _ in range(5):
        X = _hermitian_with_skew(rng, dim, complex_)
        Xc = np.asarray(X, dtype=complex)
        expected = 0.5 * (Xc + Xc.conj().T)
        A = HermitianMatrix(X)
        assert A.entries.dtype == complex and A.dim == dim
        assert A.entries.tobytes() == expected.tobytes()


def test_entries_from_lists_and_int_arrays_bitwise():
    for X in ([[2, 1], [1, 3]], [[2.5, 1 - 1j], [1 + 1j, -3.0]],
              np.array([[4, -2, 0], [-2, 5, 1], [0, 1, 6]]), [[7]]):
        Xc = np.array(X, dtype=complex)
        A = HermitianMatrix(X)
        assert A.entries.tobytes() == (0.5 * (Xc + Xc.conj().T)).tobytes()
        assert not A.entries.flags.writeable


def test_entries_above_half_dbl_max_stay_finite():
    # X + X* overflows for these entries; X/2 + X*/2 gives them back exactly.
    for X in ([[1e308, 0.0], [0.0, 1.0]],
              [[0.0, 1.5e308 + 1e308j], [1.5e308 - 1e308j, -1.7e308]]):
        with np.errstate(all="raise"):
            A = HermitianMatrix(X)
        assert np.isfinite(A.entries).all()
        assert A.entries.tobytes() == np.array(X, dtype=complex).tobytes()


def test_odd_subnormal_entries_keep_their_bits():
    # Halving 5e-324 or 1.5e-323 before the sum would round away the last
    # bit: 0, a matrix that is not positive definite, and 2e-323.
    for X in ([[5e-324]], [[1.5e-323]], [[1.5e-323, 5e-324], [5e-324, 5e-324]]):
        with np.errstate(all="raise"):
            A = HermitianMatrix(X)
        assert A.entries.tobytes() == np.array(X, dtype=complex).tobytes()
    assert HermitianMatrix([[5e-324]]).eigenvalues()[0] == 5e-324


def test_complex_hermitian_spectrum():
    A = HermitianMatrix([[2.0, 1.0 - 1j], [1.0 + 1j, 3.0]])
    assert not A.is_real()
    np.testing.assert_allclose(A.eigenvalues(), [1.0, 4.0], atol=1e-12)
    assert A.norm2() == pytest.approx(4.0, rel=1e-12)


def test_norm2_uses_largest_magnitude():
    assert HermitianMatrix.diagonal([-3.0, 2.0]).norm2() == 3.0


def test_power_known_values():
    A = HermitianMatrix.diagonal([1.0, 4.0])
    np.testing.assert_allclose(
        hermitian_power(A, 0.5).entries, np.diag([1.0, 2.0]), atol=1e-14
    )
    inv = hermitian_power(HermitianMatrix.diagonal([4.0]), -1.0)
    assert inv.entries[0, 0] == pytest.approx(0.25, rel=1e-14)
    eye = HermitianMatrix.identity(3)
    np.testing.assert_allclose(hermitian_power(eye, 0.37).entries, np.eye(3), atol=1e-14)


def test_power_round_trip():
    rng = np.random.default_rng(3)
    A = random_hpd(4, rng)
    root = hermitian_power(A, 0.5)
    np.testing.assert_allclose(
        (root.entries @ root.entries), A.entries, rtol=1e-10, atol=1e-12
    )


def test_power_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        hermitian_power(HermitianMatrix.diagonal([1.0, -1.0]), 0.5)
    with pytest.raises(NotPositiveDefiniteError):
        hermitian_power(HermitianMatrix(np.zeros((2, 2))), 0.5)


def test_arithmetic_mean():
    A = HermitianMatrix.diagonal([1.0, 2.0])
    B = HermitianMatrix.diagonal([3.0, 6.0])
    np.testing.assert_allclose(
        weighted_arithmetic(A, B, 0.25).entries, np.diag([1.5, 3.0]), atol=1e-15
    )
    assert np.array_equal(weighted_arithmetic(A, B, 0.0).entries, A.entries)
    with pytest.raises(DimensionMismatchError):
        weighted_arithmetic(A, HermitianMatrix.identity(3), 0.5)
    with pytest.raises(DomainError):
        weighted_arithmetic(A, B, 1.5)
    # The point's v rule, naming the weight and quoting it as a float.
    with pytest.raises(DomainError, match=r"^weight must lie in \[0, 1\], got 2\.0$"):
        weighted_arithmetic(A, B, 2)


def test_geometric_mean_known_values():
    A = HermitianMatrix.diagonal([1.0, 4.0])
    B = HermitianMatrix.diagonal([4.0, 16.0])
    G = weighted_geometric(A, B, 0.5)
    np.testing.assert_allclose(G.entries, np.diag([2.0, 8.0]), rtol=1e-12)


def test_geometric_mean_weight_ends():
    rng = np.random.default_rng(5)
    A, B = random_hpd(3, rng), random_hpd(3, rng)
    np.testing.assert_allclose(
        weighted_geometric(A, B, 0.0).entries, A.entries, rtol=1e-10, atol=1e-12
    )
    np.testing.assert_allclose(
        weighted_geometric(A, B, 1.0).entries, B.entries, rtol=1e-10, atol=1e-12
    )


def test_geometric_mean_swap_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(3):
        A, B = random_hpd(3, rng), random_hpd(3, rng)
        left = weighted_geometric(A, B, 0.3)
        right = weighted_geometric(B, A, 0.7)
        np.testing.assert_allclose(left.entries, right.entries, rtol=1e-9, atol=1e-11)


def test_geometric_mean_commuting_reduction():
    rng = np.random.default_rng(13)
    U = haar_unitary(4, rng)
    wa = rng.uniform(0.5, 2.0, 4)
    wb = rng.uniform(0.5, 2.0, 4)
    A = HermitianMatrix((U * wa) @ U.conj().T)
    B = HermitianMatrix((U * wb) @ U.conj().T)
    G = weighted_geometric(A, B, 0.3)
    expected = (U * (wa**0.7 * wb**0.3)) @ U.conj().T
    np.testing.assert_allclose(G.entries, expected, rtol=1e-10, atol=1e-12)


def test_young_operator_inequality_random_pairs():
    rng = np.random.default_rng(17)
    for dim in (1, 2, 5):
        A, B = random_hpd(dim, rng), random_hpd(dim, rng)
        for v in (0.0, 0.3, 1.0):
            holds, margin = loewner_leq(
                weighted_geometric(A, B, v), weighted_arithmetic(A, B, v)
            )
            assert holds and margin >= -1e-10


def test_loewner_comparison():
    A = HermitianMatrix.diagonal([1.0, 2.0])
    B = HermitianMatrix.diagonal([2.0, 3.0])
    holds, margin = loewner_leq(A, B)
    assert holds and margin == pytest.approx(1.0 / 3.0, rel=1e-12)
    holds, margin = loewner_leq(B, A)
    assert not holds and margin == pytest.approx(-1.0 / 3.0, rel=1e-12)
    holds, margin = loewner_leq(A, A)
    assert holds and margin == 0.0
    with pytest.raises(DimensionMismatchError):
        loewner_leq(A, HermitianMatrix.identity(3))


def test_sandwich_spec_validation():
    s = SandwichSpec(1.0, 1.5, 3.0, 4.5)
    assert s.case == "i"
    assert s.h == 4.5 and s.h_prime == 2.0
    with pytest.raises(SandwichViolationError):
        SandwichSpec(0.0, 1.0, 2.0, 3.0)
    with pytest.raises(SandwichViolationError):
        SandwichSpec(1.0, 2.0, 2.0, 3.0)  # m' must stay below M'
    with pytest.raises(SandwichViolationError):
        SandwichSpec(1.0, 0.5, 2.0, 3.0)
    with pytest.raises(SandwichViolationError):
        SandwichSpec(1.0, 1.5, 3.0, 2.0)
    with pytest.raises(SandwichViolationError):
        SandwichSpec(1.0, 1.5, 3.0, 4.0, "iii")
    with pytest.raises(SandwichViolationError):
        SandwichSpec(1.0, 1.5, math.inf, 4.0)


def test_validate_sandwich_cases():
    low = HermitianMatrix.diagonal([1.0, 1.4])
    high = HermitianMatrix.diagonal([3.0, 4.0])
    s_i = SandwichSpec(1.0, 1.5, 3.0, 4.0, "i")
    assert validate_sandwich(low, high, s_i)
    assert not validate_sandwich(high, low, s_i)
    s_ii = SandwichSpec(1.0, 1.5, 3.0, 4.0, "ii")
    assert validate_sandwich(high, low, s_ii)
    eye = HermitianMatrix.identity(2)
    assert not validate_sandwich(eye, eye, SandwichSpec(1.0, 1.0, 2.0, 2.0))


def test_corollary_one_scalar_instance():
    A = HermitianMatrix.diagonal([1.0])
    B = HermitianMatrix.diagonal([4.0])
    s = SandwichSpec(1.0, 1.0, 4.0, 4.0)
    cert = certify_corollary_one(A, B, 0.5, 1.0, s)
    assert cert.claim_id == "corollary-one"
    assert cert.variant is None and cert.tol == 1e-10
    assert cert.scalar_factor == pytest.approx(1.5625, rel=1e-14)
    assert cert.min_eigen_margin == pytest.approx(0.2, rel=1e-12)
    assert cert.holds


def test_corollary_one_accepts_deform_param_and_rejects_bad_r():
    A = HermitianMatrix.diagonal([1.0])
    B = HermitianMatrix.diagonal([4.0])
    s = SandwichSpec(1.0, 1.0, 4.0, 4.0)
    assert certify_corollary_one(A, B, 0.5, DeformParam(0.5), s).holds
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            certify_corollary_one(A, B, 0.5, bad, s)
    with pytest.raises(DomainError):
        certify_corollary_one(A, B, 1.5, 1.0, s)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_thresholds_must_be_finite_and_nonnegative(tol):
    A = HermitianMatrix.diagonal([1.0])
    B = HermitianMatrix.diagonal([4.0])
    s = SandwichSpec(1.0, 1.0, 4.0, 4.0)
    # the pair holds at the default tolerance
    assert certify_corollary_one(A, B, 0.5, 1.0, s).holds
    with pytest.raises(DomainError, match="tol"):
        loewner_leq(A, B, tol)
    with pytest.raises(DomainError, match="tol"):
        certify_corollary_one(A, B, 0.5, 1.0, s, tol=tol)
    with pytest.raises(DomainError, match="tol"):
        certify_corollary_two(A, B, 0.5, -1.0, 1.0, s, tol=tol)
    assert loewner_leq(A, B, 0.0) == (True, 0.75)


def test_corollary_one_requires_valid_sandwich():
    eye = HermitianMatrix.identity(2)
    with pytest.raises(SandwichViolationError):
        certify_corollary_one(eye, eye, 0.5, 1.0, SandwichSpec(1.0, 1.0, 4.0, 4.0))


def test_corollary_one_random_instances():
    rng = np.random.default_rng(23)
    s = SandwichSpec(1.0, 1.2, 3.0, 4.0)
    for commuting in (True, False):
        A, B = random_sandwich_pair(s, 4, rng, commuting=commuting)
        cert = certify_corollary_one(A, B, 0.3, 0.5, s)
        assert cert.holds and cert.min_eigen_margin >= -1e-10
    s_ii = SandwichSpec(1.0, 1.2, 3.0, 4.0, "ii")
    A, B = random_sandwich_pair(s_ii, 3, rng, commuting=False)
    assert certify_corollary_one(A, B, 0.7, 1.0, s_ii).holds


def test_random_sandwich_pair_gives_up_after_its_tries(monkeypatch):
    # A validation that never passes ends the draws after _SANDWICH_TRIES.
    calls = []

    def refuse(A, B, spec):
        calls.append(spec)
        return False

    monkeypatch.setattr(sandwich_pairs, "validate_sandwich", refuse)
    s = SandwichSpec(1.0, 1.2, 3.0, 4.0)
    with pytest.raises(SandwichViolationError, match=re.escape(
            f"could not build a sandwich-valid pair in {_SANDWICH_TRIES} attempts")):
        random_sandwich_pair(s, 2, np.random.default_rng(5))
    assert calls == [s] * _SANDWICH_TRIES


def test_corollary_two_scalar_instance():
    A = HermitianMatrix.diagonal([1.0])
    B = HermitianMatrix.diagonal([4.0])
    s = SandwichSpec(1.0, 1.0, 4.0, 4.0)
    lower, upper = certify_corollary_two(A, B, 0.5, -1.0, 1.0, s)
    assert lower.claim_id == "corollary-two-lower"
    assert upper.claim_id == "corollary-two-upper"
    assert lower.variant == "as-stated" == upper.variant
    assert lower.scalar_factor == pytest.approx(128.0 / 119.0, rel=1e-14)
    assert upper.scalar_factor == pytest.approx(2.125, rel=1e-14)
    assert lower.holds and upper.holds
    # with h = h' the two variants use the same constants
    lower2, upper2 = certify_corollary_two(A, B, 0.5, -1.0, 1.0, s, "interval-extremal")
    assert lower2.scalar_factor == lower.scalar_factor
    assert upper2.scalar_factor == upper.scalar_factor


def end_hitting_pair(scale=1.0):
    """A = I and B = diag(2, 6, 3): spec(B) reaches both ends of [M', M]."""
    A = HermitianMatrix(scale * np.eye(3))
    B = HermitianMatrix.diagonal(scale * np.array([2.0, 6.0, 3.0]))
    return A, B, SandwichSpec(scale, scale, 2.0 * scale, 6.0 * scale)


def test_corollary_two_variant_split_when_spectrum_hits_interval_ends():
    A, B, s = end_hitting_pair()
    lower, upper = certify_corollary_two(A, B, 0.4, -1.0, 1.0, s, "as-stated")
    assert not lower.holds and not upper.holds
    assert lower.scalar_factor == pytest.approx(12.0 / 11.0, rel=1e-14)
    assert upper.scalar_factor == pytest.approx(1.12, rel=1e-14)
    assert lower.min_eigen_margin == pytest.approx(-0.013154391796204033, rel=1e-10)
    assert upper.min_eigen_margin == pytest.approx(-0.2355355958637582, rel=1e-10)
    lower2, upper2 = certify_corollary_two(A, B, 0.4, -1.0, 1.0, s, "interval-extremal")
    assert lower2.holds and upper2.holds
    assert lower2.scalar_factor == pytest.approx(1.0309278350515465, rel=1e-13)
    assert upper2.scalar_factor == 4.0
    assert lower2.min_eigen_margin == pytest.approx(0.013227522071170318, rel=1e-10)
    assert upper2.min_eigen_margin == pytest.approx(0.4734682453015488, rel=1e-10)


def test_corollary_two_parameter_validation():
    A = HermitianMatrix.diagonal([1.0])
    B = HermitianMatrix.diagonal([4.0])
    s = SandwichSpec(1.0, 1.0, 4.0, 4.0)
    with pytest.raises(DomainError):
        certify_corollary_two(A, B, 0.5, 0.0, 1.0, s)
    with pytest.raises(DomainError):
        certify_corollary_two(A, B, 0.5, -1.5, 1.0, s)
    with pytest.raises(DomainError):
        certify_corollary_two(A, B, 0.5, -1.0, 0.0, s)
    with pytest.raises(DomainError):
        certify_corollary_two(A, B, 0.5, -1.0, 1.0, s, "middle")


# Past h ~ 1.34e154 the rows' squares overflow, and at M/m = inf C33-expr is
# inf/inf = nan: no verdict can be read off an infinite or nan factor.
@pytest.mark.parametrize("big, spec, claim, variant, message", [
    (4.0, (1.0, 1.0, 2.0, 1e160), "one", None,
     r"^corollary-one: no finite scalar factor at h = 1e\+160, h' = 2\.0 "
     r"\(C33-expr at t = 1e\+160\)$"),
    (4.0, (1.0, 1.0, 2.0, 1e160), "two", "interval-extremal",
     r"^corollary-two-upper: no finite scalar factor at h = 1e\+160, h' = 2\.0 "),
    (2e160, (1.0, 1.0, 1e160, 3e160), "two", "as-stated",
     r"^corollary-two-upper: no finite scalar factor at h = 3e\+160, h' = 1e\+160 "),
    (4.0, (1e-200, 1.0, 2.0, 1e200), "one", None,
     r"^corollary-one: no finite scalar factor at h = inf, h' = 2\.0 \(C33-expr at t = inf\)$"),
])
def test_claims_without_a_finite_factor_raise_domain_error(big, spec, claim, variant, message):
    A, B = HermitianMatrix.diagonal([1.0]), HermitianMatrix.diagonal([big])
    s = SandwichSpec(*spec)
    with pytest.raises(DomainError, match=message):
        if claim == "one":
            certify_corollary_one(A, B, 0.5, None, s)
        else:
            certify_corollary_two(A, B, 0.5, None, None, s, variant)


def test_claim_factors_overflow_to_inf_under_any_error_state():
    # A point's squares are float products: past t ~ 1.34e154 C38-hi's square
    # is inf with no numpy report, as D2-hi-ge1's is, so the claim raises its
    # DomainError whatever the caller's np.errstate.
    A, B = HermitianMatrix.diagonal([1.0]), HermitianMatrix.diagonal([4.0])
    s = SandwichSpec(1.0, 1.0, 2.0, 1e160)
    message = r"^corollary-two-upper: no finite scalar factor "
    for state in ("raise", "warn", "ignore"):
        with np.errstate(all=state):
            with pytest.raises(DomainError, match=message):
                certify_corollary_two(A, B, 0.5, None, None, s, "interval-extremal")
    with np.errstate(over="raise"):
        for bid in ("C38-hi", "D2-hi-ge1"):
            assert evaluate(bid, EvalPoint(1e160, 0.5)) == math.inf


def test_as_stated_lower_claim_at_infinite_h_is_the_rows_limit():
    # C38-lo at t = inf reads (1/t - 1)^2 = 1 exactly: 1/(1 - v(1-v)/2) = 8/7.
    A, B = HermitianMatrix.diagonal([1.0]), HermitianMatrix.diagonal([4.0])
    s = SandwichSpec(1e-200, 1.0, 2.0, 1e200)
    assert s.h == math.inf
    lower, upper = certify_corollary_two(A, B, 0.5, None, None, s, "as-stated")
    assert lower.scalar_factor == 8.0 / 7.0 and lower.holds
    assert upper.scalar_factor == 1.125 and not upper.holds


def test_claim_factor_overflow_at_a_finite_argument_raises_domain_error():
    # exp_r at r = 1e-3 of about 2.5e5 overflows although h = 1e6 is modest.
    A, B = HermitianMatrix.diagonal([1.0]), HermitianMatrix.diagonal([4.0])
    s = SandwichSpec(1.0, 1.0, 2.0, 1e6)
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError, match=r"^corollary-one: no finite scalar factor "):
            certify_corollary_one(A, B, 0.5, 1e-3, s)


def test_claims_just_below_overflow_keep_the_printed_square():
    # (h - 1)^2 = 1e300 is finite: the factor is the ** form, bit for bit.
    A, B = HermitianMatrix.diagonal([1.0]), HermitianMatrix.diagonal([4.0])
    s = SandwichSpec(1.0, 1.0, 2.0, 1e150)
    lower, upper = certify_corollary_two(A, B, 0.5, None, None, s, "interval-extremal")
    assert upper.scalar_factor == 1.0 + 0.5 * 0.5 * (1.0 - 0.5) * (1e150 - 1.0) ** 2
    assert lower.holds and upper.holds


def test_corollary_two_extremal_random_instances():
    rng = np.random.default_rng(29)
    s = SandwichSpec(0.8, 1.0, 1.5, 3.2)
    for dim, commuting in ((2, True), (5, False)):
        A, B = random_sandwich_pair(s, dim, rng, commuting=commuting)
        lower, upper = certify_corollary_two(A, B, 0.45, -0.5, 0.75, s, "interval-extremal")
        assert lower.holds and upper.holds


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(31)
    U = haar_unitary(5, rng)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(5), atol=1e-12)


def test_random_hpd_spectrum_range():
    rng = np.random.default_rng(37)
    w = random_hpd(6, rng, (0.5, 2.0)).eigenvalues()
    assert w[0] >= 0.5 - 1e-12
    assert w[-1] <= 2.0 + 1e-12


def test_random_sandwich_pair_roles():
    rng = np.random.default_rng(41)
    s = SandwichSpec(1.0, 1.3, 2.0, 3.0, "ii")
    A, B = random_sandwich_pair(s, 3, rng, commuting=False)
    assert validate_sandwich(A, B, s)
    assert A.eigenvalues()[0] >= 2.0 - 1e-10  # case ii puts the large one first


def test_matrix_file_round_trip_real(tmp_path):
    rng = np.random.default_rng(43)
    X = rng.standard_normal((3, 3))
    A = HermitianMatrix(0.5 * (X + X.T))
    path = tmp_path / "a.txt"
    write_matrix(path, A)
    text = path.read_text()
    assert text.splitlines()[0] == "dim 3"
    assert "j" not in text
    assert np.array_equal(read_matrix(path).entries, A.entries)


def test_matrix_file_round_trip_complex(tmp_path):
    A = random_hpd(3, np.random.default_rng(47))
    assert not A.is_real()
    path = tmp_path / "c.txt"
    write_matrix(path, A)
    assert np.array_equal(read_matrix(path).entries, A.entries)


def test_matrix_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    cases = [
        ("", DomainError),
        ("3\n1 0 0\n", DomainError),
        ("dim zero\n", DomainError),
        ("dim 0\n", DomainError),
        ("dim 2\n1 0\n", DimensionMismatchError),
        ("dim 2\n1 0 0\n0 1 0\n", DimensionMismatchError),
        ("dim 2\n1 0\n0 x\n", DomainError),
        ("dim 1\ninf\n", DomainError),
        # a UTF-8 BOM, or any byte >= 0x80, is not ASCII text
        ("\xef\xbb\xbfdim 1\n1\n", DomainError),
        ("dim 2\n1 0\n0 \xa0 1\n", DomainError),
    ]
    for text, err in cases:
        path.write_bytes(text.encode("latin-1"))  # one byte per character
        with pytest.raises(err):
            read_matrix(path)
    with pytest.raises(OSError):
        read_matrix(tmp_path / "missing.txt")


def explicit_verdicts(A, B, v, factors):
    """Each claim checked by loewner_leq on the explicit means, the oracle.

    factors maps a claim id to (scalar factor, side): "upper" checks
    arithmetic <= factor * geometric, "lower" the reverse.
    """
    arithmetic, geometric = weighted_arithmetic(A, B, v), weighted_geometric(A, B, v)
    verdicts = {}
    for claim, (factor, side) in factors.items():
        scaled = HermitianMatrix(factor * geometric.entries)
        pair = (arithmetic, scaled) if side == "upper" else (scaled, arithmetic)
        verdicts[claim] = loewner_leq(*pair)
    return verdicts


def spectral_certificates(A, B, v, s, k):
    """The three certificates of instance k, keyed by claim id and variant."""
    r_pos, r_neg = (0.25, 0.5, 1.0), (-1.0, -0.5, -0.25)
    certs = [certify_corollary_one(A, B, v, r_pos[k % 3], s)]
    for variant in ("as-stated", "interval-extremal"):
        certs += certify_corollary_two(A, B, v, r_neg[k % 3], r_pos[(k + 1) % 3], s, variant)
    return {(c.claim_id, c.variant): c for c in certs}


def random_spec(rng, case):
    m = rng.uniform(0.5, 2.0)
    m_prime = m * rng.uniform(1.0, 1.5)
    M_prime = m_prime * rng.uniform(1.05, 3.0)
    return SandwichSpec(m, m_prime, M_prime, M_prime * rng.uniform(1.0, 2.0), case)


def sandwich_instances():
    """330 seeded (k, A, B, v, s): dims 1-8 with every 110th of dim 64, both
    cases, commuting and not, v on a 0.1 grid."""
    rng = np.random.default_rng(53)
    for k in range(330):
        dim = 64 if k % 110 == 109 else k % 8 + 1
        case = "i" if k % 2 == 0 else "ii"
        s = random_spec(rng, case)
        A, B = random_sandwich_pair(s, dim, rng, commuting=(k // 2) % 2 == 0)
        yield k, A, B, (k % 11) / 10.0, s


def test_spectral_verdicts_match_explicit_means():
    n_instances, n_violated = 0, 0
    for k, A, B, v, s in sandwich_instances():
        certs = spectral_certificates(A, B, v, s, k)
        factors = {key: (c.scalar_factor, "lower" if c.claim_id.endswith("lower") else "upper")
                   for key, c in certs.items()}
        for key, (holds, margin) in explicit_verdicts(A, B, v, factors).items():
            assert certs[key].holds == holds, (k, key, certs[key].min_eigen_margin, margin)
            n_violated += not holds
        n_instances += 1
    assert n_instances >= 300
    assert n_violated > 0  # the as-stated constants fail on some instances


def test_margin_is_loewner_margin_of_reduced_pair():
    rng = np.random.default_rng(59)
    s = SandwichSpec(1.0, 1.3, 2.0, 5.0, "ii")
    A, B = random_sandwich_pair(s, 5, rng, commuting=False)
    v = 0.3
    cert = certify_corollary_one(A, B, v, 0.5, s)
    inv_root = hermitian_power(A, -0.5).entries
    lam = HermitianMatrix(inv_root @ B.entries @ inv_root).eigenvalues()
    np.testing.assert_allclose(_pencil(A, B).lam, lam, rtol=1e-12)
    expected = loewner_leq(HermitianMatrix.diagonal((1.0 - v) + v * lam),
                           HermitianMatrix.diagonal(cert.scalar_factor * lam**v))
    assert cert.holds == expected[0]
    assert cert.min_eigen_margin == pytest.approx(expected[1], rel=1e-10, abs=1e-14)


def test_margin_matches_explicit_means_when_a_is_identity():
    rng = np.random.default_rng(61)
    s = SandwichSpec(1.0, 1.0, 1.5, 4.0)
    A = HermitianMatrix.identity(4)
    _, B = random_sandwich_pair(s, 4, rng, commuting=False)
    lower, upper = certify_corollary_two(A, B, 0.35, -0.5, 0.5, s)
    explicit = explicit_verdicts(A, B, 0.35, {"lo": (lower.scalar_factor, "lower"),
                                              "hi": (upper.scalar_factor, "upper")})
    assert lower.min_eigen_margin == pytest.approx(explicit["lo"][1], rel=1e-10)
    assert upper.min_eigen_margin == pytest.approx(explicit["hi"][1], rel=1e-10)


@pytest.mark.parametrize("k", [-12, -6, 0, 6, 12])
def test_as_stated_violation_survives_scaling(k):
    A, B, s = end_hitting_pair(10.0**k)
    lower, upper = certify_corollary_two(A, B, 0.4, -1.0, 1.0, s, "as-stated")
    assert not lower.holds and not upper.holds
    assert lower.min_eigen_margin == pytest.approx(-0.013154391796204033, rel=1e-10)
    assert upper.min_eigen_margin == pytest.approx(-0.2355355958637582, rel=1e-10)
    explicit = explicit_verdicts(A, B, 0.4, {"lo": (lower.scalar_factor, "lower"),
                                             "hi": (upper.scalar_factor, "upper")})
    assert not explicit["lo"][0] and not explicit["hi"][0]
    assert explicit["lo"][1] == pytest.approx(lower.min_eigen_margin, rel=1e-10)
    assert explicit["hi"][1] == pytest.approx(upper.min_eigen_margin, rel=1e-10)


def test_loewner_leq_is_scale_invariant():
    A = HermitianMatrix.diagonal([1.0, 2.0])
    B = HermitianMatrix.diagonal([2.0, 3.0])
    for k in (-12, 0, 12):
        a, b = (HermitianMatrix(10.0**k * X.entries) for X in (A, B))
        assert loewner_leq(a, b)[1] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert loewner_leq(b, a) == (False, pytest.approx(-1.0 / 3.0, rel=1e-12))
    zero = HermitianMatrix(np.zeros((2, 2)))
    assert loewner_leq(zero, zero) == (True, 0.0)


@relaxed
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-12, 12),
    dim=st.integers(1, 6),
    case=st.sampled_from(["i", "ii"]),
    commuting=st.booleans(),
    v=st.floats(0.0, 1.0),
)
def test_certificates_are_scale_invariant(seed, k, dim, case, commuting, v):
    rng = np.random.default_rng(seed)
    s = random_spec(rng, case)
    A, B = random_sandwich_pair(s, dim, rng, commuting=commuting)
    c = 10.0**k
    s_c = SandwichSpec(c * s.m, c * s.m_prime, c * s.M_prime, c * s.M, case)
    A_c, B_c = HermitianMatrix(c * A.entries), HermitianMatrix(c * B.entries)
    base = spectral_certificates(A, B, v, s, seed)
    scaled = spectral_certificates(A_c, B_c, v, s_c, seed)
    for key, cert in base.items():
        assert scaled[key].holds == cert.holds, key
        # Margins are already relative to the pair's norm.
        assert abs(scaled[key].min_eigen_margin - cert.min_eigen_margin) <= 1e-12, key


@pytest.mark.parametrize("v", [0.0, 1.0])
def test_margins_vanish_at_weight_ends(v):
    rng = np.random.default_rng(67)
    for k, case in enumerate(("i", "ii", "i", "ii")):
        s = random_spec(rng, case)
        A, B = random_sandwich_pair(s, k + 2, rng, commuting=k < 2)
        for cert in spectral_certificates(A, B, v, s, k).values():
            assert cert.min_eigen_margin == 0.0 and cert.holds


# Each claim's factor is a catalog row read at an end of [h', h]; the variant
# picks the ends of corollary two.
CLAIM_ROWS = {
    ("corollary-one", None): ("C33-expr", "h"),
    ("corollary-two-lower", "as-stated"): ("C38-lo", "h"),
    ("corollary-two-upper", "as-stated"): ("C38-hi", "h_prime"),
    ("corollary-two-lower", "interval-extremal"): ("C38-lo", "h_prime"),
    ("corollary-two-upper", "interval-extremal"): ("C38-hi", "h"),
}


@relaxed
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 8),
    case=st.sampled_from(["i", "ii"]),
    v=st.floats(0.0, 1.0),
    # r at the closed end of each side's interval, inside it, and at the
    # open end's nearest double
    r=st.sampled_from([1.0, 0.375, 5e-324]),
)
def test_claim_factors_are_catalog_rows_at_an_end(seed, dim, case, v, r):
    rng = np.random.default_rng(seed)
    s = random_spec(rng, case)
    A, B = random_sandwich_pair(s, dim, rng, commuting=seed % 2 == 0)
    certs = [certify_corollary_one(A, B, v, r, s)]
    for variant in ("as-stated", "interval-extremal"):
        certs += certify_corollary_two(A, B, v, -r, r, s, variant)
    for cert in certs:
        bound_id, end = CLAIM_ROWS[cert.claim_id, cert.variant]
        r_claim = -r if cert.claim_id.endswith("lower") else r
        want = evaluate(bound_id, EvalPoint(getattr(s, end), v), r_claim)
        assert cert.scalar_factor == want, (cert, bound_id, end)


# Case ii's spectrum lies in [1/h, 1/h'], and the claim rows are equal at t
# and 1/t, so the ends h and h' serve both cases.
@relaxed
@given(e=st.floats(0.0, 150.0), v=st.floats(0.0, 1.0),
       bound_id=st.sampled_from(["C33-expr", "C38-lo", "C38-hi"]))
def test_claim_rows_are_equal_at_t_and_its_reciprocal(e, v, bound_id):
    t = 10.0**e
    at_t = evaluate(bound_id, EvalPoint(t, v))
    assert evaluate(bound_id, EvalPoint(1.0 / t, v)) == pytest.approx(at_t, rel=1e-14)


def count_calls(monkeypatch, fn, names=("eigh", "eigvalsh")):
    calls = []
    for name in names:
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _real=real, **kw: calls.append(1) or _real(*a, **kw))
    fn()
    monkeypatch.undo()
    return len(calls)


def test_decomposition_counts(monkeypatch):
    s = SandwichSpec(1.0, 1.3, 2.0, 5.0, "ii")
    A, B = random_sandwich_pair(s, 4, np.random.default_rng(71), commuting=False)

    def fresh():
        return HermitianMatrix(A.entries), HermitianMatrix(B.entries)

    assert count_calls(monkeypatch, lambda: validate_sandwich(*fresh(), s)) == 2
    assert count_calls(
        monkeypatch, lambda: certify_corollary_one(*fresh(), 0.3, 0.5, s)) == 3
    assert count_calls(
        monkeypatch, lambda: certify_corollary_two(*fresh(), 0.3, -0.5, 0.5, s)) == 3
    assert count_calls(monkeypatch, lambda: weighted_geometric(*fresh(), 0.3)) == 2

    def all_three():
        a, b = fresh()
        certify_corollary_one(a, b, 0.3, 0.5, s)
        for variant in ("as-stated", "interval-extremal"):
            certify_corollary_two(a, b, 0.3, -0.5, 0.5, s, variant)

    # the certificates of one pair share its pencil spectrum: 2 + 1, not 2 + 3
    assert count_calls(monkeypatch, all_three) == 3


def test_one_reduction_per_pair_for_means_and_certificates(monkeypatch):
    s = SandwichSpec(1.0, 1.3, 2.0, 5.0, "ii")
    A, B = random_sandwich_pair(s, 4, np.random.default_rng(73), commuting=False)

    def certificates(a, b):
        certify_corollary_one(a, b, 0.3, 0.5, s)
        for variant in ("as-stated", "interval-extremal"):
            certify_corollary_two(a, b, 0.3, -0.5, 0.5, s, variant)

    def mean_first():
        a, b = HermitianMatrix(A.entries), HermitianMatrix(B.entries)
        validate_sandwich(a, b, s)
        weighted_geometric(a, b, 0.3)
        certificates(a, b)

    def certificates_first():
        a, b = HermitianMatrix(A.entries), HermitianMatrix(B.entries)
        validate_sandwich(a, b, s)
        certificates(a, b)
        weighted_geometric(a, b, 0.3)

    for everything in (mean_first, certificates_first):
        # spec(A) and spec(B) for validation, eigh and eigvalsh of the pencil
        # matrix: 4, where separate reductions for the mean took 5
        assert count_calls(monkeypatch, everything) == 4
        assert count_calls(monkeypatch, everything, ("cholesky",)) == 1
        assert count_calls(monkeypatch, everything, ("solve",)) == 2


@pytest.mark.parametrize("dim", [1, 4, 8, 64])
def test_pencil_spectrum_bits_do_not_depend_on_the_mean(dim):
    rng = np.random.default_rng([97, dim])
    s = random_spec(rng, "i")
    A, B = random_sandwich_pair(s, dim, rng, commuting=False)
    alone = HermitianMatrix(A.entries), HermitianMatrix(B.entries)
    after_mean = HermitianMatrix(A.entries), HermitianMatrix(B.entries)
    weighted_geometric(*after_mean, 0.3)
    assert _pencil(*alone).lam.tobytes() == _pencil(*after_mean).lam.tobytes()
    assert repr(spectral_certificates(*alone, 0.3, s, dim)) == \
        repr(spectral_certificates(*after_mean, 0.3, s, dim))


def geometric_by_square_roots(A, B, v):
    """A^{1/2}(A^{-1/2}BA^{-1/2})^v A^{1/2} from two eigendecompositions, the
    test oracle for the pencil form."""
    root, inv_root = hermitian_power(A, 0.5).entries, hermitian_power(A, -0.5).entries
    inner = HermitianMatrix(inv_root @ B.entries @ inv_root)
    return HermitianMatrix(root @ hermitian_power(inner, v).entries @ root)


def relative_error(X, reference):
    return np.linalg.norm(X - reference) / np.linalg.norm(reference)


def test_geometric_mean_matches_the_square_root_form():
    for k, A, B, v, _ in sandwich_instances():
        assert relative_error(weighted_geometric(A, B, v).entries,
                              geometric_by_square_roots(A, B, v).entries) <= 1e-13, k
    rng = np.random.default_rng(101)
    for v in (0.0, 0.3, 0.5, 1.0):
        A, B = random_hpd(64, rng), random_hpd(64, rng, (0.1, 10.0))
        assert relative_error(weighted_geometric(A, B, v).entries,
                              geometric_by_square_roots(A, B, v).entries) <= 1e-13, v


def high_precision_geometric(A, B, v):
    """A^{1/2}(A^{-1/2}BA^{-1/2})^v A^{1/2} in 50-digit arithmetic."""
    with mp.workdps(50):
        w, Q = mp.eigh(mp.matrix(A.entries.tolist()))
        n = A.dim
        root = Q * mp.diag([mp.sqrt(w[i]) for i in range(n)]) * Q.H
        inv_root = Q * mp.diag([1 / mp.sqrt(w[i]) for i in range(n)]) * Q.H
        inner = inv_root * mp.matrix(B.entries.tolist()) * inv_root
        u, P = mp.eigh((inner + inner.H) / 2)
        G = root * P * mp.diag([u[i] ** v for i in range(n)]) * P.H * root
        return np.array([[complex(G[i, j]) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("cond", [1e6, 1e10])
def test_geometric_mean_on_ill_conditioned_a_matches_high_precision(cond):
    rng = np.random.default_rng([103, int(math.log10(cond))])
    for v in (0.3, 0.7):
        U = haar_unitary(5, rng)
        A = HermitianMatrix((U * np.geomspace(1.0, 1.0 / cond, 5)) @ U.conj().T)
        B = random_hpd(5, rng)
        reference = high_precision_geometric(A, B, v)
        assert relative_error(weighted_geometric(A, B, v).entries, reference) <= cond * 1e-15


def nearly_singular(rng, dim, smallest):
    U = haar_unitary(dim, rng)
    return HermitianMatrix((U * np.r_[smallest, rng.uniform(0.5, 2.0, dim - 1)]) @ U.conj().T)


def not_pd_message(fn):
    """The NotPositiveDefiniteError message fn raises, with the eigenvalue
    (rounding-level for singular input) cut out; None when fn returns."""
    try:
        fn()
    except NotPositiveDefiniteError as exc:
        return re.sub(r"min eigenvalue \S+\)", "min eigenvalue ...)", str(exc))
    return None


def test_geometric_mean_rejects_the_inputs_the_square_root_form_rejected():
    # PD_FLOOR is 1e-12 relative; each smallest eigenvalue sits well to one side
    # of it for A, and for B once A (spectrum in [0.5, 2]) is factored out.
    rng = np.random.default_rng(107)
    outcomes = set()
    for smallest in (-1e-3, 0.0, 1e-15, 1e-14, 1e-13, 1e-11, 1e-10, 1e-6):
        for dim in (2, 5):
            near = nearly_singular(rng, dim, smallest)
            for A, B in ((near, random_hpd(dim, rng)), (random_hpd(dim, rng), near)):
                expected = not_pd_message(lambda: geometric_by_square_roots(A, B, 0.4))
                assert not_pd_message(lambda: weighted_geometric(A, B, 0.4)) == expected, \
                    (smallest, dim)
                outcomes.add(expected)
            # With B = 2A the pencil is 2I, so only A's own spectrum can reject
            # the pair.  Where A passes, the square-root form is no oracle: its
            # A^{-1/2}BA^{-1/2} fails the Hermitian check; the mean is 2^v A.
            twice = HermitianMatrix(2.0 * near.entries)
            if smallest < PD_FLOOR:
                assert not_pd_message(lambda: weighted_geometric(near, twice, 0.4)) == \
                    not_pd_message(lambda: geometric_by_square_roots(near, twice, 0.4))
            else:
                assert relative_error(weighted_geometric(near, twice, 0.4).entries,
                                      2.0**0.4 * near.entries) <= 1e-14
    assert outcomes == {"matrix is not positive definite (min eigenvalue ...)", None}


def test_pencil_spectrum_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        _pencil(HermitianMatrix.diagonal([1.0, -1.0]), HermitianMatrix.identity(2)).lam


def test_pencil_spectrum_follows_the_second_matrix():
    rng = np.random.default_rng(79)
    A, B1, B2 = random_hpd(5, rng), random_hpd(5, rng), random_hpd(5, rng)
    lam1 = _pencil(A, B1).lam
    assert _pencil(A, B1).lam is lam1
    lam2 = _pencil(A, B2).lam
    fresh = _pencil(HermitianMatrix(A.entries), B2).lam
    assert lam2.tobytes() == fresh.tobytes()
    assert lam2.tobytes() != lam1.tobytes()
    # an equal but distinct matrix is another B
    B2_copy = HermitianMatrix(B2.entries)
    assert _pencil(A, B2_copy).lam is not lam2


def test_pencil_spectrum_is_read_only():
    rng = np.random.default_rng(83)
    lam = _pencil(random_hpd(3, rng), random_hpd(3, rng)).lam
    with pytest.raises(ValueError):
        lam[0] = 1.0


def test_pencil_memo_does_not_keep_b_alive():
    rng = np.random.default_rng(89)
    A, B = random_hpd(3, rng), random_hpd(3, rng)
    lam = _pencil(A, B).lam
    ref = weakref.ref(B)
    del B
    gc.collect()
    assert ref() is None
    # the memo no longer matches anything; a new B is computed afresh
    B_new = random_hpd(3, rng)
    assert _pencil(A, B_new).lam is not lam


def test_a_failing_sandwich_raises_after_one_that_held():
    # The pair keeps the spec that validated, never one that failed: B's
    # eigenvalues lie in [1, 1.3], so a spec claiming [1.5, 1.6] for it fails.
    s = SandwichSpec(1.0, 1.3, 2.0, 5.0, "ii")
    A, B = random_sandwich_pair(s, 4, np.random.default_rng(101), commuting=False)
    assert certify_corollary_one(A, B, 0.3, 0.5, s).holds
    bad = SandwichSpec(1.5, 1.6, 2.0, 5.0, "ii")
    for _ in range(2):
        with pytest.raises(SandwichViolationError):
            certify_corollary_two(A, B, 0.3, -0.5, 0.5, bad)
    assert certify_corollary_one(A, B, 0.3, 0.5, s).holds


def test_certificates_at_a_new_weight_equal_a_fresh_pairs():
    rng = np.random.default_rng(103)
    s = random_spec(rng, "i")
    A, B = random_sandwich_pair(s, 5, rng, commuting=False)
    spectral_certificates(A, B, 0.3, s, 0)
    for k, v in enumerate((0.7, 0.3, 0.0, 1.0, 0.7)):
        fresh = HermitianMatrix(A.entries), HermitianMatrix(B.entries)
        assert repr(spectral_certificates(A, B, v, s, k)) == \
            repr(spectral_certificates(*fresh, v, s, k))


def count_validations(monkeypatch):
    """A list that gains one item per call of operators.validate_sandwich."""
    calls = []
    real = operators.validate_sandwich
    monkeypatch.setattr(operators, "validate_sandwich",
                        lambda *args: calls.append(1) or real(*args))
    return calls


def fresh_pair(seed, s):
    """A dim-4 pair for s that has not been validated yet."""
    a, b = random_sandwich_pair(s, 4, np.random.default_rng(seed), commuting=False)
    return HermitianMatrix(a.entries), HermitianMatrix(b.entries)


def test_one_instance_validates_its_sandwich_once(monkeypatch):
    # The calls of one operator-certify instance of the benchmark: the direct
    # validation; the three certificates after it reuse its verdict.
    s = SandwichSpec(1.0, 1.3, 2.0, 5.0)
    A, B = fresh_pair(107, s)
    calls = count_validations(monkeypatch)
    assert operators.validate_sandwich(A, B, s)
    assert loewner_leq(weighted_geometric(A, B, 0.3), weighted_arithmetic(A, B, 0.3))[0]
    certify_corollary_one(A, B, 0.3, 0.5, s)
    for variant in ("interval-extremal", "as-stated"):
        certify_corollary_two(A, B, 0.3, -0.5, 0.5, s, variant)
    assert len(calls) == 1


def test_a_sandwich_that_failed_validation_is_never_remembered(monkeypatch):
    # B's eigenvalues lie in [1, 1.3], so a spec claiming [1.5, 1.6] for it fails.
    s = SandwichSpec(1.0, 1.3, 2.0, 5.0, "ii")
    bad = SandwichSpec(1.5, 1.6, 2.0, 5.0, "ii")
    A, B = fresh_pair(109, s)
    assert validate_sandwich(A, B, s)
    assert not validate_sandwich(A, B, bad)
    calls = count_validations(monkeypatch)
    with pytest.raises(SandwichViolationError):
        certify_corollary_one(A, B, 0.3, 0.5, bad)
    assert len(calls) == 1  # the failed spec validated again, and failed again
    # the good spec is still the one A remembers: no new validation
    assert certify_corollary_one(A, B, 0.3, 0.5, s).holds
    assert all(c.holds for c in certify_corollary_two(A, B, 0.3, -0.5, 0.5, s,
                                                      "interval-extremal"))
    assert len(calls) == 1


def test_a_new_b_or_a_new_sandwich_validates_again(monkeypatch):
    s = SandwichSpec(1.0, 1.3, 2.0, 5.0)
    A, B = fresh_pair(113, s)
    B2 = HermitianMatrix(B.entries)
    equal_s = SandwichSpec(1.0, 1.3, 2.0, 5.0)
    assert validate_sandwich(A, B, s)
    calls = count_validations(monkeypatch)
    certify_corollary_one(A, B, 0.3, 0.5, s)
    assert len(calls) == 0
    # matched by identity: an equal but distinct B or s is another pair
    for other_b, other_s, validations in ((B2, s, 1), (B, s, 2), (B, equal_s, 3),
                                          (B, equal_s, 3), (B, s, 4)):
        certify_corollary_one(A, other_b, 0.3, 0.5, other_s)
        assert len(calls) == validations


def test_sandwich_memo_does_not_keep_b_alive(monkeypatch):
    s = SandwichSpec(1.0, 1.3, 2.0, 5.0)
    A, B = fresh_pair(127, s)
    assert validate_sandwich(A, B, s)
    ref = weakref.ref(B)
    del B
    gc.collect()
    assert ref() is None
    calls = count_validations(monkeypatch)
    _, B_new = fresh_pair(127, s)
    certify_corollary_one(A, B_new, 0.3, 0.5, s)
    assert len(calls) == 1


def test_validating_a_pair_does_not_factor_a(monkeypatch):
    # A = diag(-1, 1e12) is not positive definite.  Against m' = 1e12 its least
    # eigenvalue is within SANDWICH_TOL of m = 1e-3, so the sandwich holds; a
    # least eigenvalue of -1e3 is not.  Neither verdict factors A or raises.
    B = HermitianMatrix.diagonal([2e12, 3e12])
    s = SandwichSpec(1e-3, 1e12, 2e12, 3e12)
    for least, verdict in ((-1.0, True), (-1e3, False)):
        A = HermitianMatrix.diagonal([least, 1e12])
        assert count_calls(monkeypatch, lambda: validate_sandwich(A, B, s),
                           ("cholesky", "solve")) == 0
        assert validate_sandwich(A, B, s) is verdict
        assert "_pencil" not in A.__dict__
        with pytest.raises(NotPositiveDefiniteError if verdict else SandwichViolationError):
            certify_corollary_one(A, B, 0.3, 0.5, s)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_matrix_with_pair_memos_pickles(protocol):
    # A keeps its pencil and sandwich memos by weak reference to B; a pickled
    # copy drops them and certifies its own pair to the same bits.
    s = SandwichSpec(1.0, 1.3, 2.0, 5.0)
    A, B = fresh_pair(139, s)
    assert validate_sandwich(A, B, s)
    weighted_geometric(A, B, 0.3)
    want = repr(spectral_certificates(A, B, 0.3, s, 0))
    A2, B2 = pickle.loads(pickle.dumps((A, B), protocol))
    assert A2.entries.tobytes() == A.entries.tobytes()
    assert not {"_pencil", "_sandwich"} & set(A2.__dict__)
    assert repr(spectral_certificates(A2, B2, 0.3, s, 0)) == want


def abs_pass_certificates(A, B, v, s, k):
    """(scalar_factor, min_eigen_margin) of each of spectral_certificates(A, B,
    v, s, k), keyed the same way, from the factor and the pencil spectrum
    with an |.| pass for each scale: the reference the certificates skip
    those passes against."""
    lam = _pencil(A, B).lam
    arithmetic, geometric = (1.0 - v) + v * lam, lam**v
    arithmetic_scale = float(np.abs(arithmetic).max())
    expected = {}
    for key, cert in spectral_certificates(A, B, v, s, k).items():
        bound = cert.scalar_factor * geometric
        scale = max(arithmetic_scale, float(np.abs(bound).max()))
        diff = arithmetic - bound if key[0].endswith("lower") else bound - arithmetic
        smallest = float(diff.min())
        expected[key] = cert.scalar_factor, smallest / scale if scale > 0.0 else smallest
    return expected


def hex_pairs(certs):
    return {key: (c.scalar_factor.hex(), c.min_eigen_margin.hex()) for key, c in certs.items()}


def test_certificate_scales_without_abs_passes_are_bitwise_equal():
    rng = np.random.default_rng(131)
    n_pairs = 0
    for dim in range(1, 9):
        for case in ("i", "ii"):
            s = random_spec(rng, case)
            A, B = random_sandwich_pair(s, dim, rng, commuting=False)
            for e in (0, -12, 12):
                f = 10.0**e
                scaled = SandwichSpec(f * s.m, f * s.m_prime, f * s.M_prime, f * s.M, case)
                pair = HermitianMatrix(f * A.entries), HermitianMatrix(f * B.entries)
                assert validate_sandwich(*pair, scaled)
                for k, v in enumerate((0.0, 0.3, 1.0)):
                    assert _pencil(*pair).lam[0] > 0.0
                    certs = spectral_certificates(*pair, v, scaled, k)
                    expected = {key: (factor.hex(), margin.hex()) for key, (factor, margin)
                                in abs_pass_certificates(*pair, v, scaled, k).items()}
                    assert hex_pairs(certs) == expected, (dim, case, e, v)
                    n_pairs += 1
    assert n_pairs == 8 * 2 * 3 * 3


def test_a_pencil_with_a_nonpositive_eigenvalue_keeps_the_abs_passes():
    # No validated pair here has lam[0] <= 0, so the pencil's spectrum is set by
    # hand.  Its margins are 0 at v = 0 and 1 (every factor is 1 there) and NaN
    # in between (lam**v of -3), so the values cannot tell the branches apart:
    # the memo's missing greatest geometric mean shows which one ran.
    s = SandwichSpec(1.0, 1.3, 2.0, 5.0)
    A, B = fresh_pair(137, s)
    assert validate_sandwich(A, B, s)
    for lam, kept in (([-3.0, 0.0, 2.0, 2.5], True), ([0.0, 2.0, 2.5, 3.0], True),
                      ([0.5, 2.0, 2.5, 3.0], False)):
        for v in (0.0, 0.3, 1.0):
            pencil = _pencil(A, B)
            pencil.lam, pencil.means = np.array(lam), None
            with np.errstate(invalid="ignore"):
                certs = spectral_certificates(A, B, v, s, 0)
                expected = {key: (factor.hex(), margin.hex()) for key, (factor, margin)
                            in abs_pass_certificates(A, B, v, s, 0).items()}
            assert hex_pairs(certs) == expected, (lam, v)
            assert (pencil.means[-1] is None) is kept, (lam, v)


def test_operator_layer_imports_numpy_only():
    # scipy and mpmath are installed in some environments but are not
    # dependencies of the package; the operator path must not pull them in.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import youngbounds\n"
        "from youngbounds import HermitianMatrix, SandwichSpec, certify_corollary_two\n"
        "s = SandwichSpec(1.0, 1.2, 3.0, 4.0)\n"
        "A = HermitianMatrix.diagonal([1.0, 1.2])\n"
        "B = HermitianMatrix(np.array([[3.5, 0.3], [0.3, 3.5]]))\n"
        "certify_corollary_two(A, B, 0.3, -0.5, 0.5, s)\n"
        "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(youngbounds.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
