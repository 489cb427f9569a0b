"""Matrix-side checks: construction, means, Loewner order, certificates, I/O."""

import gc
import math
import os
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
    HermitianMatrix,
    SandwichSpec,
    certify_corollary_one,
    certify_corollary_two,
    haar_unitary,
    hermitian_power,
    loewner_leq,
    random_hpd,
    random_sandwich_pair,
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
from youngbounds.operators import HERMITIAN_TOL, PD_FLOOR, _pencil_spectrum

relaxed = settings(deadline=None)


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
    # ||X||_F is 2 to within 1e-12, so the skew threshold is 2e-12, and a skew
    # of d on both off-diagonal entries has Frobenius norm d * sqrt(2).
    assert math.sqrt(2.0) * 1.3e-12 < 2.0 * HERMITIAN_TOL < math.sqrt(2.0) * 1.5e-12
    HermitianMatrix([[1.0, 1.0], [1.0 + 1.3e-12, 1.0]])
    with pytest.raises(DomainError,
                       match=r"^matrix is not Hermitian \(relative skew 2\.12e-12\)$"):
        HermitianMatrix([[1.0, 1.0], [1.0 + 1.5e-12, 1.0]])


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


# Past h ~ 1.34e154 the claims' squares overflow, and at M/m = inf their
# argument is nan: no verdict can be read off an infinite or nan factor.
@pytest.mark.parametrize("big, spec, claim, variant, message", [
    (4.0, (1.0, 1.0, 2.0, 1e160), "one", None,
     r"^corollary-one: no finite scalar factor at h = 1e\+160, h' = 2\.0 \(argument inf\)$"),
    (4.0, (1.0, 1.0, 2.0, 1e160), "two", "interval-extremal",
     r"^corollary-two-upper: no finite scalar factor at h = 1e\+160, h' = 2\.0 "),
    (2e160, (1.0, 1.0, 1e160, 3e160), "two", "as-stated",
     r"^corollary-two-upper: no finite scalar factor at h = 3e\+160, h' = 1e\+160 "),
    (4.0, (1e-200, 1.0, 2.0, 1e200), "one", None,
     r"^corollary-one: no finite scalar factor at h = inf, h' = 2\.0 \(argument nan\)$"),
    (4.0, (1e-200, 1.0, 2.0, 1e200), "two", "as-stated",
     r"^corollary-two-lower: no finite scalar factor at h = inf, "),
])
def test_claims_without_a_finite_factor_raise_domain_error(big, spec, claim, variant, message):
    A, B = HermitianMatrix.diagonal([1.0]), HermitianMatrix.diagonal([big])
    s = SandwichSpec(*spec)
    with pytest.raises(DomainError, match=message):
        if claim == "one":
            certify_corollary_one(A, B, 0.5, None, s)
        else:
            certify_corollary_two(A, B, 0.5, None, None, s, variant)


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
    ]
    for text, err in cases:
        path.write_text(text)
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
    np.testing.assert_allclose(_pencil_spectrum(A, B), lam, rtol=1e-12)
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
    assert _pencil_spectrum(*alone).tobytes() == _pencil_spectrum(*after_mean).tobytes()
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
        _pencil_spectrum(HermitianMatrix.diagonal([1.0, -1.0]), HermitianMatrix.identity(2))


def test_pencil_spectrum_follows_the_second_matrix():
    rng = np.random.default_rng(79)
    A, B1, B2 = random_hpd(5, rng), random_hpd(5, rng), random_hpd(5, rng)
    lam1 = _pencil_spectrum(A, B1)
    assert _pencil_spectrum(A, B1) is lam1
    lam2 = _pencil_spectrum(A, B2)
    fresh = _pencil_spectrum(HermitianMatrix(A.entries), B2)
    assert lam2.tobytes() == fresh.tobytes()
    assert lam2.tobytes() != lam1.tobytes()
    # an equal but distinct matrix is another B
    B2_copy = HermitianMatrix(B2.entries)
    assert _pencil_spectrum(A, B2_copy) is not lam2


def test_pencil_spectrum_is_read_only():
    rng = np.random.default_rng(83)
    lam = _pencil_spectrum(random_hpd(3, rng), random_hpd(3, rng))
    with pytest.raises(ValueError):
        lam[0] = 1.0


def test_pencil_memo_does_not_keep_b_alive():
    rng = np.random.default_rng(89)
    A, B = random_hpd(3, rng), random_hpd(3, rng)
    lam = _pencil_spectrum(A, B)
    ref = weakref.ref(B)
    del B
    gc.collect()
    assert ref() is None
    # the memo no longer matches anything; a new B is computed afresh
    B_new = random_hpd(3, rng)
    assert _pencil_spectrum(A, B_new) is not lam


def test_operator_layer_imports_numpy_only():
    # scipy and mpmath are installed in some environments but are not
    # dependencies of the package; the operator path must not pull them in.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import youngbounds\n"
        "from youngbounds import SandwichSpec, certify_corollary_two, random_sandwich_pair\n"
        "s = SandwichSpec(1.0, 1.2, 3.0, 4.0)\n"
        "A, B = random_sandwich_pair(s, 4, np.random.default_rng(0))\n"
        "certify_corollary_two(A, B, 0.3, -0.5, 0.5, s)\n"
        "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(youngbounds.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
