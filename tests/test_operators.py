"""Matrix-side checks: construction, means, Loewner order, certificates, I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from youngbounds.operators import _pencil_spectrum

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
    with pytest.raises(DimensionMismatchError):
        HermitianMatrix(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        HermitianMatrix(np.zeros(4))
    with pytest.raises(DomainError):
        HermitianMatrix([[np.inf, 0.0], [0.0, 1.0]])


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


def test_spectral_verdicts_match_explicit_means():
    rng = np.random.default_rng(53)
    n_instances, n_violated = 0, 0
    for k in range(330):
        dim = 64 if k % 110 == 109 else k % 8 + 1
        case = "i" if k % 2 == 0 else "ii"
        v = (k % 11) / 10.0
        s = random_spec(rng, case)
        A, B = random_sandwich_pair(s, dim, rng, commuting=(k // 2) % 2 == 0)
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


def count_eig_calls(monkeypatch, fn):
    calls = []
    for name in ("eigh", "eigvalsh"):
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

    assert count_eig_calls(monkeypatch, lambda: validate_sandwich(*fresh(), s)) == 2
    assert count_eig_calls(
        monkeypatch, lambda: certify_corollary_one(*fresh(), 0.3, 0.5, s)) == 3
    assert count_eig_calls(
        monkeypatch, lambda: certify_corollary_two(*fresh(), 0.3, -0.5, 0.5, s)) == 3
    assert count_eig_calls(monkeypatch, lambda: weighted_geometric(*fresh(), 0.3)) == 2


def test_pencil_spectrum_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        _pencil_spectrum(HermitianMatrix.diagonal([1.0, -1.0]), HermitianMatrix.identity(2))
