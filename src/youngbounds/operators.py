"""Hermitian positive-definite matrices, operator means, and certificates.

The scalar mean-ratio bounds lift to the Loewner order: for positive
definite A, B the weighted arithmetic mean (1-v)A + vB and the weighted
geometric mean A^{1/2}(A^{-1/2}BA^{-1/2})^v A^{1/2} are comparable up to a
scalar factor whenever the pair is separated by a spectral sandwich
0 < m <= A <= m' < M' <= B <= M (or the same with A and B swapped).  This
module builds those means, checks Loewner inequalities with a normalized
eigenvalue margin, and certifies the two sandwich claims.

Everything about a pair (A, B) goes through one reduction: a Cholesky
factor A = LL* and the pencil matrix X = L^{-1}BL^{-*} (Golub & Van Loan,
section 8.7), computed once per pair and shared.  X is unitarily similar to
A^{-1/2}BA^{-1/2}, so it has the same spectrum, and since the Kubo-Ando mean
is congruence invariant (Kubo & Ando 1980; Bhatia, Positive Definite
Matrices, ch. 4) the geometric mean is A #_v B = L X^v L*, from one eigh of X.

The claims are checked on a spectrum, not on the means themselves.
Congruence by L^{-1} maps (1-v)A + vB <= c * A #_v B to (1-v)I + vX <= cX^v,
and both sides of the reduced claim are functions of X, so it holds exactly
when the scalar inequality (1-v) + v*lam <= c*lam^v holds at every
eigenvalue lam of X, computed as eigvalsh(X); the certificates of one pair
share it.  The explicit means stay public: loewner_leq on them is the
oracle the certificates are tested against.

The sandwich claim with two deformation parameters exists in two variants.
"as-stated" uses the constants exactly as the claim prints them (lower
argument ((h-1)/h)^2, upper argument (h'-1)^2 with h = M/m, h' = M'/m').
"interval-extremal" takes instead the extremal value of the pointwise
scalar bound over the full admissible spectral interval of A^{-1/2}BA^{-1/2}
(lower argument ((h'-1)/h')^2, upper argument (h-1)^2).  The extremal
variant is the one guaranteed by the pointwise bounds; the as-stated
constants can fail when h' < h and the spectrum reaches the interval ends,
so callers should inspect both margins rather than assume.
"""

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NotPositiveDefiniteError,
    SandwichViolationError,
)
from .scalar import _admit_r, _check_threshold, _dexp, _kantorovich

# Construction rejects matrices whose skew part exceeds this relative size.
HERMITIAN_TOL = 1e-12

# Relative floor under which an eigenvalue counts as not positive definite.
PD_FLOOR = 1e-12

# Tolerance for the four sandwich comparisons against scalar multiples of I.
SANDWICH_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """An immutable Hermitian matrix.

    Input is symmetrized ((X + X*)/2) on construction; anything farther than
    HERMITIAN_TOL (relative Frobenius) from Hermitian is rejected, not
    repaired, as is an empty or non-square matrix.  Spectral data is computed
    on first use and kept: the spectrum and the pencil reduction with the
    last partner B (see _pencil).
    """

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        X = np.array(self.entries, dtype=complex)
        if X.ndim != 2 or X.shape[0] != X.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {X.shape}")
        if X.size == 0:
            raise DimensionMismatchError(f"expected a non-empty matrix, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise DomainError("matrix entries must be finite")
        XH = X.conj().T
        D = X - XH
        # Frobenius norms as sqrt(<D, D>): one BLAS dot each, no norm() dispatch.
        deviation = math.sqrt(np.vdot(D, D).real)
        if deviation > HERMITIAN_TOL * max(1.0, math.sqrt(np.vdot(X, X).real)):
            raise DomainError(
                f"matrix is not Hermitian (relative skew {deviation:.3g})"
            )
        H = X + XH
        H *= 0.5
        H.setflags(write=False)
        object.__setattr__(self, "entries", H)
        object.__setattr__(self, "dim", H.shape[0])

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, values):
        return cls(np.diag(np.asarray(values, dtype=complex)))

    @cached_property
    def _spectrum(self):
        w = np.linalg.eigvalsh(self.entries)
        w.setflags(write=False)
        return w

    def eigenvalues(self):
        """Real eigenvalues in ascending order (computed once, read-only)."""
        return self._spectrum

    def norm2(self):
        """Spectral norm (largest absolute eigenvalue)."""
        w = self._spectrum
        return float(max(abs(w[0]), abs(w[-1])))

    def is_real(self):
        return bool(np.all(self.entries.imag == 0.0))


@dataclass(frozen=True)
class SandwichSpec:
    """Spectral sandwich constants 0 < m <= m' < M' <= M with a case tag.

    Case "i" declares m <= A <= m' < M' <= B <= M; case "ii" swaps the roles
    of A and B.  Derived ratios: h = M/m >= h' = M'/m' > 1.
    """

    m: float
    m_prime: float
    M_prime: float
    M: float
    case: str = "i"

    def __post_init__(self):
        values = (self.m, self.m_prime, self.M_prime, self.M)
        if not all(np.isfinite(values)):
            raise SandwichViolationError(f"sandwich constants must be finite, got {values}")
        if not 0.0 < self.m <= self.m_prime < self.M_prime <= self.M:
            raise SandwichViolationError(
                f"need 0 < m <= m' < M' <= M, got m={self.m}, m'={self.m_prime}, "
                f"M'={self.M_prime}, M={self.M}"
            )
        if self.case not in ("i", "ii"):
            raise SandwichViolationError(f"case must be 'i' or 'ii', got {self.case!r}")

    @property
    def h(self):
        return self.M / self.m

    @property
    def h_prime(self):
        return self.M_prime / self.m_prime


@dataclass(frozen=True)
class OperatorCertificate:
    """One Loewner-order claim checked for one matrix pair.

    The claim is checked on the reduced pair: with lam = spec(A^{-1/2}BA^{-1/2}),
    left = (1-v) + v*lam and right = c*lam^v (swapped for a lower claim).
    min_eigen_margin is min(right - left) / max(|left|, |right|), which is
    what loewner_leq reports for (diag(left), diag(right)); it does not
    change when A, B and the sandwich are scaled together.  It equals the
    margin of the explicit means when A = I.  holds <=> margin >= -tol, and
    tol is finite and >= 0.  variant is None for the single-parameter claim.
    """

    claim_id: str
    scalar_factor: float
    min_eigen_margin: float
    holds: bool
    variant: str | None
    tol: float


def _same_dim(A, B):
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dimension mismatch: {A.dim} vs {B.dim}")


def _check_weight(v):
    v = float(v)
    if not np.isfinite(v) or not 0.0 <= v <= 1.0:
        raise DomainError(f"weight must lie in [0, 1], got {v!r}")
    return v


def _require_pd(w):
    """Reject an ascending spectrum w whose least eigenvalue is not above
    PD_FLOOR relative to the largest magnitude."""
    if w[0] <= PD_FLOOR * max(abs(w[0]), abs(w[-1])) or w[0] <= 0.0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (min eigenvalue {w[0]:.3g})"
        )


def hermitian_power(A, p):
    """A^p by eigendecomposition; requires A positive definite."""
    w, Q = np.linalg.eigh(A.entries)
    _require_pd(w)
    X = (Q * w**float(p)) @ Q.conj().T
    return HermitianMatrix(0.5 * (X + X.conj().T))


def weighted_arithmetic(A, B, v):
    """(1-v)A + vB."""
    _same_dim(A, B)
    v = _check_weight(v)
    return HermitianMatrix((1.0 - v) * A.entries + v * B.entries)


def weighted_geometric(A, B, v):
    """A #_v B = L (L^{-1}BL^{-*})^v L* with A = LL*, for positive definite A, B.

    This is A^{1/2}(A^{-1/2}BA^{-1/2})^v A^{1/2}: the Kubo-Ando mean is
    congruence invariant, so any factor of A gives it.  The factor and the
    pencil matrix are the pair's shared reduction (see _pencil); B's
    definiteness is read off spec(L^{-1}BL^{-*}), which is spec(A^{-1/2}BA^{-1/2}).
    """
    _same_dim(A, B)
    v = _check_weight(v)
    _require_pd(A.eigenvalues())
    _, L, X, _ = _pencil(A, B)
    w, Q = np.linalg.eigh(X)
    _require_pd(w)
    C = L @ Q                                    # L X^v L* = C diag(w^v) C*
    return HermitianMatrix((C * w**v) @ C.conj().T)


def _relative(smallest, scale):
    """smallest / scale, or smallest itself when the scale is 0."""
    return smallest / scale if scale > 0.0 else smallest


def loewner_leq(A, B, tol=1e-10):
    """Does A <= B in the Loewner order, within a normalized tolerance?

    Returns (holds, margin) where margin is the smallest eigenvalue of B - A
    divided by max(||A||_2, ||B||_2) (undivided when both are 0) and
    holds <=> margin >= -tol, for a finite tol >= 0.  The margin does not
    change when A and B are scaled together.
    """
    _same_dim(A, B)
    _check_threshold("tol", tol)
    smallest = float(np.linalg.eigvalsh(B.entries - A.entries)[0])
    margin = _relative(smallest, max(A.norm2(), B.norm2()))
    return margin >= -tol, margin


def validate_sandwich(A, B, s):
    """Check the four scalar-multiple comparisons of the declared case.

    Each comparison of a matrix X with c*I gives the verdict loewner_leq
    would, read off the extreme eigenvalues of X.
    """
    _same_dim(A, B)
    low, high = (A, B) if s.case == "i" else (B, A)
    lo, hi = low.eigenvalues(), high.eigenvalues()

    def within(gap, c, X):
        return _relative(float(gap), max(c, X.norm2())) >= -SANDWICH_TOL

    return (
        within(lo[0] - s.m, s.m, low)
        and within(s.m_prime - lo[-1], s.m_prime, low)
        and within(hi[0] - s.M_prime, s.M_prime, high)
        and within(s.M - hi[-1], s.M, high)
    )


def _pencil(A, B):
    """The pair's reduction (weakref(B), L, X, lam) with A = LL* and
    X = L^{-1}BL^{-*}, symmetrized; lam is spec(X), or None until asked for.

    It is kept on A for the last B it was computed with, so the means and
    the certificates of one pair share one Cholesky factor and two solves.
    B is held by weak reference: A does not keep it alive.
    """
    memo = A.__dict__.get("_pencil")
    if memo is not None and memo[0]() is B:
        return memo
    try:
        L = np.linalg.cholesky(A.entries)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("matrix is not positive definite") from None
    Y = np.linalg.solve(L, B.entries)            # L^{-1}B
    X = np.linalg.solve(L, Y.conj().T)           # L^{-1}(L^{-1}B)* = L^{-1}BL^{-*}
    memo = (weakref.ref(B), L, 0.5 * (X + X.conj().T), None)
    A.__dict__["_pencil"] = memo
    return memo


def _pencil_spectrum(A, B):
    """spec(A^{-1/2}BA^{-1/2}) = eigvalsh(L^{-1}BL^{-*}) with A = LL*.

    Computed once per pair on the shared reduction and read-only.
    """
    memo = _pencil(A, B)
    if memo[3] is None:
        lam = np.linalg.eigvalsh(memo[2])
        lam.setflags(write=False)
        memo = memo[:3] + (lam,)
        A.__dict__["_pencil"] = memo
    return memo[3]


def _certify(A, B, v, s, tol, variant, claims):
    """Certificates of the pair for claims of rows (claim_id, upper, r, c, arg).

    Each claim has the factor exp_r(c v(1-v) arg), the catalog's deformed
    shape, and compares the reduced means on lam = spec(A^{-1/2}BA^{-1/2}):
    arithmetic <= factor * geometric for an upper claim, the reverse for a
    lower one.  The margin is loewner_leq's for (diag(left), diag(right)).
    A factor that is not a finite double (h or h' too large) raises DomainError.
    """
    _check_threshold("tol", tol)
    if not validate_sandwich(A, B, s):
        raise SandwichViolationError("matrices do not satisfy the declared sandwich")
    lam = _pencil_spectrum(A, B)
    arithmetic, geometric = (1.0 - v) + v * lam, lam**v
    certificates = []
    for claim_id, upper, r, c, arg in claims:
        factor = float(_dexp(r, c * v * (1.0 - v) * arg)) if math.isfinite(arg) else math.nan
        if not math.isfinite(factor):
            raise DomainError(f"{claim_id}: no finite scalar factor at h = {s.h!r}, "
                              f"h' = {s.h_prime!r} (argument {arg!r})")
        left, right = ((arithmetic, factor * geometric) if upper
                       else (factor * geometric, arithmetic))
        scale = max(float(np.abs(left).max()), float(np.abs(right).max()))
        margin = _relative(float((right - left).min()), scale)
        certificates.append(
            OperatorCertificate(claim_id, factor, margin, margin >= -tol, variant, tol))
    return certificates


def certify_corollary_one(A, B, v, r, s, tol=1e-10):
    """Certify arithmetic mean <= exp_r(4v(1-v)(K(h)-1)) * geometric mean.

    K is evaluated at h = M/m, the worst point of the admissible spectral
    interval in either case (K(1/h) = K(h)).  r is an upper bound's (None
    for the tightest, 1), and the sandwich must validate.
    """
    v = _check_weight(v)
    r = _admit_r("corollary-one", True, r)
    claim = ("corollary-one", True, r, 4.0, _kantorovich(s.h) - 1.0)
    return _certify(A, B, v, s, tol, None, (claim,))[0]


def certify_corollary_two(A, B, v, r1, r2, s, variant="as-stated", tol=1e-10):
    """Certify the two-sided sandwich claim; returns (lower, upper) certificates.

    lower: exp_{r1}((v(1-v)/2) * arg_lo) * geometric <= arithmetic,
    upper: arithmetic <= exp_{r2}((v(1-v)/2) * arg_hi) * geometric,
    with (arg_lo, arg_hi) = (((h-1)/h)^2, (h'-1)^2) as stated and
    (((h'-1)/h')^2, (h-1)^2) for the interval-extremal variant.  r1 is a
    lower bound's and r2 an upper bound's (None for the tightest, -1 and 1).
    """
    v = _check_weight(v)
    r1 = _admit_r("corollary-two-lower", False, r1)
    r2 = _admit_r("corollary-two-upper", True, r2)
    if variant not in ("as-stated", "interval-extremal"):
        raise DomainError(
            f"variant must be 'as-stated' or 'interval-extremal', got {variant!r}"
        )
    lo, hi = (s.h, s.h_prime) if variant == "as-stated" else (s.h_prime, s.h)
    arg_lo = ((lo - 1.0) / lo) ** 2
    try:
        arg_hi = (hi - 1.0) ** 2
    except OverflowError:  # hi past ~1.34e154: _certify rejects the inf
        arg_hi = math.inf
    return tuple(_certify(A, B, v, s, tol, variant, (
        ("corollary-two-lower", False, r1, 0.5, arg_lo),
        ("corollary-two-upper", True, r2, 0.5, arg_hi),
    )))


def haar_unitary(dim, rng):
    """Haar-distributed random unitary via QR of a complex Ginibre sample."""
    Z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R).copy()
    d[d == 0.0] = 1.0  # measure-zero guard
    return Q * (d / np.abs(d))


def random_hpd(dim, rng, eig_range=(0.5, 2.0)):
    """Random Hermitian positive-definite matrix with uniform eigenvalues."""
    U = haar_unitary(dim, rng)
    w = rng.uniform(eig_range[0], eig_range[1], dim)
    return HermitianMatrix((U * w) @ U.conj().T)


def random_sandwich_pair(s, dim, rng, commuting=True, max_tries=16):
    """An (A, B) pair satisfying the sandwich, built to order.

    The small matrix draws eigenvalues uniformly from [m, m'], the large one
    from [M', M].  With commuting=True both live in one Haar-random basis;
    otherwise the large matrix gets its own basis.  The pair is re-validated
    numerically before being returned.
    """
    for _ in range(max_tries):
        U = haar_unitary(dim, rng)
        V = U if commuting else haar_unitary(dim, rng)
        w_small = rng.uniform(s.m, s.m_prime, dim)
        w_large = rng.uniform(s.M_prime, s.M, dim)
        small = HermitianMatrix((U * w_small) @ U.conj().T)
        large = HermitianMatrix((V * w_large) @ V.conj().T)
        A, B = (small, large) if s.case == "i" else (large, small)
        if validate_sandwich(A, B, s):
            return A, B
    raise SandwichViolationError(
        f"could not build a sandwich-valid pair in {max_tries} attempts"
    )


def write_matrix(path, A):
    """Write one matrix in the plain-text format (header line, then rows)."""
    real_only = A.is_real()
    lines = [f"dim {A.dim}"]
    for row in A.entries:
        if real_only:
            lines.append(" ".join(f"{z.real:.17g}" for z in row))
        else:
            lines.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix(path):
    """Parse the plain-text matrix format; returns a HermitianMatrix.

    Format: first line "dim n", then n rows of n whitespace-separated
    entries, each anything complex() accepts ("1.5", "2+0.25j", ...).
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise DomainError(f"{path}: empty matrix file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "dim":
        raise DomainError(f"{path}: first line must be 'dim n', got {lines[0]!r}")
    try:
        n = int(header[1])
    except ValueError:
        raise DomainError(f"{path}: bad dimension {header[1]!r}") from None
    if n < 1:
        raise DomainError(f"{path}: dimension must be >= 1, got {n}")
    if len(lines) - 1 != n:
        raise DimensionMismatchError(f"{path}: expected {n} rows, found {len(lines) - 1}")
    data = np.empty((n, n), dtype=complex)
    for i, line in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) != n:
            raise DimensionMismatchError(
                f"{path}: row {i + 1} has {len(tokens)} entries, expected {n}"
            )
        for j, token in enumerate(tokens):
            try:
                data[i, j] = complex(token)
            except ValueError:
                raise DomainError(f"{path}: bad entry {token!r} at row {i + 1}") from None
    if not np.all(np.isfinite(data.real)) or not np.all(np.isfinite(data.imag)):
        raise DomainError(f"{path}: matrix entries must be finite")
    return HermitianMatrix(data)
