"""Hermitian positive-definite matrices, operator means, and certificates.

The scalar mean-ratio bounds lift to the Loewner order: for positive
definite A, B the weighted arithmetic mean (1-v)A + vB and the weighted
geometric mean A^{1/2}(A^{-1/2}BA^{-1/2})^v A^{1/2} are comparable up to a
scalar factor whenever the pair is separated by a spectral sandwich
0 < m <= A <= m' < M' <= B <= M (or the same with A and B swapped).  This
module builds those means by Hermitian functional calculus, checks Loewner
inequalities with a normalized eigenvalue margin, and certifies the two
sandwich claims.

The claims are checked on a spectrum, not on the means themselves.
Congruence by A^{-1/2} maps (1-v)A + vB <= c * A #_v B to
(1-v)I + vX <= cX^v with X = A^{-1/2}BA^{-1/2}, and both sides of the
reduced claim are functions of X, so it holds exactly when the scalar
inequality (1-v) + v*lam <= c*lam^v holds at every eigenvalue lam of X.
spec(X) is the spectrum of the pencil (B, A), computed from a Cholesky
factor A = LL* as eigvalsh(L^{-1}BL^{-*}) (Golub & Van Loan, section 8.7).
The explicit means stay public: they are the oracle the reduction is tested
against.

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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NotPositiveDefiniteError,
    SandwichViolationError,
)
from .scalar import DeformParam, _dexp, kantorovich

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
    HERMITIAN_TOL (relative Frobenius) from Hermitian is rejected rather
    than silently repaired.
    """

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        X = np.array(self.entries, dtype=complex)
        if X.ndim != 2 or X.shape[0] != X.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {X.shape}")
        if not np.all(np.isfinite(X.real)) or not np.all(np.isfinite(X.imag)):
            raise DomainError("matrix entries must be finite")
        deviation = np.linalg.norm(X - X.conj().T)
        if deviation > HERMITIAN_TOL * max(1.0, np.linalg.norm(X)):
            raise DomainError(
                f"matrix is not Hermitian (relative skew {deviation:.3g})"
            )
        H = 0.5 * (X + X.conj().T)
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

    @cached_property
    def _eigh(self):
        return np.linalg.eigh(self.entries)

    def eigenvalues(self):
        """Real eigenvalues in ascending order (computed once, read-only)."""
        return self._spectrum

    def norm2(self):
        """Spectral norm (largest absolute eigenvalue)."""
        w = self._spectrum
        return float(max(abs(w[0]), abs(w[-1]))) if w.size else 0.0

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
    margin of the explicit means when A = I.  holds <=> margin >= -tol.
    variant is None for the single-parameter claim.
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


def _as_r(r):
    return r.r if isinstance(r, DeformParam) else float(r)


def _power_entries(A, p):
    """Entries of A^p from A's cached eigendecomposition, symmetrized as
    HermitianMatrix stores them; requires A positive definite."""
    w, Q = A._eigh
    if w[0] <= PD_FLOOR * max(abs(w[0]), abs(w[-1])) or w[0] <= 0.0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (min eigenvalue {w[0]:.3g})"
        )
    X = (Q * w**float(p)) @ Q.conj().T
    return 0.5 * (X + X.conj().T)


def hermitian_power(A, p):
    """A^p by eigendecomposition; requires A positive definite."""
    return HermitianMatrix(_power_entries(A, p))


def weighted_arithmetic(A, B, v):
    """(1-v)A + vB."""
    _same_dim(A, B)
    v = _check_weight(v)
    return HermitianMatrix((1.0 - v) * A.entries + v * B.entries)


def weighted_geometric(A, B, v):
    """A^{1/2} (A^{-1/2} B A^{-1/2})^v A^{1/2} for positive definite A, B."""
    _same_dim(A, B)
    v = _check_weight(v)
    root, inv_root = _power_entries(A, 0.5), _power_entries(A, -0.5)
    inner = HermitianMatrix(inv_root @ B.entries @ inv_root)
    return HermitianMatrix(root @ _power_entries(inner, v) @ root)


def _relative(smallest, scale):
    """smallest / scale, or smallest itself when the scale is 0."""
    return smallest / scale if scale > 0.0 else smallest


def loewner_leq(A, B, tol=1e-10):
    """Does A <= B in the Loewner order, within a normalized tolerance?

    Returns (holds, margin) where margin is the smallest eigenvalue of B - A
    divided by max(||A||_2, ||B||_2) (undivided when both are 0) and
    holds <=> margin >= -tol.  The margin does not change when A and B are
    scaled together.
    """
    _same_dim(A, B)
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


def _pencil_spectrum(A, B):
    """spec(A^{-1/2}BA^{-1/2}) = eigvalsh(L^{-1}BL^{-*}) with A = LL*."""
    try:
        L = np.linalg.cholesky(A.entries)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("matrix is not positive definite") from None
    Y = np.linalg.solve(L, B.entries)            # L^{-1}B
    X = np.linalg.solve(L, Y.conj().T)           # L^{-1}(L^{-1}B)* = L^{-1}BL^{-*}
    return np.linalg.eigvalsh(0.5 * (X + X.conj().T))


def _reduced_margin(left, right, tol):
    """(holds, margin) of loewner_leq(diag(left), diag(right)), from the vectors."""
    scale = max(float(np.abs(left).max()), float(np.abs(right).max()))
    margin = _relative(float((right - left).min()), scale)
    return margin >= -tol, margin


def certify_corollary_one(A, B, v, r, s, tol=1e-10):
    """Certify arithmetic mean <= exp_r(4v(1-v)(K(h)-1)) * geometric mean.

    K is evaluated at h = M/m, the worst point of the admissible spectral
    interval in either case (K(1/h) = K(h)).  Requires 0 < r <= 1 and a
    validated sandwich.
    """
    v = _check_weight(v)
    r = _as_r(r)
    if not 0.0 < r <= 1.0:
        raise DomainError(f"the single-parameter claim requires r in (0, 1], got {r}")
    if not validate_sandwich(A, B, s):
        raise SandwichViolationError("matrices do not satisfy the declared sandwich")
    factor = float(_dexp(r, 4.0 * v * (1.0 - v) * (kantorovich(s.h) - 1.0)))
    lam = _pencil_spectrum(A, B)
    holds, margin = _reduced_margin((1.0 - v) + v * lam, factor * lam**v, tol)
    return OperatorCertificate("corollary-one", factor, margin, holds, None, tol)


def certify_corollary_two(A, B, v, r1, r2, s, variant="as-stated", tol=1e-10):
    """Certify the two-sided sandwich claim; returns (lower, upper) certificates.

    lower: exp_{r1}((v(1-v)/2) * arg_lo) * geometric <= arithmetic,
    upper: arithmetic <= exp_{r2}((v(1-v)/2) * arg_hi) * geometric,
    with (arg_lo, arg_hi) = (((h-1)/h)^2, (h'-1)^2) as stated and
    (((h'-1)/h')^2, (h-1)^2) for the interval-extremal variant.
    Requires -1 <= r1 < 0 and 0 < r2 <= 1.
    """
    v = _check_weight(v)
    r1 = _as_r(r1)
    if not -1.0 <= r1 < 0.0:
        raise DomainError(f"the lower deformation requires r in [-1, 0), got {r1}")
    r2 = _as_r(r2)
    if not 0.0 < r2 <= 1.0:
        raise DomainError(f"the upper deformation requires r in (0, 1], got {r2}")
    if variant not in ("as-stated", "interval-extremal"):
        raise DomainError(
            f"variant must be 'as-stated' or 'interval-extremal', got {variant!r}"
        )
    if not validate_sandwich(A, B, s):
        raise SandwichViolationError("matrices do not satisfy the declared sandwich")

    h, hp = s.h, s.h_prime
    if variant == "as-stated":
        arg_lo, arg_hi = ((h - 1.0) / h) ** 2, (hp - 1.0) ** 2
    else:
        arg_lo, arg_hi = ((hp - 1.0) / hp) ** 2, (h - 1.0) ** 2
    half = 0.5 * v * (1.0 - v)
    lower_factor = float(_dexp(r1, half * arg_lo))
    upper_factor = float(_dexp(r2, half * arg_hi))

    lam = _pencil_spectrum(A, B)
    arithmetic, geometric = (1.0 - v) + v * lam, lam**v
    lo_holds, lo_margin = _reduced_margin(lower_factor * geometric, arithmetic, tol)
    hi_holds, hi_margin = _reduced_margin(arithmetic, upper_factor * geometric, tol)
    return (
        OperatorCertificate("corollary-two-lower", lower_factor, lo_margin, lo_holds,
                            variant, tol),
        OperatorCertificate("corollary-two-upper", upper_factor, hi_margin, hi_holds,
                            variant, tol),
    )


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
