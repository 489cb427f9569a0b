"""Hermitian positive-definite matrices, operator means, and certificates.

The scalar mean-ratio bounds lift to the Loewner order: for positive
definite A, B the weighted arithmetic mean (1-v)A + vB and the weighted
geometric mean A^{1/2}(A^{-1/2}BA^{-1/2})^v A^{1/2} are comparable up to a
scalar factor whenever the pair is separated by a spectral sandwich
0 < m <= A <= m' < M' <= B <= M (or the same with A and B swapped).  This
module builds those means, checks Loewner inequalities with a normalized
eigenvalue margin, and certifies the two sandwich claims.

Everything about a pair (A, B) goes through one value, its _Pencil: a
Cholesky factor A = LL*, the pencil matrix X = L^{-1}BL^{-*} (Golub & Van
Loan, section 8.7), its spectrum lam and the last weight's reduced means,
which the means and certificates of the pair share.  A keeps the pencil of
its last B, and apart from it the last (B, s) whose sandwich validated, both
by weak reference to B: validate_sandwich remembers s on success (never a
failed s) and factors nothing, and a certificate validates only a pair it
does not remember, so an instance that validates and then certifies
validates once.  X is unitarily similar to A^{-1/2}BA^{-1/2}, so it has the
same spectrum, and since the Kubo-Ando mean is congruence invariant (Kubo &
Ando 1980; Bhatia, Positive Definite Matrices, ch. 4) the geometric mean is
A #_v B = L X^v L*, from one eigh of X.

The claims are checked on a spectrum, not on the means themselves.
Congruence by L^{-1} maps (1-v)A + vB <= c * A #_v B to (1-v)I + vX <= cX^v,
and both sides of the reduced claim are functions of X, so it holds exactly
when the scalar inequality (1-v) + v*lam <= c*lam^v holds at every
eigenvalue lam of X.  The explicit means stay public: loewner_leq on them
is the oracle the certificates are tested against.

Each claim's factor is its catalog row's kernel at an end of [h', h]
(h = M/m, h' = M'/m'; case ii's spectrum lies in [1/h, 1/h'], and the rows
are equal at t and 1/t): corollary one is C33-expr at h, corollary two
C38-lo and C38-hi at ends its variant picks.  "as-stated" reads them at h
and h', the constants as the claim prints them; "interval-extremal" at h'
and h, the extremal values of the pointwise bounds over the interval, which
they guarantee.  The as-stated constants can fail when h' < h and the
spectrum reaches the interval ends, so inspect both margins.
"""

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import catalog
from .errors import (
    DimensionMismatchError,
    DomainError,
    NotPositiveDefiniteError,
    SandwichViolationError,
)
from .scalar import _admit_r, _admit_v, _check_threshold, _record

# Construction rejects matrices whose skew part exceeds this relative size.
HERMITIAN_TOL = 1e-12

# Below this ||X||_F^2, or where it overflows, the Hermitian check rescales X.
# From here up no square overflows, and a skew square that underflows is far
# below HERMITIAN_TOL^2 ||X||_F^2, so the verdict is the scaled matrix's.
_FROBENIUS_SQ_MIN = 2.0 ** -900

# Relative floor under which an eigenvalue counts as not positive definite.
PD_FLOOR = 1e-12

# Tolerance for the four sandwich comparisons against scalar multiples of I.
SANDWICH_TOL = 1e-10


def _frobenius_sq(X):
    """||X||_F^2 as <X, X>, one BLAS dot, no norm() dispatch; inf where it
    overflows, and not finite where an entry is not."""
    return np.vdot(X, X).real


def _relative_skew(X, XH, norm_sq):
    """||X - X*||_F / ||X||_F for finite X, its conjugate transpose XH and
    norm_sq = ||X||_F^2; 0 for X = 0.

    Where norm_sq leaves [_FROBENIUS_SQ_MIN, inf) the ratio is taken on X
    scaled by an exact power of two, part by part: numpy's complex division
    by a subnormal real gives inf and NaN.
    """
    if _FROBENIUS_SQ_MIN <= norm_sq < math.inf:
        D = X - XH
        return math.sqrt(np.vdot(D, D).real / norm_sq)
    peak = max(np.abs(X.real).max(), np.abs(X.imag).max())
    if peak == 0.0:
        return 0.0
    e = int(np.frexp(peak)[1])
    Y = np.ldexp(X.real, -e) + 1j * np.ldexp(X.imag, -e)
    return _relative_skew(Y, Y.conj().T, _frobenius_sq(Y))


class _lazy:
    """A non-data descriptor: the first read of the attribute calls fn and
    stores its value in the instance dict, where later reads find it.  This
    is cached_property without the lock Python 3.11 takes on each first read."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """An immutable Hermitian matrix.

    Input is symmetrized on construction: (X + X*)/2, or X/2 + X*/2 where
    ||X||_F^2 overflows.  A matrix whose skew ||X - X*||_F exceeds
    HERMITIAN_TOL * ||X||_F, with no floor, is rejected, not repaired, at
    any scale, as is an empty or non-square matrix.  The spectrum and its
    ends are computed on first use and kept, as are the _Pencil with the last
    partner B (_pencil) and the last (B, s) that validated (validate_sandwich).
    """

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        X = np.array(self.entries, dtype=complex)
        if X.ndim != 2 or X.shape[0] != X.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {X.shape}")
        if X.size == 0:
            raise DimensionMismatchError(f"expected a non-empty matrix, got shape {X.shape}")
        # A finite ||X||_F^2 has finite entries, so only another norm needs
        # the entrywise test.
        norm_sq = _frobenius_sq(X)
        if not norm_sq < math.inf and not np.isfinite(X).all():
            raise DomainError("matrix entries must be finite")
        XH = X.conj().T
        relative = _relative_skew(X, XH, norm_sq)
        if relative > HERMITIAN_TOL:
            raise DomainError(f"matrix is not Hermitian (relative skew {relative:.3g})")
        if norm_sq < math.inf:
            # (X + X*)/2: every entry is below sqrt(DBL_MAX), so the sum is
            # finite, and halving the sum keeps an odd subnormal's last bit.
            X += XH
            X *= 0.5
        else:
            # X/2 + X*/2: the sum overflows for entries above DBL_MAX/2.
            X *= 0.5
            XH *= 0.5
            X += XH
        X.setflags(write=False)
        object.__setattr__(self, "entries", X)
        object.__setattr__(self, "dim", X.shape[0])

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, values):
        return cls(np.diag(np.asarray(values, dtype=complex)))

    @_lazy
    def _spectrum(self):
        """(eigenvalues, least, greatest, norm): the eigenvalues read-only and
        ascending, the rest floats, norm the largest magnitude of the two ends."""
        w = np.linalg.eigvalsh(self.entries)
        w.setflags(write=False)
        least, greatest = float(w[0]), float(w[-1])
        return w, least, greatest, max(abs(least), abs(greatest))

    def eigenvalues(self):
        """Real eigenvalues in ascending order (computed once, read-only)."""
        return self._spectrum[0]

    def norm2(self):
        """Spectral norm (largest absolute eigenvalue)."""
        return self._spectrum[3]

    def is_real(self):
        return bool(np.all(self.entries.imag == 0.0))

    def __getstate__(self):
        # The pair memos hold B by weak reference, which does not pickle; a
        # copy builds its own.
        return {k: v for k, v in self.__dict__.items() if k not in ("_pencil", "_sandwich")}


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
        if not all(map(math.isfinite, values)):
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


@_record
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
    return _admit_v("weight", float(v))  # the message quotes v as a float


def _require_pd(least, greatest):
    """Reject a spectrum whose least eigenvalue is not above PD_FLOOR
    relative to the largest magnitude; least and greatest are floats."""
    if least <= PD_FLOOR * max(abs(least), abs(greatest)) or least <= 0.0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (min eigenvalue {least:.3g})"
        )


def hermitian_power(A, p):
    """A^p by eigendecomposition; requires A positive definite."""
    w, Q = np.linalg.eigh(A.entries)
    _require_pd(float(w[0]), float(w[-1]))
    return HermitianMatrix((Q * w**float(p)) @ Q.conj().T)  # the constructor symmetrizes


def weighted_arithmetic(A, B, v):
    """(1-v)A + vB."""
    _same_dim(A, B)
    v = _check_weight(v)
    return HermitianMatrix((1.0 - v) * A.entries + v * B.entries)


def weighted_geometric(A, B, v):
    """A #_v B = L (L^{-1}BL^{-*})^v L* with A = LL*, for positive definite A, B.

    This is A^{1/2}(A^{-1/2}BA^{-1/2})^v A^{1/2}: the Kubo-Ando mean is
    congruence invariant, so any factor of A gives it.  L and the pencil
    matrix come from the pair's _Pencil; B's definiteness is read off
    spec(L^{-1}BL^{-*}), which is spec(A^{-1/2}BA^{-1/2}).
    """
    _same_dim(A, B)
    v = _check_weight(v)
    _require_pd(*A._spectrum[1:3])
    pencil = _pencil(A, B)
    w, Q = np.linalg.eigh(pencil.X)
    _require_pd(float(w[0]), float(w[-1]))
    C = pencil.L @ Q                             # L X^v L* = C diag(w^v) C*
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
    would, read off the extreme eigenvalues of X.  On success A remembers
    (B, s), by weak reference to B, so the pair's certificates under s do
    not validate again; a failed s is never remembered, and nothing is
    factored.
    """
    _same_dim(A, B)
    low, high = (A, B) if s.case == "i" else (B, A)
    _, low_least, low_greatest, low_norm = low._spectrum
    _, high_least, high_greatest, high_norm = high._spectrum

    def within(gap, c, norm):
        return _relative(gap, max(c, norm)) >= -SANDWICH_TOL

    holds = (
        within(low_least - s.m, s.m, low_norm)
        and within(s.m_prime - low_greatest, s.m_prime, low_norm)
        and within(high_least - s.M_prime, s.M_prime, high_norm)
        and within(s.M - high_greatest, s.M, high_norm)
    )
    if holds:
        A.__dict__["_sandwich"] = weakref.ref(B), s
    return holds


class _Pencil:
    """The reduction of the pair with entry arrays a, b: a = LL* and
    X = L^{-1}bL^{-*}, symmetrized; lam = spec(X), read-only, on first use.
    means is _certify's memo of the last weight's reduced means."""

    def __init__(self, a, b):
        self.means = None
        try:
            self.L = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError("matrix is not positive definite") from None
        Y = np.linalg.solve(self.L, b)           # L^{-1}B
        X = np.linalg.solve(self.L, Y.conj().T)  # L^{-1}(L^{-1}B)* = L^{-1}BL^{-*}
        self.X = 0.5 * (X + X.conj().T)

    @_lazy
    def lam(self):
        lam = np.linalg.eigvalsh(self.X)
        lam.setflags(write=False)
        return lam


def _pencil(A, B):
    """The pair's _Pencil, shared by its means and certificates: A keeps it
    for the last B, held by weak reference so that A does not keep B alive."""
    memo = A.__dict__.get("_pencil")
    if memo is None or memo[0]() is not B:
        memo = A.__dict__["_pencil"] = weakref.ref(B), _Pencil(A.entries, B.entries)
    return memo[1]


# Each claim is (claim id, catalog row): the row's side and kernel, read at
# an end of [h', h], with r admitted under the claim id.
_ONE = ("corollary-one", catalog._lookup("C33-expr"))
_TWO = (("corollary-two-lower", catalog._lookup("C38-lo")),
        ("corollary-two-upper", catalog._lookup("C38-hi")))


def _admit(claim_id, row, r):
    return _admit_r(claim_id, row.spec.side == catalog.UPPER, r)


def _certify(A, B, v, s, tol, variant, claims):
    """Yield the pair's certificates for rows (claim, end, r), each factor the
    kernel of the claim's catalog row at t = end with the admitted r.

    Each compares the reduced means on lam = spec(A^{-1/2}BA^{-1/2}):
    arithmetic <= factor * geometric for an upper claim, the reverse for a
    lower one, the row's margin with the arithmetic mean as R.  The margin
    is loewner_leq's for the two diagonals.  An overflow in the factor's exp
    or log is numpy's, under the caller's np.errstate; its squares are float
    products and overflow to inf silently.  A factor that is not a finite
    double (h or h' too large) raises DomainError.  The pair validates only
    when A does not remember (B, s) from validate_sandwich (s matched by
    identity), and its _Pencil keeps the last v's means, so one pair's
    certificates validate and reduce once.

    Where lam[0] > 0, as for every validated pencil (lam ascends), both means
    are >= 0 and so is every factor, an exp_r value: |.| is the identity, and
    as rounding is monotone, max(factor * geometric) is factor * max(geometric),
    the same double.  So the scales are read without an |.| pass, and a
    pencil with lam[0] <= 0 keeps the |.| expressions.
    """
    _check_threshold("tol", tol)
    kept = A.__dict__.get("_sandwich")
    if kept is None or kept[0]() is not B or kept[1] is not s:
        if not validate_sandwich(A, B, s):
            raise SandwichViolationError("matrices do not satisfy the declared sandwich")
    pencil = _pencil(A, B)
    if pencil.means is None or pencil.means[0] != v:
        lam = pencil.lam
        arithmetic, geometric = (1.0 - v) + v * lam, lam**v
        if lam[0] > 0.0:
            scales = float(np.maximum.reduce(arithmetic)), float(np.maximum.reduce(geometric))
        else:
            scales = float(np.abs(arithmetic).max()), None
        pencil.means = v, arithmetic, geometric, *scales
    _, arithmetic, geometric, arithmetic_scale, geometric_max = pencil.means
    for (claim_id, row), end, r in claims:
        factor = float(row.kernel(end, v, r))
        if not math.isfinite(factor):
            raise DomainError(f"{claim_id}: no finite scalar factor at h = {s.h!r}, "
                              f"h' = {s.h_prime!r} ({row.id} at t = {end!r})")
        bound = factor * geometric
        bound_scale = (float(np.abs(bound).max()) if geometric_max is None
                       else factor * geometric_max)
        smallest = float(np.minimum.reduce(row.margin.sub(bound, arithmetic)))
        margin = _relative(smallest, max(arithmetic_scale, bound_scale))
        yield OperatorCertificate(claim_id, factor, margin, margin >= -tol, variant, tol)


def certify_corollary_one(A, B, v, r, s, tol=1e-10):
    """Certify arithmetic mean <= C33-expr(h) * geometric mean.

    C33-expr(h) = exp_r(4v(1-v)(K(h)-1)), at h = M/m, the worst end of the
    spectral interval in either case.  r is an upper bound's (None for the
    tightest, 1), and the sandwich must validate.
    """
    v = _check_weight(v)
    return next(_certify(A, B, v, s, tol, None, ((_ONE, s.h, _admit(*_ONE, r)),)))


def certify_corollary_two(A, B, v, r1, r2, s, variant="as-stated", tol=1e-10):
    """Certify the two-sided sandwich claim; returns (lower, upper) certificates.

    lower: C38-lo(lo) * geometric <= arithmetic, with r1,
    upper: arithmetic <= C38-hi(hi) * geometric, with r2, at the ends
    (lo, hi) = (h, h') as stated and (h', h) interval-extremal.  r1 is a
    lower bound's and r2 an upper bound's (None for the tightest, -1 and 1).
    """
    v = _check_weight(v)
    rs = _admit(*_TWO[0], r1), _admit(*_TWO[1], r2)
    if variant not in ("as-stated", "interval-extremal"):
        raise DomainError(
            f"variant must be 'as-stated' or 'interval-extremal', got {variant!r}"
        )
    ends = (s.h, s.h_prime) if variant == "as-stated" else (s.h_prime, s.h)
    return tuple(_certify(A, B, v, s, tol, variant, zip(_TWO, ends, rs)))


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

    ASCII format: first line "dim n", then n rows of n whitespace-separated
    entries, each anything complex() accepts ("1.5", "2+0.25j", ...).
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: non-ASCII byte 0x{exc.object[exc.start]:02x}") from None
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
