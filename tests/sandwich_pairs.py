"""Random sandwich-valid matrix pairs for the operator tests and acceptance
criterion 6: test inputs, not verdicts, so they live beside the tests."""

import numpy as np

from youngbounds import HermitianMatrix, validate_sandwich
from youngbounds.errors import SandwichViolationError

# Draws random_sandwich_pair makes before it gives up.
_SANDWICH_TRIES = 16


def haar_unitary(dim, rng):
    """Haar-distributed random unitary via QR of a complex Ginibre sample."""
    Z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R).copy()
    d[d == 0.0] = 1.0  # measure-zero guard
    return Q * (d / np.abs(d))


def random_sandwich_pair(s, dim, rng, commuting=True):
    """An (A, B) pair satisfying the sandwich, built to order.

    The small matrix draws eigenvalues uniformly from [m, m'], the large one
    from [M', M].  With commuting=True both live in one Haar-random basis;
    otherwise the large matrix gets its own basis.  The pair is re-validated
    numerically before being returned.
    """
    for _ in range(_SANDWICH_TRIES):
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
        f"could not build a sandwich-valid pair in {_SANDWICH_TRIES} attempts"
    )
