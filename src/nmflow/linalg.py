"""Hermitian eigenvalues for the trace distance and the Choi test.

A checked wrapper around LAPACK's eigvalsh: one matrix or a stack of shape
(..., d, d) is rejected unless every matrix is square, finite and Hermitian
to the tolerance, so bad input fails loudly instead of being read through
its lower triangle.
"""
import numpy as np

from .exceptions import ConvergenceError

HERMITICITY_TOL = 1e-10


def hermiticity_defect(m):
    """Max-norm of m - m^dagger, over every matrix of a stack."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()))) if m.size else 0.0


def hermitian_eigenvalues(m, tol=HERMITICITY_TOL):
    """Real eigenvalues, sorted ascending, of a Hermitian matrix or of each
    matrix in a stack of shape (..., d, d)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ValueError(
            f"matrix is not Hermitian: max |m - m^dag| = {defect:.3e} > {tol:.1e}"
        )
    return _eigvalsh(m)


def _eigvalsh(m):
    """eigvalsh of complex matrices already checked to be finite and Hermitian."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        # LinAlgError is a ValueError, which the CLI would report as bad input.
        raise ConvergenceError(f"Hermitian eigensolver failed: {exc}") from exc
