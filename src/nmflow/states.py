"""Quantum states and the trace-distance metric.

States are d x d complex density matrices. Validation tolerances:
Hermiticity and unit trace to 1e-12, least eigenvalue >= -1e-10
(dynamics.evolve_state applies the same rules with its own tolerances). The
library draws no random states: a pair search draws pair differences from
its own counter-based stream (see measure._directions).
"""
import numpy as np

from .linalg import _eigvalsh, hermitian_eigenvalues

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def check_complex_matrix(m, finite=True):
    """Validate and return a square complex matrix, with finite entries
    unless finite is False (for callers whose next check tests that)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if finite and not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


class DensityMatrix:
    """A validated quantum state: Hermitian, unit-trace, positive semidefinite."""

    def __init__(self, matrix):
        # Finiteness is the first of check_states' rules.
        m = check_complex_matrix(matrix, finite=False)
        check_states(m[None])
        self.matrix = m

    @classmethod
    def _checked(cls, m):
        """The state m, which the caller has checked by check_states' rules."""
        rho = cls.__new__(cls)
        rho.matrix = m
        return rho

    @property
    def dim(self):
        return self.matrix.shape[0]


class StatePair:
    """A pair of equal-dimension states, optionally labelled."""

    def __init__(self, rho1, rho2, label=None):
        if rho1.dim != rho2.dim:
            raise ValueError(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
        self.rho1, self.rho2, self.label = rho1, rho2, label

    @property
    def dim(self):
        return self.rho1.dim


def trace_distance(rho1, rho2):
    """Trace distance D = (1/2) sum |eigenvalues(rho1 - rho2)|, in [0, 1].

    The difference of two states is Hermitian, so D is half the absolute sum
    of its real eigenvalues; hermitian_eigenvalues checks that it is finite.
    """
    m1, m2 = (r.matrix if isinstance(r, DensityMatrix) else check_complex_matrix(r, finite=False)
              for r in (rho1, rho2))
    if m1.shape != m2.shape:
        raise ValueError(f"dimension mismatch: {m1.shape} vs {m2.shape}")
    d = 0.5 * float(np.sum(np.abs(hermitian_eigenvalues(m1 - m2, tol=1e-10))))
    if d > 1.0 + 1e-10:
        raise ValueError(f"trace distance {d} exceeds 1 beyond tolerance")
    return min(max(d, 0.0), 1.0)


def _failing_state(m, positivity_tol=POSITIVITY_TOL, trace_tol=TRACE_TOL):
    """(k, reason) for the first state k of the stack m, shape (n, d, d),
    that breaks a state rule, with the first rule it breaks, or None: finite,
    Hermitian to HERMITICITY_TOL, unit trace to trace_tol and least
    eigenvalue >= -positivity_tol (closed form for qubits, one stacked
    eigensolve for d > 2)."""
    finite = np.isfinite(m).all(axis=(1, 2))
    defect = np.abs(m - m.swapaxes(1, 2).conj()).max(axis=(1, 2))
    tr = np.trace(m, axis1=1, axis2=2)
    if m.shape[1] == 2:
        # Closed form of the least eigenvalue of a Hermitian 2x2 matrix.
        least = 0.5 * tr.real - np.hypot(0.5 * (m[:, 0, 0] - m[:, 1, 1]).real, np.abs(m[:, 0, 1]))
    else:
        least = _eigvalsh(np.where(finite[:, None, None], m, 0.0))[:, 0]
    # Written so that NaN fails too.
    ok = finite & (defect <= HERMITICITY_TOL) & (np.abs(tr - 1.0) <= trace_tol)
    ok &= least >= -positivity_tol
    if ok.all():
        return None
    k = int(np.argmin(ok))
    if not finite[k]:
        return k, "matrix has non-finite entries"
    if defect[k] > HERMITICITY_TOL:
        return k, f"state is not Hermitian: defect {defect[k]:.3e}"
    if abs(tr[k] - 1.0) > trace_tol:
        return k, f"state trace {tr[k]} differs from 1 beyond {trace_tol:.1e}"
    return k, f"state has eigenvalue {least[k]:.3e} below -{positivity_tol:.1e}"


def check_states(m):
    """Check a stack (n, d, d) of states at once: the first state that fails
    raises ValueError with the first rule it breaks (see _failing_state)."""
    if failing := _failing_state(m):
        raise ValueError(failing[1])


def bloch_from_qubit(rho):
    """Bloch vector (x, y, z) = (tr rho sigma_x, tr rho sigma_y, tr rho sigma_z)."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else check_complex_matrix(rho)
    if m.shape[0] != 2:
        raise ValueError(f"Bloch vector requires dim 2, got {m.shape[0]}")
    x, y, z = (float(np.trace(m @ s).real) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    if x * x + y * y + z * z > 1.0 + 1e-10:
        raise ValueError("Bloch vector lies outside the unit ball beyond tolerance")
    return x, y, z


def qubit_from_bloch(x, y, z):
    """State (I + x sigma_x + y sigma_y + z sigma_z) / 2."""
    m = 0.5 * (np.eye(2, dtype=complex) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)
    return DensityMatrix(m)


# --------------------------------------------------------------------------
# Text serialization: dimension header line, then row-major "re,im" entries,
# 17 significant digits. Round-trips binary64 exactly.
# --------------------------------------------------------------------------

def write_state_text(rho):
    m = rho.matrix if isinstance(rho, DensityMatrix) else check_complex_matrix(rho)
    lines = [str(m.shape[0])]
    for row in m:
        for z in row:
            lines.append(f"{z.real:.17g},{z.imag:.17g}")
    return "\n".join(lines) + "\n"


def read_state_text(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty state file")
    try:
        dim = int(lines[0])
    except ValueError:
        raise ValueError(f"line 1: expected integer dimension, got {lines[0]!r}")
    expected = dim * dim
    if len(lines) - 1 != expected:
        raise ValueError(f"expected {expected} entry lines for dim {dim}, got {len(lines) - 1}")
    entries = np.empty(expected, dtype=complex)
    for i, ln in enumerate(lines[1:]):
        parts = ln.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {i + 2}: expected 're,im', got {ln!r}")
        try:
            entries[i] = float(parts[0]) + 1j * float(parts[1])
        except ValueError:
            raise ValueError(f"line {i + 2}: non-numeric entry {ln!r}")
    return DensityMatrix(entries.reshape(dim, dim))


def save_state(rho, path):
    with open(path, "w") as fh:
        fh.write(write_state_text(rho))


def load_state(path):
    with open(path) as fh:
        try:
            return read_state_text(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
