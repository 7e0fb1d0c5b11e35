import numpy as np
import pytest

from oracles import jacobi_eigenvalues

from nmflow.cli import main
from nmflow.exceptions import ConvergenceError
from nmflow.linalg import hermitian_eigenvalues


def random_hermitian(rng, shape):
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return a + np.swapaxes(a, -1, -2).conj()


def test_identity_eigenvalues():
    assert np.allclose(hermitian_eigenvalues(np.eye(2)), [1.0, 1.0])


def test_pauli_z_eigenvalues():
    sz = np.diag([1.0, -1.0])
    assert np.allclose(hermitian_eigenvalues(sz), [-1.0, 1.0])


def test_half_difference_closed_form():
    # The difference matrix behind D(excited projector, maximally mixed).
    m = np.diag([0.5, -0.5])
    assert np.allclose(hermitian_eigenvalues(m), [-0.5, 0.5])


@pytest.mark.parametrize("dim", [2, 3, 4, 6, 8])
def test_matches_reference_solver(dim):
    rng = np.random.default_rng(7 * dim)
    for _ in range(50):
        m = random_hermitian(rng, (dim, dim))
        w = hermitian_eigenvalues(m)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(w - jacobi_eigenvalues(m))) < 1e-10


def test_stack_equals_per_matrix_calls():
    stack = random_hermitian(np.random.default_rng(3), (2, 5, 4, 4))
    w = hermitian_eigenvalues(stack)
    assert w.shape == (2, 5, 4)
    for index in np.ndindex(2, 5):
        assert np.array_equal(w[index], hermitian_eigenvalues(stack[index]))


def test_non_hermitian_member_of_stack_rejected():
    stack = random_hermitian(np.random.default_rng(4), (3, 2, 2))
    stack[1, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(stack)


def test_solver_failure_is_convergence_error(monkeypatch, tmp_path):
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        hermitian_eigenvalues(np.eye(3))
    # A LinAlgError is a ValueError; the CLI must still report exit 3, not 2.
    # The clamped jc model's two-time maps are integrated and scored by the
    # Choi eigensolve.
    assert main(["divisibility", "--model", "jc", "--clamp-rate", "--horizon", "1",
                 "--grid-points", "2", "--step", "0.01",
                 "--output", str(tmp_path / "div.csv")]) == 3


def test_degenerate_spectrum():
    m = np.kron(np.eye(2), np.diag([2.0, 2.0]))
    assert np.allclose(hermitian_eigenvalues(m), [2.0, 2.0, 2.0, 2.0])


def test_non_hermitian_rejected():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        hermitian_eigenvalues(np.zeros((2, 3)))


def test_nan_rejected():
    m = np.diag([np.nan, 1.0])
    with pytest.raises(ValueError, match="finite"):
        hermitian_eigenvalues(m)
