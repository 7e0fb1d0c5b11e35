"""Time-local master-equation integration and divisibility analysis.

The generator is d rho/dt = -i[H(t), rho] + sum_i gamma_i(t) (A_i rho A_i^dag
- {A_i^dag A_i, rho}/2) with rates that may go negative. Two-parameter
propagators Phi(t2, t1) are products of fixed-step RK4 step maps; their
complete positivity is decided through the Choi matrix.

Superoperators act on column-stacked density matrices: vec(rho) stacks the
columns, so vec(A rho B) = (B^T kron A) vec(rho). The integrators work with
real maps instead: a map that preserves Hermiticity is real in an orthonormal
Hermitian operator basis B, as B^dag S B, and the public outputs go back to
column-stacked complex maps only at the edge.
"""
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .exceptions import InvariantViolation, NumericalError
from .linalg import _eigvalsh, hermitian_eigenvalues, hermiticity_defect
from .states import DensityMatrix, check_complex_matrix

TRACE_DRIFT_TOL = 1e-8
EVOLVE_POSITIVITY_TOL = 1e-8
PROPAGATOR_TOL = 1e-8
DEFAULT_CP_TOL = 1e-7
# RK4 steps whose step maps are built together; bounds the stage-matrix memory.
STEP_BLOCK = 256


@dataclass
class GeneratorSpec:
    """Time-local generator data: H(t) plus (jump operator, rate) channels.

    hamiltonian and jump operators are either constant d x d matrices or
    callables t -> matrix; rates are constants or callables t -> real. Rates
    may be negative. Constant fields let the integrators precompute the
    superoperator structure once per run.
    """

    dim: int
    hamiltonian: object
    channels: List[Tuple[object, object]]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")


def constant_generator(hamiltonian, channels):
    """GeneratorSpec from constant matrices and rates."""
    h = check_complex_matrix(hamiltonian)
    dim = h.shape[0]
    fixed = []
    for op, rate in channels:
        op = check_complex_matrix(op)
        if op.shape[0] != dim:
            raise ValueError("channel operator dimension mismatch")
        fixed.append((op, float(rate)))
    return GeneratorSpec(dim=dim, hamiltonian=h, channels=fixed)


def _operator(gen, k, t=None):
    """Operator of term k of the generator at time t (None for a constant): k = 0
    is the Hamiltonian, which must be Hermitian, k > 0 the jump operator of channel k - 1."""
    op = gen.hamiltonian if k == 0 else gen.channels[k - 1][0]
    m = check_complex_matrix(op(t) if callable(op) else op)
    what, at = "jump operator" if k else "hamiltonian", "" if t is None else f" at t={t}"
    if m.shape[0] != gen.dim:
        raise ValueError(f"{what}{at} has dimension {m.shape[0]}, expected {gen.dim}")
    if k == 0 and (defect := hermiticity_defect(m)) > 1e-10:
        at = "" if t is None else f"(t={t})"
        raise ValueError(f"hamiltonian{at} not Hermitian: defect {defect:.3e}")
    return m


def _eval_rates(rate_fn, times):
    """Rates at every time in the array, using a vectorized call when the
    callable supports it."""
    if not callable(rate_fn):
        out = np.full(times.size, float(rate_fn))
    else:
        try:
            out = np.asarray(rate_fn(times), dtype=float)
            if out.shape != times.shape:
                raise TypeError
        except (TypeError, ValueError):
            out = np.array([float(rate_fn(t)) for t in times])
    if not np.all(np.isfinite(out)):
        bad = times[~np.isfinite(out)][0]
        raise ValueError(f"non-finite rate at t={bad}")
    return out


def _hermitian_basis(d):
    """Columns: the column-stacked orthonormal Hermitian basis E_jj,
    (E_jk + E_kj)/sqrt(2) and i(E_jk - E_kj)/sqrt(2), j < k."""
    f = np.zeros((d * d, d, d), dtype=complex)  # f[a] is the a-th basis matrix
    f[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    j, k = np.triu_indices(d, 1)
    sym, anti = d + 2 * np.arange(j.size), d + 2 * np.arange(j.size) + 1
    f[sym, j, k] = f[sym, k, j] = math.sqrt(0.5)
    f[anti, j, k], f[anti, k, j] = 1j * math.sqrt(0.5), -1j * math.sqrt(0.5)
    return f.transpose(0, 2, 1).reshape(d * d, d * d).T


def _kron(a, b):
    """np.kron of square matrices of one size, broadcast over the leading axes."""
    d = a.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (d * d, d * d))


class _CompiledGenerator:
    """Superoperator evaluator in the real basis B of _hermitian_basis.

    K(t) is one sum over terms: the Hamiltonian's -i[H, rho], then each
    channel's rate times its dissipator, each term's piece as the real
    B^dag K B. A constant operator's piece is made once, here; a callable
    operator is evaluated and checked at every time asked for, and its pieces
    are made for all those times at once.
    """

    def __init__(self, gen):
        self.gen = gen
        self.basis = b = _hermitian_basis(gen.dim)
        # For qubits, B R B^dag of flattened real maps R is one real product
        # with this (16, 32) matrix, which gives the interleaved real and
        # imaginary parts of the flattened complex maps.
        self.kron = _kron(b.T, b.T.conj()).view(float) if gen.dim == 2 else None
        ops = [gen.hamiltonian] + [op for op, _ in gen.channels]
        self.pieces = [None if callable(op) else self.piece(k, _operator(gen, k))
                       for k, op in enumerate(ops)]

    def piece(self, k, a):
        """The real piece of term k (see _operator) for its operator a, or the
        stacked pieces for a stack of operators: -i[H, rho] for the
        Hamiltonian, A rho A^dag - {A^dag A, rho}/2 for a jump operator."""
        eye = np.eye(self.gen.dim, dtype=complex)
        if k == 0:
            return self.real(-1j * (_kron(eye, a) - _kron(a.swapaxes(-1, -2), eye)))
        anti = a.conj().swapaxes(-1, -2) @ a
        s = _kron(a.conj(), a) - 0.5 * (_kron(eye, anti) + _kron(anti.swapaxes(-1, -2), eye))
        return self.real(s)

    def real(self, s):
        """B^dag S B of maps S that preserve Hermiticity, stacked (..., d^2, d^2)."""
        return (self.basis.conj().T @ s @ self.basis).real

    def complex(self, r, out):
        """The column-stacked maps B R B^dag of the real maps R, stacked (m,
        d^2, d^2), written into the complex out."""
        if self.kron is None:
            np.matmul(self.basis @ r, self.basis.conj().T, out=out)
        else:
            np.matmul(r.reshape(len(r), 16), self.kron, out=out.reshape(len(r), 16).view(float))
        return out

    def matrices(self, times):
        """Stacked real K(t) for an array of times, shape (len(times), d^2, d^2)."""
        times = np.asarray(times, dtype=float)
        pieces = list(self.pieces)
        live = [k for k, piece in enumerate(pieces) if piece is None]
        if live:
            # Time by time, so that the first offending time raises.
            ops = np.array([[_operator(self.gen, k, t) for k in live] for t in times])
            for k, stack in zip(live, ops.swapaxes(0, 1)):
                pieces[k] = self.piece(k, stack)
        ks = np.broadcast_to(pieces[0], (times.size,) + pieces[0].shape[-2:]).copy()
        for piece, (_, rate_fn) in zip(pieces[1:], self.gen.channels):
            ks += _eval_rates(rate_fn, times)[:, None, None] * piece
        return ks


def apply_generator(gen, t, rho):
    """Right-hand side -i[H, rho] + sum_i gamma_i (A rho A^dag - {A^dag A, rho}/2)
    at time t, through the compiled K(t) at that one time."""
    rho = check_complex_matrix(rho)
    if rho.shape[0] != gen.dim:
        raise ValueError(f"state dimension {rho.shape[0]} != generator dim {gen.dim}")
    compiled = _CompiledGenerator(gen)
    x = compiled.basis.conj().T @ rho.reshape(-1, order="F")
    return (compiled.basis @ (compiled.matrices([t])[0] @ x)).reshape(rho.shape, order="F")


def _check_uniform_grid(t_grid):
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time grid needs at least two points")
    steps = np.diff(t)
    if np.any(steps <= 0):
        raise ValueError("time grid must be strictly increasing")
    h = steps[0]
    if np.max(np.abs(steps - h)) > 1e-12 * max(1.0, abs(t[-1])):
        raise ValueError("time grid must be uniform")
    return t, float(h)


def _rk4_increments(compiled, times, h):
    """Increments R - I of classical RK4 step maps R of dS/dt = K(t) S, real
    and shaped (m, g, d^2, d^2), for steps of g intervals: row 2j of times,
    shape (2m + 1, g), is the left point of step j, row 2j + 1 its midpoint
    and row 2j + 2 its right point; h has shape (g,).

    RK4 is linear, so its increment on the identity is the map's. Adding
    E v to v, instead of forming R v, keeps the rounding of the 1 + O(h)
    entries of R out of every step. The stage sum k1 + 2 k2 + 2 k3 + k4 is
    accumulated in that order as the stages are made, so that at most two
    stages are held at once; k1 = K, and its -0.0 entries turn +0.0 in the
    sum, as they would in the product K @ I.
    """
    d2 = compiled.gen.dim ** 2
    ks = compiled.matrices(times.ravel()).reshape(times.shape + (d2, d2))
    ka, km, kb = ks[:-1:2], ks[1::2], ks[2::2]
    h = h[:, None, None]
    eye = np.eye(d2)
    k = km @ (eye + 0.5 * h * ka)
    acc = ka + 2.0 * k
    k = km @ (eye + 0.5 * h * k)
    acc += 2.0 * k
    k = kb @ (eye + h * k)
    acc += k
    acc *= h / 6.0
    return acc


def _running_maps(compiled, t0, h, n):
    """Real Phi(t0 + k h, t0), k = 1..n, of g <= STEP_BLOCK intervals
    integrated in lockstep (t0 and h of shape (g,)), as (k0, maps) per block
    of m <= STEP_BLOCK // g steps from step k0, with maps[j] = Phi(t0 + (k0 +
    j + 1) h, t0) of shape (g, d^2, d^2), so that a block holds at most
    STEP_BLOCK steps' stage matrices however the steps split into intervals.

    A block's RK4 increments E_j are composed by a Hillis-Steele prefix scan
    that never forms the identity, (I + B)(I + A) = I + (A + B + BA):
    ceil(log2 m) batched products turn E_j into P_j - I for P_j = (I + E_j)
    ... (I + E_0), and one more, S + (P_j - I) S, applies them to the carried
    map S.

    Raises InvariantViolation at the first time where a map has a non-finite
    entry (a generator that blows up at this step). The check runs when the
    consumer asks for the next block, so that it can first check the block it
    holds and name an earlier time of its own. Its consumers silence NumPy's
    overflow warnings by np.errstate, so that this exception is the one
    report (an errstate set in here would leak to them across each yield).
    """
    d2 = compiled.gen.dim ** 2
    s = np.broadcast_to(np.eye(d2), (t0.size, d2, d2))
    block = STEP_BLOCK // t0.size
    for k0 in range(0, n, block):
        times = t0 + 0.5 * h * np.arange(2 * k0, 2 * min(k0 + block, n) + 1)[:, None]
        maps = _rk4_increments(compiled, times, h)
        shift = 1
        while shift < len(maps):
            later = maps[shift:] @ maps[:-shift]
            later += maps[:-shift]
            maps[shift:] += later
            shift *= 2
        np.add(s, maps @ s, out=maps)
        yield k0, maps
        bad = ~np.isfinite(maps).all(axis=(2, 3))
        if bad.any():
            j, i = np.unravel_index(np.argmax(bad), bad.shape)
            t_bad = t0[i] + (k0 + 1 + j) * h[i]
            raise InvariantViolation(f"propagator has non-finite entries at t={t_bad:.6g}")
        s = maps[-1]


@np.errstate(over="ignore", invalid="ignore")
def _interval_maps(compiled, t0, h, n):
    """Phi(t0 + n h, t0) of g intervals with the same step count n >= 1,
    stacked (g, d^2, d^2) and column-stacked complex. Only the running maps
    are kept, so memory does not grow with n."""
    for _, maps in _running_maps(compiled, t0, h, n):
        pass
    return compiled.complex(maps[-1], np.empty(maps[-1].shape, dtype=complex))


def _substeps(span, h):
    """RK4 step count ceil(span / h), at least 1, and the equal step span / count
    that fills each span exactly. The slack is relative, so that the rounding
    of span / h adds no step however far the span lies from 0."""
    if not np.all(np.isfinite(span)):
        raise ValueError(f"interval length must be finite, got {span}")
    if not np.all(np.asarray(h) > 0):
        raise ValueError(f"step must be positive, got {h}")
    n = np.maximum(1, np.ceil(span / h * (1.0 - 1e-12))).astype(int)
    return n, span / n


@np.errstate(over="ignore", invalid="ignore")
def evolve_state(gen, rho0, t_grid, positivity_tol=EVOLVE_POSITIVITY_TOL):
    """RK4 solution of the master equation sampled on a uniform grid from 0.

    The real maps of the flow (as in propagator_grid) act on rho0's real
    coordinates in the Hermitian basis, so every state is Hermitian by
    construction. The states of each block of the flow are checked at once:
    trace drift beyond 1e-8 or an eigenvalue below -positivity_tol raises
    InvariantViolation naming the first offending grid time.
    """
    t, h = _check_uniform_grid(t_grid)
    if abs(t[0]) > 1e-15:
        raise ValueError(f"time grid must start at 0, got {t[0]}")
    rho0 = rho0.matrix if isinstance(rho0, DensityMatrix) else check_complex_matrix(rho0)
    if rho0.shape[0] != gen.dim:
        raise ValueError(f"state dimension {rho0.shape[0]} != generator dim {gen.dim}")

    d = gen.dim
    compiled = _CompiledGenerator(gen)
    x = np.empty((t.size, d * d))
    x[0] = (compiled.basis.conj().T @ rho0.reshape(-1, order="F")).real
    states = np.empty((t.size, d, d), dtype=complex)
    a = 0
    for k0, maps in _running_maps(compiled, t[:1], np.array([h]), t.size - 1):
        b = k0 + 1 + len(maps)
        x[k0 + 1 : b] = maps[:, 0] @ x[0]
        m = states[a:b] = (x[a:b] @ compiled.basis.T).reshape(-1, d, d).swapaxes(1, 2)
        # A non-finite state is left to the flow's own check, or to DensityMatrix.
        finite = np.isfinite(m).all(axis=(1, 2))
        drift = np.abs(np.trace(m, axis1=1, axis2=2).real - 1.0)
        least = _eigvalsh(np.where(finite[:, None, None], m, 0.0))[:, 0]
        bad = (drift > TRACE_DRIFT_TOL) | (least < -positivity_tol)
        if bad.any():
            k = np.argmax(bad)
            if drift[k] > TRACE_DRIFT_TOL:
                raise InvariantViolation(
                    f"trace drift {drift[k]:.3e} beyond {TRACE_DRIFT_TOL:.1e} at t={t[a + k]}"
                )
            raise InvariantViolation(
                f"state eigenvalue {least[k]:.3e} below -{positivity_tol:.1e} at t={t[a + k]} "
                "(step too coarse, or the generator is not CP)"
            )
        a = b
    # Trace is monitored, never silently renormalized.
    return [
        DensityMatrix(m, positivity_tol=positivity_tol, trace_tol=TRACE_DRIFT_TOL) for m in states
    ]


@dataclass
class Propagator:
    """Linear map on states for [t_start, t_end], as a d^2 x d^2 superoperator."""

    dim: int
    t_start: float
    t_end: float
    superoperator: np.ndarray

    def __post_init__(self):
        s = check_complex_matrix(self.superoperator)
        d = self.dim
        if s.shape[0] != d * d:
            raise ValueError(f"superoperator shape {s.shape} != ({d * d}, {d * d})")
        _check_maps(s[None], d)
        self.superoperator = s

    def apply(self, rho):
        """Apply the map to a matrix (not necessarily a valid state)."""
        m = rho.matrix if isinstance(rho, DensityMatrix) else check_complex_matrix(rho)
        v = self.superoperator @ m.reshape(-1, order="F")
        return v.reshape(self.dim, self.dim, order="F")


def _check_maps(s, d):
    """Raise InvariantViolation unless every map of the stack s, shape
    (g, d^2, d^2), preserves trace and Hermiticity."""
    # Trace preservation: the adjoint must fix vec(identity).
    w = np.eye(d, dtype=complex).reshape(-1)
    tp_defect = np.max(np.abs(w @ s - w))
    if tp_defect > PROPAGATOR_TOL:
        raise InvariantViolation(f"propagator not trace preserving: defect {tp_defect:.3e}")
    # Hermiticity preservation, entrywise: S[(i,j),(k,l)] = conj(S[(j,i),(l,k)]);
    # s5[g, j, i, l, k] = S[(i,j),(k,l)].
    s5 = s.reshape(-1, d, d, d, d)
    hp_defect = np.max(np.abs(s5 - s5.transpose(0, 2, 1, 4, 3).conj()))
    if hp_defect > PROPAGATOR_TOL:
        raise InvariantViolation(
            f"propagator not Hermiticity preserving: defect {hp_defect:.3e}"
        )


def propagator_between(gen, t1, t2, h):
    """Phi(t2, t1) by RK4 on dS/dt = K(t) S from the identity, in
    ceil((t2 - t1) / h) equal steps; memory does not grow with the step count.

    The degenerate interval t1 == t2 returns the identity map.
    """
    if t2 < t1:
        raise ValueError(f"need t1 <= t2, got {t1} > {t2}")
    d = gen.dim
    s = np.eye(d * d, dtype=complex)
    if t2 > t1:
        n, step = _substeps(np.array([t2 - t1], dtype=float), h)
        s = _interval_maps(_CompiledGenerator(gen), np.array([t1], dtype=float), step, n[0])[0]
    return Propagator(dim=d, t_start=float(t1), t_end=float(t2), superoperator=s)


@np.errstate(over="ignore", invalid="ignore")
def propagator_grid(gen, t_grid):
    """Phi(t_k, 0) for every grid point, one RK4 step per grid interval.

    Returns an array of shape (len(t_grid), d^2, d^2). The grid step is the
    integration step, as in evolve_state. Raises InvariantViolation at the
    first time where Phi has a non-finite entry.
    """
    t, h = _check_uniform_grid(t_grid)
    d2 = gen.dim * gen.dim
    compiled = _CompiledGenerator(gen)
    phis = np.empty((t.size, d2, d2), dtype=complex)
    phis[0] = np.eye(d2, dtype=complex)
    for k0, maps in _running_maps(compiled, t[:1], np.array([h]), t.size - 1):
        compiled.complex(maps[:, 0], out=phis[k0 + 1 : k0 + 1 + len(maps)])
    return phis


def _choi_matrices(s, d):
    """Choi matrices of the stack of maps s, shape (g, d^2, d^2), made exactly
    Hermitian; raises InvariantViolation if a trace is not d."""
    # s5[g, b, a, k, j] = Phi(E_jk)[a, b]: column j + d*k of S is vec(Phi(E_jk)).
    s5 = s.reshape(-1, d, d, d, d)
    c = s5.transpose(0, 4, 2, 3, 1).reshape(-1, d * d, d * d)
    c = 0.5 * (c + c.conj().swapaxes(1, 2))
    tr = np.trace(c, axis1=1, axis2=2).real
    bad = np.abs(tr - d) > 1e-8
    if bad.any():
        raise InvariantViolation(
            f"Choi trace {tr[np.argmax(bad)]} differs from {d} beyond 1e-8 "
            "(map not trace preserving)"
        )
    return c


def choi_of(p):
    """Choi matrix C = sum_jk E_jk kron Phi(E_jk) of a propagator, Hermitian,
    assembled from images of the matrix units."""
    return _choi_matrices(p.superoperator[None], p.dim)[0]


def _check_cp_tol(tol):
    # Written so that NaN fails it too.
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")


def is_cp(p, tol=DEFAULT_CP_TOL):
    """Complete-positivity verdict: (least Choi eigenvalue >= -tol, that eigenvalue)."""
    _check_cp_tol(tol)
    least = float(hermitian_eigenvalues(choi_of(p), tol=1e-9)[0])
    return least >= -tol, least


@dataclass
class IntervalVerdict:
    t_start: float
    t_end: float
    is_cp: bool
    least_choi_eigenvalue: float


@dataclass
class DivisibilityReport:
    intervals: List[IntervalVerdict]

    @property
    def divisible(self):
        return all(v.is_cp for v in self.intervals)


def _lockstep_groups(n):
    """(start, stop) of the runs of consecutive intervals with the same step
    count n[k], cut so that a group of more than one interval holds at most
    STEP_BLOCK steps."""
    a = 0
    while a < n.size:
        b = a + 1
        while b < n.size and b - a < STEP_BLOCK // n[a] and n[b] == n[a]:
            b += 1
        yield a, b
        a = b


def divisibility_report(gen, t_grid, tol=DEFAULT_CP_TOL, h=None):
    """CP verdict for Phi(t_{k+1}, t_k) on every consecutive grid interval.

    h is the RK4 substep used to build each interval propagator; it defaults
    to 1/100 of the interval length. The generator is compiled once, and
    consecutive intervals with the same step count are integrated in lockstep,
    in groups of at most STEP_BLOCK steps whose Choi matrices go to one
    stacked eigensolve. A group that fails is re-run one interval at a time,
    so that the exception names the first failing interval.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size < 2:
        raise ValueError("divisibility grid needs at least two points")
    span = np.diff(t)
    if np.any(span <= 0):
        raise ValueError("divisibility grid must be strictly increasing")
    _check_cp_tol(tol)
    n, step = _substeps(span, span / 100.0 if h is None else h)
    compiled = _CompiledGenerator(gen)

    def least_choi_eigenvalues(a, b):
        maps = _interval_maps(compiled, t[a:b], step[a:b], n[a])
        _check_maps(maps, gen.dim)
        return hermitian_eigenvalues(_choi_matrices(maps, gen.dim), tol=1e-9)[:, 0]

    least = []
    for a, b in _lockstep_groups(n):
        try:
            least.extend(least_choi_eigenvalues(a, b))
        except (NumericalError, ValueError):
            for k in range(a, b):
                try:
                    least.extend(least_choi_eigenvalues(k, k + 1))
                except (NumericalError, ValueError) as exc:
                    # Name the interval in place: rebuilding the exception would
                    # need its constructor's signature, and its type sets the
                    # exit code.
                    exc.args = (f"interval {k} [{t[k]}, {t[k + 1]}]: {exc}",)
                    raise
    return DivisibilityReport([
        IntervalVerdict(float(t[k]), float(t[k + 1]), bool(v >= -tol), float(v))
        for k, v in enumerate(least)
    ])
