"""Time-local master-equation integration and divisibility analysis.

The generator is d rho/dt = -i[H(t), rho] + sum_i gamma_i(t) (A_i rho A_i^dag
- {A_i^dag A_i, rho}/2) with rates that may go negative. Two-parameter
propagators Phi(t2, t1) are products of fixed-step RK4 step maps; their
complete positivity is decided through the Choi matrix.

A map is a plain (d^2, d^2) complex array, and a stack of maps (..., d^2,
d^2); maps act on column-stacked density matrices: vec(rho) stacks the
columns, so vec(A rho B) = (B^T kron A) vec(rho). The integrators work with
real maps instead: a map that preserves Hermiticity is real in an orthonormal
Hermitian operator basis B, as B^dag S B, and the public outputs go back to
column-stacked complex maps only at the edge.
"""
import math
from typing import List, NamedTuple

import numpy as np

from .exceptions import InvariantViolation, NumericalError
from .linalg import hermitian_eigenvalues, hermiticity_defect
from .states import DensityMatrix, _failing_state, check_complex_matrix

TRACE_DRIFT_TOL = 1e-8
EVOLVE_POSITIVITY_TOL = 1e-8
PROPAGATOR_TOL = 1e-8
DEFAULT_CP_TOL = 1e-7
# RK4 steps whose step maps are built together in a flow, which bounds the
# stage-matrix memory, and grid points per block of a flow stream; a block of
# two-time maps holds STEP_BLOCK * 16 / d^2 steps (_group_steps).
STEP_BLOCK = 256


class GeneratorSpec:
    """Time-local generator data: H(t) plus (jump operator, rate) channels.

    hamiltonian and jump operators are either constant d x d matrices or
    callables t -> matrix; rates are constants or callables t -> real. Rates
    may be negative. Constant fields let the integrators precompute the
    superoperator structure once per run.
    """

    def __init__(self, dim, hamiltonian, channels):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim, self.hamiltonian, self.channels = dim, hamiltonian, channels


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

    def complex(self, r):
        """The column-stacked complex maps B R B^dag of the real maps R, stacked
        (m, d^2, d^2)."""
        out = np.empty(r.shape, dtype=complex)
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


def _check_uniform_grid(t_grid):
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time grid needs at least two points")
    steps = np.diff(t)
    if not np.all((steps > 0) & (steps < np.inf)):  # NaN fails it too
        raise ValueError("time grid must be finite and strictly increasing")
    h = steps[0]
    if np.max(np.abs(steps - h)) > 1e-12 * max(1.0, abs(t[-1])):
        raise ValueError("time grid must be uniform")
    return t, float(h)


def _rk4_increments(compiled, times, h):
    """Increments R - I of classical RK4 step maps R of dS/dt = K(t) S, real
    and shaped (m, ..., d^2, d^2): row 2j of times, shape (2m + 1, ...), is
    the left point of step j, row 2j + 1 its midpoint and row 2j + 2 its
    right point, and h, a step or an array of shape times.shape[1:], the step.

    RK4 is linear, so its increment on the identity is the map's. Adding
    E v to v, instead of forming R v, keeps the rounding of the 1 + O(h)
    entries of R out of every step. The stage sum k1 + 2 k2 + 2 k3 + k4 is
    accumulated in that order as the stages are made, so that at most two
    stages are held at once; k1 = K, and its -0.0 entries turn +0.0 in the
    sum, as they would in the product K @ I.

    Raises InvariantViolation at the first stage time where h ||K(t)||_inf,
    the largest absolute row sum of the real stage matrix times the step,
    exceeds 1: a step that the generator's rates outrun, as across a pole of
    a rate, whose RK4 map cannot be trusted.
    """
    d2 = compiled.gen.dim ** 2
    ks = compiled.matrices(times.ravel()).reshape(times.shape + (d2, d2))
    # Row sums by one matrix-vector product; the largest of each stage time
    # only if the largest of all, times the largest step, exceeds 1.
    rows = np.abs(ks).reshape(-1, d2) @ np.ones(d2)
    if not rows.max() * np.max(h) <= 1.0:  # NaN fails it too
        hk = rows.reshape(times.shape + (d2,)).max(axis=-1) * h
        if not np.all(hk <= 1.0):
            i = np.unravel_index(np.argmin(np.where(hk <= 1.0, np.inf, times)), times.shape)
            raise InvariantViolation(
                f"step {np.broadcast_to(h, times.shape)[i]:.6g} cannot resolve the generator "
                f"at t={times[i]:.6g}: h*||K|| = {hk[i]:.3g} > 1")
    ka, km, kb = ks[:-1:2], ks[1::2], ks[2::2]
    h = np.asarray(h)[..., None, None]
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
    """Real Phi(t0 + k h, t0), k = 1..n, of one interval, as (k0, maps) per
    block of m <= STEP_BLOCK steps from step k0, with maps[j] = Phi(t0 + (k0
    + j + 1) h, t0), stacked (m, d^2, d^2).

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
    s = np.eye(compiled.gen.dim ** 2)
    for k0 in range(0, n, STEP_BLOCK):
        times = t0 + 0.5 * h * np.arange(2 * k0, 2 * min(k0 + STEP_BLOCK, n) + 1)
        maps = _rk4_increments(compiled, times, h)
        shift = 1
        while shift < len(maps):
            later = maps[shift:] @ maps[:-shift]
            later += maps[:-shift]
            maps[shift:] += later
            shift *= 2
        np.add(s, maps @ s, out=maps)
        yield k0, maps
        bad = ~np.isfinite(maps).all(axis=(1, 2))
        if bad.any():
            t_bad = t0 + (k0 + 1 + np.argmax(bad)) * h
            raise InvariantViolation(f"propagator has non-finite entries at t={t_bad:.6g}")
        s = maps[-1]


def _group_steps(d):
    """RK4 steps whose stage matrices a block of two-time maps holds at d:
    STEP_BLOCK at d = 4, more below it and fewer above, at least one."""
    return max(1, STEP_BLOCK * 16 // d ** 2)


@np.errstate(over="ignore", invalid="ignore")
def _interval_maps(compiled, t0, h, n):
    """Phi(t0 + n h, t0) of g intervals with the same step count n >= 1,
    integrated in lockstep (t0 and h of shape (g,)), stacked (g, d^2, d^2)
    and column-stacked complex.

    An interval needs only its last map, so no prefix is formed: the RK4
    increments E_j of a block of m <= _group_steps(d) // g steps are
    multiplied pairwise, (I + B)(I + A) = I + (A + B + BA), from the block's
    end, a tree that gives the last map of _running_maps' scan in m - 1
    products, ceil(log2 m) batched. S + P S carries the block's I + P into
    the running map S, so memory does not grow with n. An interval whose
    map has a non-finite entry is made again by _running_maps, one at a
    time, which raises InvariantViolation at the first time where one appears.
    """
    d2 = compiled.gen.dim ** 2
    s = np.broadcast_to(np.eye(d2), (t0.size, d2, d2))
    block = _group_steps(compiled.gen.dim) // t0.size
    for k0 in range(0, n, block):
        times = t0 + 0.5 * h * np.arange(2 * k0, 2 * min(k0 + block, n) + 1)[:, None]
        e = _rk4_increments(compiled, times, h)
        while len(e) > 1:
            odd = len(e) % 2
            earlier, later = e[odd::2], e[odd + 1 :: 2]
            product = later @ earlier
            product += earlier
            later += product
            e = e[1 - odd :: 2]
        s = s + e[0] @ s
    for i in np.flatnonzero(~np.isfinite(s).all(axis=(1, 2))):
        for _, maps in _running_maps(compiled, t0[i], h[i], n):
            pass
        s[i] = maps[-1]
    return compiled.complex(s)


def _substeps(span, h):
    """RK4 step count ceil(span / h), at least 1, and the equal step span / count
    that fills each span exactly. The slack is relative, so that the rounding
    of span / h adds no step however far the span lies from 0. A count that
    an int64 cannot hold is refused, as the cast would wrap it."""
    if not np.all(np.isfinite(span)):
        raise ValueError(f"interval length must be finite, got {span}")
    if not np.all(np.asarray(h) > 0):
        raise ValueError(f"step must be positive, got {h}")
    with np.errstate(over="ignore"):
        n = np.maximum(1.0, np.ceil(span / h * (1.0 - 1e-12)))
    if not np.all(n < 2.0 ** 63):
        k = np.argmin(n < 2.0 ** 63)
        raise ValueError(f"interval length {span[k]} over step {np.broadcast_to(h, span.shape)[k]} "
                         "needs more RK4 steps than an int64 count holds")
    return n.astype(int), span / n


@np.errstate(over="ignore", invalid="ignore")
def evolve_state(gen, rho0, t_grid):
    """RK4 solution of the master equation sampled on a uniform grid from 0.

    The real maps of the flow (as in propagator_grid) act on rho0's real
    coordinates in the Hermitian basis, so every state is Hermitian, with a
    real trace, by construction. The states of each block of the flow are
    checked at once by check_states' rules, with trace drift allowed to
    TRACE_DRIFT_TOL and eigenvalues down to -EVOLVE_POSITIVITY_TOL: the first
    state that fails raises InvariantViolation with its rule and grid time.
    So the returned DensityMatrix objects are built without a second check.
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
    for k0, maps in _running_maps(compiled, t[0], h, t.size - 1):
        b = k0 + 1 + len(maps)
        x[k0 + 1 : b] = maps @ x[0]
        states[a:b] = (x[a:b] @ compiled.basis.T).reshape(-1, d, d).swapaxes(1, 2)
        if failing := _failing_state(states[a:b], EVOLVE_POSITIVITY_TOL, TRACE_DRIFT_TOL):
            raise InvariantViolation(f"{failing[1]} at t={t[a + failing[0]]}")
        a = b
    # Trace is monitored, never silently renormalized.
    return [DensityMatrix._checked(m) for m in states]


def _check_maps(s):
    """s, a map or a stack of maps (..., d^2, d^2), as a complex array, and d.
    Raises ValueError unless s has that shape and finite entries, and
    InvariantViolation unless every map preserves trace and Hermiticity to
    PROPAGATOR_TOL; where the largest entry times the machine epsilon
    exceeds that tolerance, the message says that the map's scale is beyond
    double-precision resolution instead."""
    s = np.asarray(s, dtype=complex)
    d = math.isqrt(s.shape[-1]) if s.ndim >= 2 else 0
    if s.ndim < 2 or s.shape[-2] != s.shape[-1] or d * d != s.shape[-1] or s.size == 0:
        raise ValueError(f"expected a (d^2, d^2) map or a stack of them, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("map has non-finite entries")

    def refuse(what, defect):
        # Entries so large that their rounding alone exceeds the tolerance
        # leave the defect unresolved: it says nothing of the generator.
        scale = np.max(np.abs(s))
        if scale * np.finfo(float).eps > PROPAGATOR_TOL:
            raise InvariantViolation(
                f"propagator entries reach {scale:.3e}, a scale beyond double-precision "
                f"resolution: its {what} defect {defect:.3e} cannot be checked to "
                f"{PROPAGATOR_TOL:.0e}")
        raise InvariantViolation(f"propagator not {what} preserving: defect {defect:.3e}")

    # Trace preservation: the adjoint must fix vec(identity).
    w = np.eye(d, dtype=complex).reshape(-1)
    tp_defect = np.max(np.abs(w @ s - w))
    if tp_defect > PROPAGATOR_TOL:
        refuse("trace", tp_defect)
    # Hermiticity preservation, entrywise: S[(i,j),(k,l)] = conj(S[(j,i),(l,k)]);
    # s5[g, j, i, l, k] = S[(i,j),(k,l)].
    s5 = s.reshape(-1, d, d, d, d)
    hp_defect = np.max(np.abs(s5 - s5.transpose(0, 2, 1, 4, 3).conj()))
    if hp_defect > PROPAGATOR_TOL:
        refuse("Hermiticity", hp_defect)
    return s, d


def propagator_between(gen, t1, t2, h):
    """Phi(t2, t1) by RK4 on dS/dt = K(t) S from the identity, in
    ceil((t2 - t1) / h) equal steps; memory does not grow with the step count.
    The map, a (d^2, d^2) array, is checked by _check_maps.

    The degenerate interval t1 == t2 returns the identity map. A non-finite
    endpoint makes the length t2 - t1 inf or NaN, which _substeps refuses.
    """
    if not t1 <= t2:  # NaN fails it too
        raise ValueError(f"need t1 <= t2, got t1={t1}, t2={t2}")
    s = np.eye(gen.dim ** 2, dtype=complex)
    n, step = _substeps(np.array([t2 - t1], dtype=float), h)
    if t2 > t1:
        s = _interval_maps(_CompiledGenerator(gen), np.array([t1], dtype=float), step, n[0])[0]
    return _check_maps(s)[0]


def flow_blocks(gen, t_grid):
    """Phi(t_k, 0) for every grid point, one RK4 step per grid interval, as
    a stream of (k0, block): block[j] is the column-stacked complex
    Phi(t_{k0 + j}, 0), shape (d^2, d^2). The identity comes first, as the
    block at k0 = 0, then one block per block of _running_maps, so that only
    one block of the flow is held at a time. The grid step is the
    integration step, as in evolve_state.

    The grid is checked when the first block is asked for. Raises
    InvariantViolation at the first time where Phi has a non-finite entry,
    when the block after it is asked for. The consumer silences NumPy's
    overflow warnings (see _running_maps).
    """
    t, h = _check_uniform_grid(t_grid)
    compiled = _CompiledGenerator(gen)
    yield 0, np.eye(gen.dim * gen.dim, dtype=complex)[None]
    for k0, maps in _running_maps(compiled, t[0], h, t.size - 1):
        yield k0 + 1, compiled.complex(maps)


@np.errstate(over="ignore", invalid="ignore")
def propagator_grid(gen, t_grid):
    """The blocks of flow_blocks in one array of shape (len(t_grid), d^2,
    d^2). Raises InvariantViolation at the first time where Phi has a
    non-finite entry.
    """
    t, _ = _check_uniform_grid(t_grid)
    phis = np.empty((t.size, gen.dim ** 2, gen.dim ** 2), dtype=complex)
    for k0, block in flow_blocks(gen, t):
        phis[k0 : k0 + len(block)] = block
    return phis


def choi_of(s):
    """Choi matrix C = sum_jk E_jk kron Phi(E_jk) of a map, or of each map of
    a stack (..., d^2, d^2), assembled from images of the matrix units and
    made exactly Hermitian. The maps are checked by _check_maps; a Choi
    trace other than d raises InvariantViolation too."""
    s, d = _check_maps(s)
    # s5[g, b, a, k, j] = Phi(E_jk)[a, b]: column j + d*k of S is vec(Phi(E_jk)).
    s5 = s.reshape(-1, d, d, d, d)
    c = s5.transpose(0, 4, 2, 3, 1).reshape(-1, d * d, d * d)
    c = 0.5 * (c + c.conj().swapaxes(1, 2))
    tr = np.trace(c, axis1=1, axis2=2).real
    bad = np.abs(tr - d) > 1e-8
    if bad.any():
        raise InvariantViolation(f"Choi trace {tr[np.argmax(bad)]} differs from {d} beyond 1e-8 "
                                 "(map not trace preserving)")
    return c.reshape(s.shape)


def _check_cp_tol(tol):
    # Written so that NaN fails it too.
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")


def is_cp(s, tol=DEFAULT_CP_TOL):
    """Complete-positivity verdict of a map, or of each map of a stack (...,
    d^2, d^2) (see choi_of): (least Choi eigenvalue >= -tol, that
    eigenvalue), NumPy scalars for a map and arrays of shape ... for a stack."""
    _check_cp_tol(tol)
    least = hermitian_eigenvalues(choi_of(s), tol=1e-9)[..., 0]
    return least >= -tol, least


class IntervalVerdict(NamedTuple):
    t_start: float
    t_end: float
    is_cp: bool
    least_choi_eigenvalue: float


class DivisibilityReport(NamedTuple):
    intervals: List[IntervalVerdict]

    @classmethod
    def of(cls, grid, least, tol):
        """The report of the grid's intervals whose maps have the least Choi
        eigenvalues least: an interval is CP where its eigenvalue is >= -tol."""
        _check_cp_tol(tol)
        times, least = np.asarray(grid).tolist(), np.asarray(least)
        return cls(list(map(IntervalVerdict, times, times[1:], (least >= -tol).tolist(),
                            least.tolist())))

    @property
    def divisible(self):
        return all(v.is_cp for v in self.intervals)


def _lockstep_groups(n, d):
    """(start, stop) of the runs of consecutive intervals with the same step
    count n[k], cut so that a group of more than one interval holds at most
    _group_steps(d) steps: 1024 for qubits, STEP_BLOCK at d = 4."""
    limit = _group_steps(d)
    a = 0
    while a < n.size:
        b = a + 1
        while b < n.size and b - a < limit // n[a] and n[b] == n[a]:
            b += 1
        yield a, b
        a = b


def divisibility_report(gen, t_grid, tol=DEFAULT_CP_TOL, h=None):
    """CP verdict for Phi(t_{k+1}, t_k) on every consecutive grid interval.

    h is the RK4 substep used to build each interval propagator; it defaults
    to 1/100 of the interval length. The generator is compiled once, and
    consecutive intervals with the same step count are integrated in lockstep
    (_interval_maps, one product per interval), in groups of at most
    STEP_BLOCK * 16 / d^2 steps, each group scored by one is_cp call, one
    stacked eigensolve. A group that fails is re-run one interval at a time, so that
    the exception names the first failing interval.
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

    def least(a, b):
        return is_cp(_interval_maps(compiled, t[a:b], step[a:b], n[a]), tol)[1]

    groups = []
    for a, b in _lockstep_groups(n, gen.dim):
        try:
            groups.append(least(a, b))
        except (NumericalError, ValueError):
            for k in range(a, b):
                try:
                    groups.append(least(k, k + 1))
                except (NumericalError, ValueError) as exc:
                    # Name the interval in place: rebuilding the exception would
                    # need its constructor's signature, and its type sets the
                    # exit code.
                    exc.args = (f"interval {k} [{t[k]}, {t[k + 1]}]: {exc}",)
                    raise
    return DivisibilityReport.of(t, np.concatenate(groups), tol)
