"""Trace-distance growth analysis: sigma(t), growth intervals, and the
non-Markovianity functional of a dynamical map.

The map enters only as its flow Phi(t_k, 0) on a uniform time grid, acting
on column-stacked density matrices, however it was obtained (RK4 integration
of a generator or a closed form): an array of shape (T, d^2, d^2), or a
stream of (k0, block) pairs that tile the grid in order, such as
dynamics.flow_blocks, read once.

The measure is the total rise of the trace distance D, the integral of its
derivative sigma over sigma > 0, maximized over pairs of initial states. On
the grid that is the positive variation of D, the sum of its rising steps
D(t_{k+1}) - D(t_k) > RISE_FLOOR. N is homogeneous in rho1 - rho2 and an
optimal pair is orthogonal, so the maximization is a deterministic seeded
random search over pair differences (see _directions), drawn from a
counter-based SplitMix64 stream, with the two canonical qubit pairs always
evaluated first, so known maximizers are never missed. For qubits a search
evaluates D only at the ends of the steps whose map can expand some pair
difference (see _growth_steps), where information can flow back; for d > 2
at every grid point. Everything is truncated at a finite horizon; a run
whose last interval still contributes more than 0.5 is flagged as diverging.
"""
import math
from typing import List, NamedTuple, Optional

import numpy as np

from .dynamics import _check_uniform_grid
from .exceptions import InvariantViolation, NumericalError
from .linalg import _eigvalsh, hermitian_eigenvalues
from .states import DensityMatrix, StatePair

D_VALUE_TOL = 1e-10
# A grid step counts as a rise of D, which lies in [0, 1], only above this
# absolute floor: about 450 ulp of 1, far above the few ulp of rounding of a
# computed D (see _growth_steps), and at most 1e-9 lost on 10^4 steps.
RISE_FLOOR = 1e-13
# Most steps of a make_time_grid grid, refused before anything is allocated:
# 10^7 steps are 80 MB of times and a 0.96 GB Pauli map in a qubit search.
MAX_GRID_STEPS = 10**7
DIVERGENCE_CONTRIBUTION = 0.5
# Entries of the work arrays of one block of pairs (at least one pair), which
# bound the memory of a search: for qubits the two (pairs x grid points)
# buffers of D and its steps, for d > 2 the (pairs x grid points x d^2) evolved
# differences.
PAIR_BLOCK = 100_000
# A qubit step is skipped unless it may raise D (see _growth_steps).
GROWTH_MARGIN = 1e-13
TRACE_ROW_TOL = 1e-12
# Columns: the column-stacked Pauli matrices I, X, Y, Z.
_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]]).T


class TrajectoryGrid:
    """Sampled trace distance and its rate of change on a uniform time grid,
    as trajectory and trajectory_from_values make it: they check the grid."""

    def __init__(self, times, d_values, sigma_values):
        t = np.asarray(times, dtype=float)
        d = np.asarray(d_values, dtype=float)
        s = np.asarray(sigma_values, dtype=float)
        if not (t.size == d.size == s.size):
            raise ValueError("times, d_values and sigma_values must match in length")
        # Written so that NaN fails it too.
        if not np.all(np.abs(d - 0.5) <= 0.5 + D_VALUE_TOL):
            raise ValueError("trace-distance values leave [0, 1] beyond tolerance")
        self.times, self.d_values, self.sigma_values = t, d, s

    @property
    def step(self):
        return float(self.times[1] - self.times[0])


def trajectory_from_values(times, d_values):
    """TrajectoryGrid from D(t) sampled on a uniform grid, sigma by second-order
    differences, central in the interior and one-sided at the ends
    (np.gradient's edge_order=2), as trajectory makes it."""
    t, h = _check_uniform_grid(times)
    d = np.asarray(d_values, dtype=float)
    if d.ndim != 1 or d.size < 3:
        raise ValueError(f"sigma needs a row of at least 3 values of D, got shape {d.shape}")
    return TrajectoryGrid(times=t, d_values=d, sigma_values=np.gradient(d, h, edge_order=2))


def whole_steps(length, step):
    """Whether a positive length is a whole number of steps, to a relative
    1e-9; a step count that overflows is not."""
    n = length / step
    return n < math.inf and abs(round(n) * step - length) <= 1e-9 * length


def make_time_grid(horizon, step):
    """The uniform grid 0, step, ..., horizon, which must end at the horizon:
    a whole number of steps, to a relative 1e-9, at least 10 and at most
    MAX_GRID_STEPS of them."""
    if not (0 < horizon < math.inf and 0 < step < math.inf):  # NaN fails it too
        raise ValueError("horizon and step must be positive and finite")
    if not horizon / step < math.inf:
        raise ValueError(f"horizon {horizon:g} over step {step:g} is not a finite step count")
    if horizon / step > MAX_GRID_STEPS:
        raise ValueError(f"horizon {horizon:.10g} over step {step:.10g} is {horizon / step:.10g} "
                         f"grid steps, more than {MAX_GRID_STEPS}")
    if not whole_steps(horizon, step):
        raise ValueError(f"horizon {horizon:g} is not a whole number of steps {step:g}")
    n = int(round(horizon / step))
    if n < 10:
        raise ValueError(f"horizon/step = {horizon / step:.3g} must be >= 10")
    return np.arange(n + 1) * step


def _grid(times):
    """times as a uniform grid array of at least 11 points."""
    times = np.asarray(times, dtype=float)
    if times.size < 11:
        raise ValueError(f"{times.size - 1} grid intervals; sigma needs >= 10")
    return _check_uniform_grid(times)[0]


def _blocks(flow, t):
    """The blocks of a flow on t grid points, an array (T, d^2, d^2) or a
    stream of (k0, block) (see dynamics.flow_blocks), as (k0, block, d):
    checked to tile [0, t) in order, each block of shape (m, d^2, d^2) with
    the d of the first."""
    end, d = 0, None
    for k0, block in [(0, flow)] if isinstance(flow, np.ndarray) else flow:
        block = np.asarray(block)
        if k0 != end:
            raise ValueError(f"flow block at grid point {k0} does not follow grid point {end}")
        if d is None and block.ndim == 3:
            d = math.isqrt(block.shape[-1])
        end += len(block) if block.ndim else 0
        if block.ndim != 3 or block.shape[1:] != (d * d, d * d) or end > t:
            shape = (end,) + block.shape[1:]
            raise ValueError(f"flow shape {shape} is not (T, d^2, d^2) on {t} times")
        yield k0, block, d
    if end != t:
        raise ValueError(f"flow shape ({end}, d^2, d^2) is not (T, d^2, d^2) on {t} times")


@np.errstate(over="ignore", invalid="ignore")
def _pair_operator(flow, t):
    """(d, op): what the pairs read of the flow Phi(t_k, 0) on t grid points,
    an array or a stream (see _blocks), read once, in order. For qubits op is
    the real Pauli map M(t) = B^dag Phi(t) B / 2 on traceless inputs, stored
    (4, 3, t), so that the flow itself is never held; for d > 2 the flow as
    one (t d^2, d^2) matrix, a single block reshaped or several assembled."""
    # M as one real (12, 32) matrix: row 3a + b, column 2(4i + j) (+ 1) is
    # the weight of the real (imaginary) part of Phi[i, j] in M[a, b].
    w = 0.5 * (_PAULI.conj()[:, None, :, None] * _PAULI[None, :, None, 1:]).reshape(16, 12)
    w = np.stack([w.real, -w.imag], axis=1).reshape(32, 12).T
    op = None
    for k0, block, d in _blocks(flow, t):
        if d != 2:
            if len(block) == t:
                op = block
            else:
                op = np.empty((t, d * d, d * d), dtype=complex) if op is None else op
                op[k0 : k0 + len(block)] = block
            continue
        # Real products on the flow's interleaved real and imaginary parts, at
        # most 1024 grid points at a time: one product over the whole grid
        # raised the peak RSS of a qubit sweep command by about 0.15 MB. A
        # column of M is half a signed sum of four entries of that grid
        # point's Phi; that it does not depend on how the blocks cut the grid
        # is checked to the bit by the tests.
        op = np.empty((4, 3, t)) if op is None else op
        parts = np.ascontiguousarray(block, dtype=complex).reshape(-1, 16).view(float)
        for k in range(0, len(block), 1024):
            rows = parts[k : k + 1024]
            op.reshape(12, -1)[:, k0 + k : k0 + k + len(rows)] = w @ rows.T
    return d, (op if d == 2 else op.reshape(-1, d * d))


@np.errstate(over="ignore", invalid="ignore")
def _growth_steps(op):
    """Flags of the steps k (t_k to t_{k+1}) across which D may rise for some
    qubit pair, from the _pair_operator op. With M_k = op[1:, :, k] and Q_k =
    M_k^T M_k, |M_{k+1} x|^2 - |M_k x|^2 = x^T (Q_{k+1} - Q_k) x. A step is
    unflagged only if the Gershgorin discs of Q_{k+1} - Q_k + GROWTH_MARGIN s I,
    s = max(tr Q_k, tr Q_{k+1}) >= ||Q||, lie in (-inf, 0] and the trace row
    op[0] stays within TRACE_ROW_TOL: then every |M x| falls by at least
    GROWTH_MARGIN sqrt(s) |x| / 2, twenty times the rounding of two computed
    D (about 5 ulp of sqrt(s) |x| each) and of the test, so D cannot rise
    unless its trace part (at most sqrt(3) TRACE_ROW_TOL |x|) exceeds the
    Bloch length. NaN and inf flag. Q is formed over slices of grid points."""
    flags = np.empty(op.shape[-1] - 1, dtype=bool)
    for k in range(0, flags.size, 1024):
        m = op[..., k : k + 1025]
        q = np.einsum("aik,ajk->ijk", m[1:], m[1:])
        dq, tr = q[..., 1:] - q[..., :-1], np.trace(q)
        centre = np.diagonal(dq).T
        radius = np.abs(dq).sum(axis=1) - np.abs(centre)
        margin = GROWTH_MARGIN * np.maximum(tr[1:], tr[:-1])
        contracts = np.all(centre + radius + margin <= 0, axis=0)  # False for NaN
        traceless = np.abs(m[0]).max(axis=0) <= TRACE_ROW_TOL
        flags[k : k + 1024] = ~(contracts & traceless[1:] & traceless[:-1])
    return flags


def _evaluated_columns(op, d, t):
    """Grid columns, of t, at which a search evaluates D: for qubits column 0,
    so that no search is empty, and both ends of each step of _growth_steps
    (see search_pairs); for d > 2 every column."""
    if d > 2:
        return np.arange(t)
    keep = np.zeros(t, dtype=bool)
    flags = _growth_steps(op)
    keep[0] = True
    keep[:-1] |= flags
    keep[1:] |= flags
    return np.flatnonzero(keep)


def _block_size(times, d):
    """Pairs per block: PAIR_BLOCK entries of a block's work arrays on times."""
    return max(1, PAIR_BLOCK // (times.size * (2 if d == 2 else d * d)))


def _distances(op, diffs, times, work):
    """Trace distances D(t_k) of the evolved differences rho1 - rho2, stacked
    (P, d, d), from the _pair_operator op (the flow gives the difference by
    linearity), written into work[0, :P]; work[1, :P] is scratch. Returns a
    message per pair (None if fine) where D exceeds 1 or is not finite; such
    rows are zeroed, and the others capped at 1."""
    p, d = diffs.shape[:2]
    dist, buf = work[0, :p], work[1, :p]
    vecs = diffs.transpose(0, 2, 1).reshape(p, d * d)  # column-stacked
    if d == 2:
        # D = max(|trace part|, Bloch length) of the evolved Pauli
        # coefficients, the closed form of the two eigenvalues mean +- radius;
        # one (P, 3) x (3, T) product per coefficient.
        x = 0.5 * (vecs @ _PAULI[:, 1:].conj()).real
        np.square(np.matmul(x, op[1], out=dist), out=dist)
        for k in (2, 3):
            dist += np.square(np.matmul(x, op[k], out=buf), out=buf)
        np.sqrt(dist, out=dist)
        np.maximum(np.abs(np.matmul(x, op[0], out=buf), out=buf), dist, out=dist)
    else:
        # Row-major reshape then swap: each matrix unstacks its columns.
        m = (op @ vecs.T).T.reshape(p, -1, d, d).swapaxes(2, 3)
        m = 0.5 * (m + m.swapaxes(2, 3).conj())
        finite = np.isfinite(m).all(axis=(2, 3))
        m[~finite] = 0.0
        dist[:] = 0.5 * np.sum(np.abs(hermitian_eigenvalues(m, tol=1e-8)), axis=2)
        dist[~finite] = np.nan
    errors = [None] * p
    for i in np.flatnonzero(~(dist.max(axis=1) <= 1.0 + 1e-8)):  # also catches NaN
        k = int(np.argmax(~(dist[i] <= 1.0 + 1e-8)))
        errors[i] = (
            f"trace distance {dist[i, k]:.6g} exceeds 1 or is not finite at "
            f"t={times[k]:.6g} (step too coarse, or the generator is not "
            "positivity preserving)"
        )
        dist[i] = 0.0
    np.minimum(dist, 1.0, out=dist)
    return errors


def trajectory(flow, pair, times):
    """D(t) and sigma(t) for the pair under the flow Phi(t_k, 0) on times, an
    array (T, d^2, d^2) or a stream of blocks, which is consumed after times
    is checked (see search_pairs)."""
    times = _grid(times)
    d, op = _pair_operator(flow, times.size)
    if pair.dim != d:
        raise ValueError(f"pair dimension {pair.dim} != flow dimension {d}")
    diff = pair.rho1.matrix - pair.rho2.matrix
    work = np.empty((2, 1, times.size))
    (error,) = _distances(op, diff[None], times, work)
    if error:
        raise InvariantViolation(error)
    d = work[0, 0]
    return TrajectoryGrid(times, d, np.gradient(d, times[1] - times[0], edge_order=2))


class GrowthInterval:
    """A maximal run (a, b) of rising grid steps of D and its rise D(b) - D(a)."""

    def __init__(self, a, b, contribution):
        if not a < b:
            raise ValueError(f"need a < b, got ({a}, {b})")
        if contribution < -1e-12:
            raise ValueError(f"negative contribution {contribution}")
        self.a, self.b, self.contribution = a, b, contribution

    # Equal by value, so that results holding the same intervals are equal.
    def __eq__(self, other):
        return type(other) is GrowthInterval and vars(self) == vars(other)


def _growth(times, d, out):
    """Growth intervals of every row of D, shape (P, C), sampled at times, as
    arrays (rows, a, b, contributions) in row, then time order: maximal runs
    of rising steps, D(t_{j+1}) - D(t_j) > RISE_FLOOR, from a = t_j to b =
    t_j' with contribution D(b) - D(a); out, of the shape of d, is scratch."""
    rise = np.zeros((len(d), times.size + 1), dtype=bool)  # rise[:, j + 1]: step j
    np.greater(np.subtract(d[:, 1:], d[:, :-1], out=out[:, :-1]), RISE_FLOOR, out=rise[:, 1:-1])
    # A row's edges alternate: a run that starts at column j ends at the
    # column of the next edge. flatnonzero and divmod: 2-D nonzero is ten
    # times slower here.
    rows, cols = np.divmod(np.flatnonzero(rise[:, 1:] != rise[:, :-1]), times.size)
    rows, i0, i1 = rows[::2], cols[::2], cols[1::2]
    return rows, times[i0], times[i1], d[rows, i1] - d[rows, i0]


def growth_intervals(traj):
    """Maximal runs of rising grid steps of D (see _growth), as GrowthIntervals."""
    d = traj.d_values[None]
    _, a, b, c = _growth(traj.times, d, np.empty_like(d))
    return _interval_list(a, b, c)


def _interval_list(a, b, contributions):
    return [GrowthInterval(float(x), float(y), float(z)) for x, y, z in zip(a, b, contributions)]


class MeasureResult(NamedTuple):
    """Truncated non-Markovianity value with the detected growth intervals."""

    intervals: List[GrowthInterval]
    n_value: float
    horizon: float
    best_pair: StatePair
    samples_evaluated: int = 1
    seed: Optional[int] = None
    diverging: bool = False


def _measure_result(intervals, times, pair, samples_evaluated=1, seed=None):
    """MeasureResult of a pair's growth intervals: N is their plain sum, in
    interval order."""
    return MeasureResult(
        intervals=intervals,
        n_value=float(sum(iv.contribution for iv in intervals)),
        horizon=float(times[-1]),
        best_pair=pair,
        samples_evaluated=samples_evaluated,
        seed=seed,
        diverging=bool(intervals) and intervals[-1].contribution > DIVERGENCE_CONTRIBUTION,
    )


def n_from_trajectory(traj, pair):
    """MeasureResult for a precomputed trajectory (e.g. an analytic model)."""
    return _measure_result(growth_intervals(traj), traj.times, pair)


def n_for_pair(flow, pair, times):
    """Summed trace-distance growth for one fixed initial pair."""
    return n_from_trajectory(trajectory(flow, pair, times), pair)


def canonical_pairs(dim):
    """The always-evaluated pairs: antipodal z-axis and x-axis (for d=2) pairs,
    |0><0|, |1><1| and (|0><0| + |1><1| +- |0><1| +- |1><0|) / 2, exact in
    binary (the outer product of (1, +-1) / sqrt(2) has trace 1 - 2^-52)."""
    m = np.zeros((4, dim, dim), dtype=complex)
    m[0, 0, 0] = m[1, 1, 1] = 1.0
    m[2:, 0, 0] = m[2:, 1, 1] = m[2, 0, 1] = m[2, 1, 0] = 0.5
    m[3, 0, 1] = m[3, 1, 0] = -0.5
    states = [DensityMatrix(x) for x in m]
    return [StatePair(*states[:2], label="canonical-z"),
            StatePair(*states[2:], label="canonical-x")]


def _search_grid(n_pairs, times, seed):
    """times as a grid (see _grid), once every other argument of a search but
    its flow is checked; a seed is a Python or NumPy integer."""
    if not n_pairs >= 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if not (isinstance(seed, (int, np.integer)) and 0 <= int(seed) < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return _grid(times)


def _splitmix64(seed, start, n):
    """SplitMix64 outputs start .. start + n - 1 of seed (Steele, Lea, Flood,
    OOPSLA 2014), each a pure function of (seed, j), all mod 2^64: output j
    is mix(seed + (j + 1) 0x9E3779B97F4A7C15)."""
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z = z * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ z >> np.uint64(shift)) * np.uint64(mult)
    return z ^ z >> np.uint64(31)


def _normals(seed, start, n):
    """Normals start .. start + n - 1 (both even) of the stream of seed:
    normals 2k, 2k + 1 are r cos(theta), r sin(theta), r = sqrt(-2 log1p(-u_2k))
    and theta = 2 pi u_2k+1, of the uniforms u_j = (output j >> 11) 2^-53."""
    u = ((_splitmix64(seed, start, n) >> np.uint64(11)) * 2.0**-53).reshape(-1, 2)
    r, theta = np.sqrt(-2.0 * np.log1p(-u[:, 0])), 2.0 * np.pi * u[:, 1]
    return (r[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)).ravel()


def _directions(dim, seed, start, n):
    """Sample directions start .. start + n - 1 of the stream of seed, stacked
    (n, d, d): the Hermitian part of a complex Gaussian matrix, its trace
    removed and scaled to trace norm 2, so that it is the difference of an
    orthogonal pair (see _direction_pair) with D(0) = 1. Direction i is made
    of normals 2d^2 i .. 2d^2 (i + 1) - 1 (see _normals), real parts first."""
    k = 2 * dim * dim
    g = _normals(seed, k * start, k * n).reshape(n, 2, dim, dim)
    x = g[:, 0] + 1j * g[:, 1]
    x = x + x.conj().swapaxes(1, 2)
    x -= np.trace(x, axis1=1, axis2=2)[:, None, None] / dim * np.eye(dim)
    # Half the trace norm: closed form for qubits, which otherwise call no
    # eigensolver (a first LAPACK call adds about 0.9 MB to the peak RSS).
    half = (np.hypot(x[:, 0, 0].real, np.abs(x[:, 0, 1])) if dim == 2
            else 0.5 * np.abs(_eigvalsh(x)).sum(axis=1))
    return x / half[:, None, None]


def _direction_pair(x, label):
    """The pair (X+, X-) of the positive and negative parts of a direction X
    (see _directions): orthogonal states with rho1 - rho2 = X."""
    w, v = np.linalg.eigh(x)
    rho1, rho2 = ((v * np.maximum(sign * w, 0.0)) @ v.conj().T for sign in (1.0, -1.0))
    return StatePair(DensityMatrix(rho1), DensityMatrix(rho2), label=label)


class PairSearch(NamedTuple):
    """Full record of a maximization run over initial pairs: the best pair's
    result, n_canonical the value of the first canonical pair (canonical-z
    for qubits), not the larger of the two, and n_sampled_max the largest
    value of the sampled pairs."""

    best: MeasureResult
    n_canonical: float
    n_sampled_max: float
    samples_evaluated: int
    failures: List[str]


def _pair_values(op, d, n, diffs, times):
    """(start, block, values, errors, intervals) of each block of _block_size
    of n pairs under the _pair_operator op of dimension d on times, a uniform
    grid array that the caller has checked; diffs(start, stop) gives the
    block of differences rho1 - rho2 of pairs start .. stop - 1, stacked (P,
    d, d), and is called in pair order.
    D of a block, on the evaluated columns (see search_pairs), goes into one
    of two work buffers allocated once, its steps into the other, and its
    growth intervals are found at once. A failed pair has value NaN, its
    reason in errors (None for the others) and no interval; its block-mates
    still score. intervals: (rows, a, b, contributions), rows in block."""
    cols = _evaluated_columns(op, d, times.size)
    if cols.size < times.size:
        op, times = op[..., cols], times[cols]
    size = _block_size(times, d)
    work = np.empty((2, size, times.size))
    for start in range(0, n, size):
        block = diffs(start, min(start + size, n))
        p = len(block)
        errs = _distances(op, block, times, work)  # a failed row of D is zeroed
        rows, a, b, c = _growth(times, work[0, :p], work[1, :p])
        ok = np.array([e is None for e in errs])
        # bincount adds each row's contributions in order, as sum() does.
        totals = np.bincount(rows, weights=c, minlength=p)
        yield start, block, np.where(ok, totals, np.nan), errs, (rows, a, b, c)


def search_pairs(flow, n_pairs, times, seed=0):
    """Evaluate the canonical pairs, then sample directions 0 .. n_pairs - 1
    of the stream of seed (see _directions), under the flow on times,
    tracking the maximum. Sample i is direction i of the stream, whatever the
    grid or the block size.

    Ties are broken in favor of the first evaluated pair (canonical pairs
    first, then sample order), so the result is deterministic and the best
    value is monotone in n_pairs. Only the best pair gets its interval list
    and, if it is a sample, its states (see _direction_pair).

    D is evaluated on _evaluated_columns only: a rise of D needs a flagged
    step, whose two ends are evaluated; across every other step D falls, so
    that no rise spans unevaluated columns and the first D beyond 1 + 1e-8
    is evaluated too. A pair's value is then its positive variation on the
    whole grid (see _growth).

    The flow is an array (T, d^2, d^2) or a stream of (k0, block) that tiles
    the grid in order (see dynamics.flow_blocks). A stream is consumed: it
    is read once, after every other argument has been checked, so that a bad
    n_pairs, seed or grid is reported before a flow that blows up. For qubits
    the search holds the Pauli map (96 B per grid point) rather than the flow.
    """
    times = _search_grid(n_pairs, times, seed)
    dim, op = _pair_operator(flow, times.size)
    canonical = canonical_pairs(dim)
    first = np.stack([p.rho1.matrix - p.rho2.matrix for p in canonical])
    m = len(canonical)

    def diffs(start, stop):
        a = max(start, m)  # the first sample of the block
        return np.concatenate([first[start:stop], _directions(dim, seed, a - m, max(0, stop - a))])

    def label(i):
        return canonical[i].label if i < m else f"sample-{i - m}"

    # Of the samples only their failures and maximum stay, so that memory
    # does not grow with n_pairs; of op, only its evaluated columns.
    blocks = _pair_values(op, dim, m + n_pairs, diffs, times)
    del op
    n_canonical, n_sampled_max, failures, peak = [], 0.0, [], -np.inf
    for start, block, vals, errs, (rows, a, b, c) in blocks:
        k = max(0, m - start)  # canonical pairs come first
        n_canonical += vals[:k].tolist()
        n_sampled_max = float(np.fmax.reduce(vals[k:], initial=n_sampled_max))  # skips NaN
        failures += [f"{label(i)}: {e}" for i, e in enumerate(errs, start) if e]
        if np.fmax.reduce(vals) > peak:  # NaN if the whole block failed
            i = int(np.nanargmax(vals))  # the first of equal values
            peak, best, diff = vals[i], start + i, block[i]
            intervals = [x[rows == i] for x in (a, b, c)]
    if len(failures) == m + n_pairs:
        raise NumericalError("all pair evaluations failed; first failure: " + failures[0])
    if np.isnan(n_canonical).any():
        # The canonical pairs hold the known maximizers: without one of them
        # the reported maximum cannot be trusted. Their failures come first.
        raise NumericalError("canonical pair failed: " + failures[0])
    pair = canonical[best] if best < m else _direction_pair(diff, label(best))
    evaluated = m + n_pairs - len(failures)
    result = _measure_result(_interval_list(*intervals), times, pair, evaluated, seed)
    return PairSearch(result, n_canonical[0], n_sampled_max, evaluated, failures)


class SweepRecord(NamedTuple):
    """One parameter point of a sweep: the overall maximum, the first
    canonical pair's value and the sampled maximum (see PairSearch)."""

    parameter: float
    n_value: float = np.nan
    n_canonical: float = np.nan
    n_sampled_max: float = np.nan
    best_pair_label: Optional[str] = None
    diverging: bool = False
    error: Optional[str] = None


def sweep(flow_family, parameters, times, n_pairs, seed=0):
    """search_pairs on the flow flow_family(value), an array or a stream of
    blocks, for each parameter value; per-point failures, building the flow
    included, are recorded in the output instead of aborting the sweep."""
    parameters = list(parameters)
    if not parameters:
        raise ValueError("parameter grid is empty")
    # Here, before any flow is built: a point's ValueError is recorded, not raised.
    times = _search_grid(n_pairs, times, seed)
    records = []
    for value in parameters:
        try:
            search = search_pairs(flow_family(value), n_pairs, times, seed)
            best = search.best
            records.append(SweepRecord(float(value), best.n_value, search.n_canonical,
                                       search.n_sampled_max, best.best_pair.label, best.diverging))
        except (NumericalError, ValueError) as exc:
            records.append(SweepRecord(parameter=float(value), error=str(exc)))
    return records
