"""Trace-distance growth analysis: sigma(t), growth intervals, and the
non-Markovianity functional of a dynamical map.

The map enters only as its flow Phi(t_k, 0) on a uniform time grid, an array
of shape (T, d^2, d^2) acting on column-stacked density matrices, however it
was obtained (RK4 integration of a generator or a closed form).

The measure is the maximal total growth of the trace distance over all
intervals where its derivative sigma is positive, maximized over pairs of
initial states. N is homogeneous in rho1 - rho2 and an optimal pair is
orthogonal, so the maximization is a deterministic seeded random search over
pair differences (see _directions), with the two canonical qubit pairs
always evaluated first, so known maximizers are never missed. Everything is
truncated at a finite horizon; a run whose last interval still contributes
more than 0.5 is flagged as diverging.
"""
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .dynamics import _check_uniform_grid
from .exceptions import InvariantViolation, NumericalError
from .linalg import _eigvalsh, hermitian_eigenvalues
from .states import DensityMatrix, StatePair, state_rng

D_VALUE_TOL = 1e-10
THRESHOLD_FLOOR = 1e-12
THRESHOLD_SCALE = 1e-9
DIVERGENCE_CONTRIBUTION = 0.5
# Entries of the work arrays of one block of pairs (at least one pair), which
# bound the memory of a search: for qubits the two (pairs x grid points)
# buffers of D and sigma, for d > 2 the (pairs x grid points x d^2) evolved
# differences.
PAIR_BLOCK = 100_000
# Columns: the column-stacked Pauli matrices I, X, Y, Z.
_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]]).T


@dataclass
class TrajectoryGrid:
    """Sampled trace distance and its rate of change on a uniform time grid."""

    times: np.ndarray
    d_values: np.ndarray
    sigma_values: np.ndarray

    def __post_init__(self):
        t, _ = _check_uniform_grid(self.times)
        d = np.asarray(self.d_values, dtype=float)
        s = np.asarray(self.sigma_values, dtype=float)
        if not (t.size == d.size == s.size):
            raise ValueError("times, d_values and sigma_values must match in length")
        # Written so that NaN fails it too.
        if not np.all(np.abs(d - 0.5) <= 0.5 + D_VALUE_TOL):
            raise ValueError("trace-distance values leave [0, 1] beyond tolerance")
        self.times, self.d_values, self.sigma_values = t, d, s

    @property
    def step(self):
        return float(self.times[1] - self.times[0])


def _sigma(d, h, out):
    """sigma of each row of D, shape (P, T), on a grid of step h, written into
    out: second-order differences, central in the interior and one-sided at
    the ends (np.gradient's edge_order=2 stencil, operation for operation)."""
    np.divide(np.subtract(d[:, 2:], d[:, :-2], out=out[:, 1:-1]), 2.0 * h, out=out[:, 1:-1])
    out[:, 0] = -1.5 / h * d[:, 0] + 2.0 / h * d[:, 1] + -0.5 / h * d[:, 2]
    out[:, -1] = 0.5 / h * d[:, -3] + -2.0 / h * d[:, -2] + 1.5 / h * d[:, -1]
    return out


def trajectory_from_values(times, d_values):
    """TrajectoryGrid from sampled D(t), sigma by _sigma."""
    t = np.asarray(times, dtype=float)
    d = np.asarray(d_values, dtype=float)
    if d.ndim != 1 or d.size < 3:
        raise ValueError(f"sigma needs a row of at least 3 values of D, got shape {d.shape}")
    sigma = _sigma(d[None], t[1] - t[0], np.empty((1, d.size)))[0]
    return TrajectoryGrid(times=t, d_values=d, sigma_values=sigma)


def make_time_grid(horizon, step):
    if horizon <= 0 or step <= 0:
        raise ValueError("horizon and step must be positive")
    n = int(round(horizon / step))
    if n < 10:
        raise ValueError(f"horizon/step = {horizon / step:.3g} must be >= 10")
    return np.arange(n + 1) * step


def _flow_dim(flow, times):
    """(d, times as an array) for a flow Phi(t_k, 0) of shape (T, d^2, d^2)
    on T times, at least 11 of them. That they form a uniform grid is checked
    once per call where it is needed: by TrajectoryGrid and by search_pairs."""
    times = np.asarray(times, dtype=float)
    if times.size < 11:
        raise ValueError(f"{times.size - 1} grid intervals; sigma needs >= 10")
    d = math.isqrt(flow.shape[-1])
    if flow.shape != (times.size, d * d, d * d):
        raise ValueError(f"flow shape {flow.shape} is not (T, d^2, d^2) on {times.size} times")
    return d, times


def _pair_operator(flow, d):
    """What the pairs read of the flow Phi(t_k, 0): for qubits the real Pauli
    map M(t) = B^dag Phi(t) B / 2 on traceless inputs, stored (4, 3, T); for
    d > 2 the flow as one (T d^2, d^2) matrix."""
    if d == 2:
        # M as one real (12, 32) matrix: row 3a + b, column 2(4i + j) (+ 1) is
        # the weight of the real (imaginary) part of Phi[i, j] in M[a, b].
        w = 0.5 * (_PAULI.conj()[:, None, :, None] * _PAULI[None, :, None, 1:]).reshape(16, 12)
        w = np.stack([w.real, -w.imag], axis=1).reshape(32, 12).T
        # Real products on the flow's interleaved real and imaginary parts, a
        # slice of grid points at a time: one product over the whole grid
        # raised the peak RSS of a qubit sweep command by about 0.15 MB.
        op = np.empty((4, 3, len(flow)))
        parts = np.ascontiguousarray(flow, dtype=complex).reshape(-1, 16).view(float)
        for k in range(0, len(flow), 1024):
            op.reshape(12, -1)[:, k : k + 1024] = w @ parts[k : k + 1024].T
        return op
    return flow.reshape(-1, d * d)


def _block_size(times, d):
    """Pairs per block: PAIR_BLOCK entries of a block's work arrays."""
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
    """D(t) and sigma(t) for the pair under the flow Phi(t_k, 0) on times."""
    d, times = _flow_dim(flow, times)
    if pair.dim != d:
        raise ValueError(f"pair dimension {pair.dim} != flow dimension {d}")
    diff = pair.rho1.matrix - pair.rho2.matrix
    work = np.empty((2, 1, times.size))
    (error,) = _distances(_pair_operator(flow, d), diff[None], times, work)
    if error:
        raise InvariantViolation(error)
    return trajectory_from_values(times, work[0, 0])


@dataclass
class GrowthInterval:
    """A maximal interval (a, b) of positive sigma and its D(b) - D(a)."""

    a: float
    b: float
    contribution: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got ({self.a}, {self.b})")
        if self.contribution < -1e-12:
            raise ValueError(f"negative contribution {self.contribution}")


def _check_threshold(threshold):
    """None (relative to the peak |sigma|) or a nonnegative number."""
    if threshold is not None and not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")


def _thresholds(sigma, threshold):
    """Threshold of each row of sigma, shape (P, T): the given one, or the
    noise floor 1e-9 of the row's peak |sigma|, floored at 1e-12."""
    if threshold is not None:
        return np.full(len(sigma), float(threshold))
    peak = np.maximum(sigma.max(axis=1), -sigma.min(axis=1))  # max |sigma|
    return np.maximum(THRESHOLD_FLOOR, THRESHOLD_SCALE * peak)


def default_threshold(traj):
    """Noise floor for sigma: 1e-9 of the peak |sigma|, floored at 1e-12."""
    return float(_thresholds(traj.sigma_values[None], None)[0])


def _growth(times, d, s, threshold):
    """Growth intervals of every row of D and sigma, both (P, T), as arrays
    (rows, a, b, contributions) in row, then time order: maximal runs of
    sigma > threshold, with endpoints at sigma's linearly interpolated
    crossing of the threshold and D interpolated there, so that the interval
    sum and the quadrature of positive sigma agree to the discretization
    order."""
    t = np.asarray(times)
    thr = _thresholds(s, threshold)
    mask = np.zeros((len(s), t.size + 2), dtype=bool)
    np.greater(s, thr[:, None], out=mask[:, 1:-1])
    # A row's crossings alternate: a run starts at column j, then the next
    # crossing j' ends it at column j' - 1.
    # flatnonzero and divmod: 2-D nonzero is ten times slower here.
    rows, cols = np.divmod(np.flatnonzero(mask[:, 1:] != mask[:, :-1]), t.size + 1)
    rows, i0, i1 = rows[::2], cols[::2], cols[1::2] - 1
    thr = thr[rows]

    def at(j, crossing):
        """(t, D) at column j, or where crossing, at the threshold crossing
        of sigma between columns j and j + 1."""
        x, y = t[j], d[rows, j]
        r, j, th = rows[crossing], j[crossing], thr[crossing]
        frac = (th - s[r, j]) / (s[r, j + 1] - s[r, j])
        x[crossing] = t[j] + frac * (t[j + 1] - t[j])
        y[crossing] = d[r, j] + frac * (d[r, j + 1] - d[r, j])
        return x, y

    a, da = at(i0 - (i0 > 0), i0 > 0)
    b, db = at(i1, i1 < t.size - 1)
    keep = b > a
    return rows[keep], a[keep], b[keep], (db - da)[keep]


def growth_intervals(traj, threshold=None):
    """Maximal runs of sigma > threshold with interpolated endpoints (see
    _growth), as GrowthIntervals."""
    _check_threshold(threshold)
    _, a, b, c = _growth(traj.times, traj.d_values[None], traj.sigma_values[None], threshold)
    return _interval_list(a, b, c)


def _interval_list(a, b, contributions):
    return [GrowthInterval(float(x), float(y), float(z)) for x, y, z in zip(a, b, contributions)]


@dataclass
class MeasureResult:
    """Truncated non-Markovianity value with the detected growth intervals."""

    intervals: List[GrowthInterval]
    n_value: float
    horizon: float
    best_pair: StatePair
    samples_evaluated: int = 1
    seed: Optional[int] = None
    diverging: bool = False


def _measure_result(intervals, times, pair):
    """MeasureResult of a pair's growth intervals: N is their plain sum, in
    interval order."""
    return MeasureResult(
        intervals=intervals,
        n_value=float(sum(iv.contribution for iv in intervals)),
        horizon=float(times[-1]),
        best_pair=pair,
        diverging=bool(intervals) and intervals[-1].contribution > DIVERGENCE_CONTRIBUTION,
    )


def n_from_trajectory(traj, pair, threshold=None):
    """MeasureResult for a precomputed trajectory (e.g. an analytic model)."""
    return _measure_result(growth_intervals(traj, threshold), traj.times, pair)


def n_for_pair(flow, pair, times, threshold=None):
    """Summed trace-distance growth for one fixed initial pair."""
    return n_from_trajectory(trajectory(flow, pair, times), pair, threshold)


def _basis_state(dim, index):
    m = np.zeros((dim, dim), dtype=complex)
    m[index, index] = 1.0
    return DensityMatrix(m)


def _superposition_state(dim, sign):
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0 / np.sqrt(2.0)
    psi[1] = sign / np.sqrt(2.0)
    return DensityMatrix(np.outer(psi, psi.conj()))


def canonical_pairs(dim):
    """The always-evaluated pairs: antipodal z-axis and x-axis (for d=2) pairs."""
    z = StatePair(_basis_state(dim, 0), _basis_state(dim, 1), label="canonical-z")
    x = StatePair(
        _superposition_state(dim, +1.0),
        _superposition_state(dim, -1.0),
        label="canonical-x",
    )
    return [z, x]


def _directions(dim, rng, n):
    """The next n sample directions from the stream rng, stacked (n, d, d):
    the Hermitian part of a complex Gaussian matrix, its trace removed and
    scaled to trace norm 2, so that it is the difference of an orthogonal
    pair (see _direction_pair) with D(0) = 1."""
    g = rng.standard_normal((n, 2, dim, dim))
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


@dataclass
class PairSearch:
    """Full record of a maximization run over initial pairs."""

    best: MeasureResult
    n_canonical: float
    n_sampled_max: float
    samples_evaluated: int
    failures: List[str] = field(default_factory=list)


def _pair_values(flow, n, diffs, times, threshold=None):
    """(start, block, values, errors, intervals) of each block of _block_size
    of n pairs under the flow on times, a uniform grid that the caller has
    checked; diffs(start, stop) gives the block of differences rho1 - rho2 of
    pairs start .. stop - 1, stacked (P, d, d), and is called in pair order.
    D and sigma of a block go into two work buffers allocated once, and its
    growth intervals are found at once. A failed pair has value NaN and its
    reason in errors (None for the others); its block-mates still score.
    intervals: (rows, a, b, contributions) of the scored pairs, rows in block."""
    d, times = _flow_dim(flow, times)
    op = _pair_operator(flow, d)
    size = _block_size(times, d)
    work = np.empty((2, size, times.size))
    for start in range(0, n, size):
        block = diffs(start, min(start + size, n))
        p = len(block)
        errs = _distances(op, block, times, work)
        dist, sigma = work[0, :p], _sigma(work[0, :p], times[1] - times[0], work[1, :p])
        rows, a, b, c = _growth(times, dist, sigma, threshold)
        for r, x in zip(rows[c < -1e-12], c[c < -1e-12]):
            errs[r] = errs[r] or f"negative contribution {float(x)}"
        ok = np.array([e is None for e in errs])
        # bincount adds each row's contributions in order, as sum() does.
        totals = np.bincount(rows, weights=c, minlength=p)
        keep = ok[rows]
        found = (rows[keep], a[keep], b[keep], c[keep])
        yield start, block, np.where(ok, totals, np.nan), errs, found


def search_pairs(flow, n_pairs, times, threshold=None, seed=0):
    """Evaluate the canonical pairs, then n_pairs sample directions (see
    _directions) from the stream state_rng(seed), under the flow on times,
    tracking the maximum. Sample i is the i-th direction of the stream,
    whatever the grid or the block size.

    Ties are broken in favor of the first evaluated pair (canonical pairs
    first, then sample order), so the result is deterministic and the best
    value is monotone in n_pairs. Only the best pair gets its interval list
    and, if it is a sample, its states (see _direction_pair).
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    _check_threshold(threshold)
    dim, times = _flow_dim(flow, times)
    _check_uniform_grid(times)
    rng = state_rng(seed)
    canonical = canonical_pairs(dim)
    first = np.stack([p.rho1.matrix - p.rho2.matrix for p in canonical])
    m = len(canonical)

    def diffs(start, stop):
        drawn = _directions(dim, rng, max(0, stop - max(start, m)))
        return np.concatenate([first[start:stop], drawn])

    def label(i):
        return canonical[i].label if i < m else f"sample-{i - m}"

    # Of the samples only their failures and maximum stay, so that memory
    # does not grow with n_pairs.
    n_canonical, n_sampled_max, failures, peak = [], 0.0, [], -np.inf
    for start, block, vals, errs, (rows, a, b, c) in _pair_values(
        flow, m + n_pairs, diffs, times, threshold
    ):
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
    result = _measure_result(_interval_list(*intervals), times, pair)
    evaluated = result.samples_evaluated = m + n_pairs - len(failures)
    result.seed = seed
    return PairSearch(result, n_canonical[0], n_sampled_max, evaluated, failures)


@dataclass
class SweepRecord:
    """One parameter point of a sweep: overall, canonical and sampled maxima."""

    parameter: float
    n_value: float = np.nan
    n_canonical: float = np.nan
    n_sampled_max: float = np.nan
    best_pair_label: Optional[str] = None
    diverging: bool = False
    error: Optional[str] = None


def sweep(flow_family, parameters, times, n_pairs, threshold=None, seed=0):
    """search_pairs on the flow flow_family(value) for each parameter value;
    per-point failures, building the flow included, are recorded in the
    output instead of aborting the sweep."""
    parameters = list(parameters)
    if not parameters:
        raise ValueError("parameter grid is empty")
    _check_threshold(threshold)
    state_rng(seed)  # rejects a seed that is not an integer before any point
    records = []
    for value in parameters:
        try:
            search = search_pairs(flow_family(value), n_pairs, times, threshold, seed)
            records.append(
                SweepRecord(
                    parameter=float(value),
                    n_value=search.best.n_value,
                    n_canonical=search.n_canonical,
                    n_sampled_max=search.n_sampled_max,
                    best_pair_label=search.best.best_pair.label,
                    diverging=search.best.diverging,
                )
            )
        except (NumericalError, ValueError) as exc:
            records.append(SweepRecord(parameter=float(value), error=str(exc)))
    return records
