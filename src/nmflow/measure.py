"""Trace-distance growth analysis: sigma(t), growth intervals, and the
non-Markovianity functional of a dynamical map.

The map enters only as its flow Phi(t_k, 0) on a uniform time grid, an array
of shape (T, d^2, d^2) acting on column-stacked density matrices, however it
was obtained (RK4 integration of a generator or a closed form).

The measure is the maximal total growth of the trace distance over all
intervals where its derivative sigma is positive, maximized over pairs of
initial states. The maximization is a deterministic seeded random search
(half pure/pure, a quarter pure/mixed, a quarter mixed/mixed) with the two
canonical qubit pairs always evaluated first, so known maximizers are never
missed. Everything is truncated at a finite horizon; a run whose last
interval still contributes more than 0.5 is flagged as diverging.
"""
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .dynamics import _check_uniform_grid
from .exceptions import InvariantViolation, NumericalError
from .linalg import hermitian_eigenvalues
from .states import DensityMatrix, StatePair, random_mixed_state, random_pure_state

D_VALUE_TOL = 1e-10
THRESHOLD_FLOOR = 1e-12
THRESHOLD_SCALE = 1e-9
DIVERGENCE_CONTRIBUTION = 0.5
# Entries (pairs x grid points x d^2) of the evolved differences of one block
# of pairs (at least one pair); bounds the memory of a search. Measured on the
# jc-measure benchmark command (T = 10,001): 3 pairs per block ran about 8%
# faster than these 2 but raised peak RSS by 4.2% instead of 2.9%.
PAIR_BLOCK = 100_000
# Columns: the column-stacked Pauli matrices I, X, Y, Z.
_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]]).T


class _UniformGrid(np.ndarray):
    """A time grid that _flow_dim has checked to be uniform, so that the pairs
    evaluated on it do not check it again."""


@dataclass
class TrajectoryGrid:
    """Sampled trace distance and its rate of change on a uniform time grid."""

    times: np.ndarray
    d_values: np.ndarray
    sigma_values: np.ndarray

    def __post_init__(self):
        t = self.times
        if not isinstance(t, _UniformGrid):
            t, _ = _check_uniform_grid(t)
        t = np.asarray(t)
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


def trajectory_from_values(times, d_values):
    """TrajectoryGrid from sampled D(t); sigma by second-order differences
    (central in the interior, one-sided at the ends)."""
    t = np.asanyarray(times, dtype=float)
    d = np.asarray(d_values, dtype=float)
    sigma = np.gradient(d, t[1] - t[0], edge_order=2)
    return TrajectoryGrid(times=t, d_values=d, sigma_values=sigma)


def make_time_grid(horizon, step):
    if horizon <= 0 or step <= 0:
        raise ValueError("horizon and step must be positive")
    n = int(round(horizon / step))
    if n < 10:
        raise ValueError(f"horizon/step = {horizon / step:.3g} must be >= 10")
    return np.arange(n + 1) * step


def _flow_dim(flow, times):
    """(d, times) for a flow Phi(t_k, 0) of shape (T, d^2, d^2) on T times,
    which must form a uniform grid of at least 10 intervals; the times come
    back as a _UniformGrid, which later calls take as checked."""
    if not isinstance(times, _UniformGrid):
        if np.size(times) < 11:
            raise ValueError(f"{np.size(times) - 1} grid intervals; sigma needs >= 10")
        times = _check_uniform_grid(times)[0].view(_UniformGrid)
    d = math.isqrt(flow.shape[-1])
    if flow.shape != (times.size, d * d, d * d):
        raise ValueError(f"flow shape {flow.shape} is not (T, d^2, d^2) on {times.size} times")
    return d, times


def _pair_operator(flow, d):
    """What the pairs read of the flow Phi(t_k, 0): for qubits the real Pauli
    map M(t) = B^dag Phi(t) B / 2 on traceless inputs, stored (4, 3, T); for
    d > 2 the flow as one (T d^2, d^2) matrix."""
    if d == 2:
        op = np.empty((4, 3, len(flow)))
        # A slice of grid points at a time keeps the complex products small.
        for k in range(0, len(flow), 1024):
            m = _PAULI.conj().T @ flow[k : k + 1024] @ _PAULI[:, 1:]
            op[..., k : k + 1024] = 0.5 * m.real.transpose(1, 2, 0)
        return op
    return flow.reshape(-1, d * d)


def _distances(op, pairs, times):
    """Trace distances D(t_k) of the pairs' evolved differences, shape (P, T),
    from the _pair_operator op (the flow gives the difference by linearity),
    and a message per pair (None if fine) where D exceeds 1 or is not
    finite; such rows are zeroed, and the others capped at 1."""
    diffs = np.stack([p.rho1.matrix - p.rho2.matrix for p in pairs])
    d = diffs.shape[1]
    vecs = diffs.transpose(0, 2, 1).reshape(len(pairs), d * d)  # column-stacked
    if d == 2:
        # D = max(|trace part|, Bloch length) of the evolved Pauli
        # coefficients, the closed form of the two eigenvalues mean +- radius.
        x = 0.5 * (vecs @ _PAULI[:, 1:].conj()).real
        c = x @ op  # (4, P, T): four (P, 3) x (3, T) products
        np.abs(c[0], out=c[0])
        np.square(c[1:], out=c[1:])
        dist = c[1] + c[2]
        dist += c[3]
        np.maximum(c[0], np.sqrt(dist, out=dist), out=dist)
    else:
        # Row-major reshape then swap: each matrix unstacks its columns.
        m = (op @ vecs.T).T.reshape(len(pairs), -1, d, d).swapaxes(2, 3)
        m = 0.5 * (m + m.swapaxes(2, 3).conj())
        finite = np.isfinite(m).all(axis=(2, 3))
        m[~finite] = 0.0
        dist = 0.5 * np.sum(np.abs(hermitian_eigenvalues(m, tol=1e-8)), axis=2)
        dist[~finite] = np.nan
    errors = [None] * len(dist)
    for i in np.flatnonzero(~(dist.max(axis=1) <= 1.0 + 1e-8)):  # also catches NaN
        k = int(np.argmax(~(dist[i] <= 1.0 + 1e-8)))
        errors[i] = (
            f"trace distance {dist[i, k]:.6g} exceeds 1 or is not finite at "
            f"t={times[k]:.6g} (step too coarse, or the generator is not "
            "positivity preserving)"
        )
        dist[i] = 0.0
    np.minimum(dist, 1.0, out=dist)
    return dist, errors


def trajectory(flow, pair, times):
    """D(t) and sigma(t) for the pair under the flow Phi(t_k, 0) on times."""
    d, times = _flow_dim(flow, times)
    if pair.dim != d:
        raise ValueError(f"pair dimension {pair.dim} != flow dimension {d}")
    dist, (error,) = _distances(_pair_operator(flow, d), [pair], times)
    if error:
        raise InvariantViolation(error)
    return trajectory_from_values(times, dist[0])


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
    return np.maximum(THRESHOLD_FLOOR, THRESHOLD_SCALE * np.max(np.abs(sigma), axis=1))


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
    mask[:, 1:-1] = s > thr[:, None]
    # A row's crossings alternate: a run starts at column j, then the next
    # crossing j' ends it at column j' - 1.
    rows, cols = np.nonzero(mask[:, 1:] != mask[:, :-1])
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


def sample_pair(dim, seed, index):
    """Deterministic pair for a sample index: indices mod 4 give the 2:1:1
    pure/pure : pure/mixed : mixed/mixed mix."""
    kind = index % 4
    draw1 = random_pure_state if kind in (0, 1, 2) else random_mixed_state
    draw2 = random_pure_state if kind in (0, 1) else random_mixed_state
    rho1 = draw1(dim, seed, worker=2 * index)
    rho2 = draw2(dim, seed, worker=2 * index + 1)
    return StatePair(rho1, rho2, label=f"sample-{index}")


@dataclass
class PairSearch:
    """Full record of a maximization run over initial pairs."""

    best: MeasureResult
    n_canonical: float
    n_sampled_max: float
    samples_evaluated: int
    failures: List[str] = field(default_factory=list)


def _pair_values(flow, pairs, times, threshold=None):
    """(values, failures, intervals) of an iterable of pairs under the flow,
    taken in blocks of PAIR_BLOCK difference entries: D, sigma and growth
    intervals for a whole block at once. A failed pair has value NaN
    and a "label: reason" in failures; its block-mates still score.
    intervals are (rows, a, b, contributions) of the scored pairs, rows
    indexing pairs.
    """
    d, times = _flow_dim(flow, times)
    op = _pair_operator(flow, d)
    size = max(1, PAIR_BLOCK // (times.size * d * d))
    pairs = iter(pairs)
    values, failures, found = [], [], []
    while block := list(itertools.islice(pairs, size)):
        start = len(values)
        dist, errors = _distances(op, block, times)
        sigma = np.gradient(dist, times[1] - times[0], axis=1, edge_order=2)
        rows, a, b, c = _growth(times, dist, sigma, threshold)
        for r, x in zip(rows[c < -1e-12], c[c < -1e-12]):
            errors[r] = errors[r] or f"negative contribution {float(x)}"
        ok = np.array([e is None for e in errors])
        # bincount adds each row's contributions in order, as sum() does.
        totals = np.bincount(rows, weights=c, minlength=len(block))
        values.extend(np.where(ok, totals, np.nan))
        failures += [f"{p.label}: {e}" for p, e in zip(block, errors) if e]
        keep = ok[rows]
        found.append((rows[keep] + start, a[keep], b[keep], c[keep]))
    return np.array(values), failures, tuple(np.concatenate(x) for x in zip(*found))


def search_pairs(flow, n_pairs, times, threshold=None, seed=0):
    """Evaluate canonical plus n_pairs sampled pairs under the flow on times,
    tracking the maximum.

    Ties are broken in favor of the first evaluated pair (canonical pairs
    first, then sample order), so the result is deterministic and the best
    value is monotone in n_pairs. Only the best pair gets its interval list.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    _check_threshold(threshold)
    dim, times = _flow_dim(flow, times)
    canonical = canonical_pairs(dim)
    # Drawn as they are evaluated; the best is drawn again.
    samples = (sample_pair(dim, seed, i) for i in range(n_pairs))
    values, failures, (rows, a, b, c) = _pair_values(
        flow, itertools.chain(canonical, samples), times, threshold
    )
    failed = np.isnan(values)
    if failed.all():
        raise NumericalError("all pair evaluations failed; first failure: " + failures[0])
    if failed[: len(canonical)].any():
        # The canonical pairs hold the known maximizers: without one of them
        # the reported maximum cannot be trusted. Their failures come first.
        raise NumericalError("canonical pair failed: " + failures[0])
    best = int(np.nanargmax(values))  # the first of equal values
    k = rows == best
    pair = canonical[best] if best < len(canonical) else sample_pair(dim, seed, best - len(canonical))
    result = _measure_result(_interval_list(a[k], b[k], c[k]), times, pair)
    evaluated = len(values) - len(failures)
    result.samples_evaluated = evaluated
    result.seed = seed
    sampled = values[len(canonical) :]
    n_sampled_max = float(np.max(sampled, initial=0.0, where=~failed[len(canonical) :]))
    return PairSearch(result, float(values[0]), n_sampled_max, evaluated, failures)


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
