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


def _qubit_distance_grid(diff_vecs):
    """Trace distances of column-stacked 2x2 Hermitian differences, vectorized.

    For a Hermitian 2x2 difference the distance is max(|mean|, radius) with
    mean and radius from the closed-form eigenvalues.
    """
    p = diff_vecs[:, 0].real
    q = diff_vecs[:, 2]
    r = diff_vecs[:, 3].real
    mean = 0.5 * (p + r)
    radius = np.sqrt((0.5 * (p - r)) ** 2 + np.abs(q) ** 2)
    return np.maximum(np.abs(mean), radius)


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


def trajectory(flow, pair, times):
    """D(t) and sigma(t) for the pair under the flow Phi(t_k, 0) on times; the
    trace distance needs only the evolved difference, which the flow gives by
    linearity."""
    d, times = _flow_dim(flow, times)
    if pair.dim != d:
        raise ValueError(f"pair dimension {pair.dim} != flow dimension {d}")
    diff0 = (pair.rho1.matrix - pair.rho2.matrix).reshape(-1, order="F")
    # One matrix-vector product over all grid points.
    diffs = (flow.reshape(-1, d * d) @ diff0).reshape(times.size, d * d)
    if d == 2:
        d_values = _qubit_distance_grid(diffs)
    else:
        # Row-major reshape then swap: each matrix unstacks its columns.
        m = diffs.reshape(-1, d, d).swapaxes(1, 2)
        m = 0.5 * (m + m.swapaxes(1, 2).conj())
        d_values = 0.5 * np.sum(np.abs(hermitian_eigenvalues(m, tol=1e-8)), axis=1)
    bad = ~(d_values <= 1.0 + 1e-8)  # also catches NaN
    if bad.any():
        k = int(np.argmax(bad))
        raise InvariantViolation(
            f"trace distance {d_values[k]:.6g} exceeds 1 or is not finite at "
            f"t={times[k]:.6g} (step too coarse, or the generator is not "
            "positivity preserving)"
        )
    d_values = np.clip(d_values, 0.0, 1.0)
    return trajectory_from_values(times, d_values)


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


def default_threshold(traj):
    """Noise floor for sigma: 1e-9 of the peak |sigma|, floored at 1e-12."""
    return max(THRESHOLD_FLOOR, THRESHOLD_SCALE * float(np.max(np.abs(traj.sigma_values))))


def growth_intervals(traj, threshold=None):
    """Maximal runs of sigma > threshold with interpolated endpoints.

    Endpoints are refined by linear interpolation of sigma's crossing of the
    threshold between neighboring grid points, and contributions use D
    interpolated at the refined endpoints, so the interval sum and the
    quadrature of positive sigma agree to the discretization order.
    """
    _check_threshold(threshold)
    if threshold is None:
        threshold = default_threshold(traj)
    t, d, s = traj.times, traj.d_values, traj.sigma_values
    mask = s > threshold
    if not mask.any():
        return []
    edges = np.flatnonzero(np.diff(mask.astype(np.int8)))
    starts = [0] if mask[0] else []
    ends = []
    for e in edges:
        if mask[e + 1]:
            starts.append(e + 1)
        else:
            ends.append(e)
    if mask[-1]:
        ends.append(mask.size - 1)

    intervals = []
    for i0, i1 in zip(starts, ends):
        if i0 > 0:
            frac = (threshold - s[i0 - 1]) / (s[i0] - s[i0 - 1])
            a = t[i0 - 1] + frac * (t[i0] - t[i0 - 1])
            da = d[i0 - 1] + frac * (d[i0] - d[i0 - 1])
        else:
            a, da = t[0], d[0]
        if i1 < mask.size - 1:
            frac = (s[i1] - threshold) / (s[i1] - s[i1 + 1])
            b = t[i1] + frac * (t[i1 + 1] - t[i1])
            db = d[i1] + frac * (d[i1 + 1] - d[i1])
        else:
            b, db = t[-1], d[-1]
        if b > a:
            intervals.append(GrowthInterval(float(a), float(b), float(db - da)))
    return intervals


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


def n_from_trajectory(traj, pair, threshold=None):
    """MeasureResult for a precomputed trajectory (e.g. an analytic model)."""
    intervals = growth_intervals(traj, threshold)
    n_value = float(sum(iv.contribution for iv in intervals))
    diverging = bool(intervals) and intervals[-1].contribution > DIVERGENCE_CONTRIBUTION
    return MeasureResult(
        intervals=intervals,
        n_value=n_value,
        horizon=float(traj.times[-1]),
        best_pair=pair,
        diverging=diverging,
    )


def n_for_pair(flow, pair, times, threshold=None):
    """Summed trace-distance growth for one fixed initial pair."""
    traj = trajectory(flow, pair, times)
    return n_from_trajectory(traj, pair, threshold)


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


def search_pairs(flow, n_pairs, times, threshold=None, seed=0):
    """Evaluate canonical plus n_pairs sampled pairs under the flow on times,
    tracking the maximum.

    Ties are broken in favor of the first evaluated pair (canonical pairs
    first, then sample order), so the result is deterministic and the best
    value is monotone in n_pairs.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    _check_threshold(threshold)
    dim, times = _flow_dim(flow, times)
    canonical = canonical_pairs(dim)
    samples = (sample_pair(dim, seed, i) for i in range(n_pairs))
    best = None
    n_canonical = 0.0
    n_sampled_max = 0.0
    failures = []
    canonical_failure = None
    for index, pair in enumerate(itertools.chain(canonical, samples)):
        try:
            result = n_for_pair(flow, pair, times, threshold)
        except (NumericalError, ValueError) as exc:
            failures.append(f"{pair.label}: {exc}")
            if index < len(canonical):
                canonical_failure = canonical_failure or failures[-1]
            continue
        if index == 0:
            n_canonical = result.n_value
        elif index >= len(canonical):
            n_sampled_max = max(n_sampled_max, result.n_value)
        if best is None or result.n_value > best.n_value:
            best = result

    if best is None:
        raise NumericalError("all pair evaluations failed; first failure: " + failures[0])
    if canonical_failure:
        # The canonical pairs hold the known maximizers: without one of them
        # the reported maximum cannot be trusted.
        raise NumericalError("canonical pair failed: " + canonical_failure)
    evaluated = len(canonical) + n_pairs - len(failures)
    best.samples_evaluated = evaluated
    best.seed = seed
    return PairSearch(best, n_canonical, n_sampled_max, evaluated, failures)


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
