"""End-to-end acceptance suite.

Each test is one numbered criterion; conftest.py prints a PASS/FAIL line per
criterion in the terminal summary. Tolerances are stated inline and are not
to be loosened.
"""
import numpy as np
import pytest

from oracles import apply_map, pauli_map, random_mixed_state, random_pure_state, volterra_amplitude

from nmflow.dynamics import (
    GeneratorSpec,
    divisibility_report,
    evolve_state,
    is_cp,
    propagator_between,
    propagator_grid,
)
from nmflow.measure import (
    _growth_steps,
    _pair_operator,
    canonical_pairs,
    make_time_grid,
    n_from_trajectory,
    search_pairs,
    trajectory,
    trajectory_from_values,
)
from nmflow.models import (
    JCParams,
    SpinBathParams,
    jc_amplitude,
    jc_decay_exponent,
    jc_generator,
    jc_rate,
    semigroup_generator,
    spinbath_trace_distance,
)
from nmflow.states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    StatePair,
    trace_distance,
)

Z_PAIR = canonical_pairs(2)[0]


def grid_flow(gen, horizon, step):
    """RK4 flow of the generator on the uniform grid, and the grid."""
    times = make_time_grid(horizon, step)
    return propagator_grid(gen, times), times


def mask_edges(mask):
    """Indices where a boolean grid mask switches value."""
    return np.flatnonzero(np.diff(mask.astype(np.int8)))


def test_criterion_1_growth_set_equals_negative_rate_set():
    # For each oscillatory detuning, {t : sigma > eps} and {t : gamma < 0}
    # must agree up to one grid step per boundary on [0, 20] at h = 1e-3,
    # with eps 1e-9 of the peak |sigma|, floored at 1e-12.
    step = 1e-3
    nonempty = 0
    for delta in (3.0, 5.0, 8.0):
        params = JCParams(gamma0=0.01, lam=1.0, delta=delta)
        flow, times = grid_flow(jc_generator(params), 20.0, step)
        traj = trajectory(flow, Z_PAIR, times)
        eps = max(1e-12, 1e-9 * np.max(np.abs(traj.sigma_values)))
        grow = traj.sigma_values > eps
        negative = jc_rate(params, traj.times) < 0.0
        grow_edges = mask_edges(grow)
        neg_edges = mask_edges(negative)
        assert grow_edges.size == neg_edges.size
        if grow_edges.size:
            # At delta=3 the rate oscillates without changing sign, so both
            # sets are empty and agree trivially.
            assert np.max(np.abs(grow_edges - neg_edges)) <= 1
            nonempty += 1
    assert nonempty >= 2


def test_criterion_2_sigma_identity():
    params = JCParams(gamma0=0.01, lam=1.0, delta=5.0)
    flow, times = grid_flow(jc_generator(params), 20.0, 1e-3)
    traj = trajectory(flow, Z_PAIR, times)
    predicted = -jc_rate(params, traj.times) * np.exp(
        -jc_decay_exponent(params, traj.times)
    )
    assert np.max(np.abs(traj.sigma_values - predicted)) <= 5e-6


def test_criterion_3_amplitude_matches_volterra_oracle():
    params = JCParams(gamma0=0.01, lam=1.0, delta=5.0)
    times, g_oracle = volterra_amplitude(0.01, 1.0, 5.0, 20.0, 100_000)
    assert np.max(np.abs(jc_amplitude(params, times) - g_oracle)) <= 1e-8


def test_criterion_4_spinbath_quantized_measure():
    params = SpinBathParams(coupling_a=1.0, n_spins=20)
    pair = canonical_pairs(2)[1]
    for m in (1, 2, 3):
        # The grid ends at the whole number of steps nearest the horizon.
        horizon = round((m * np.pi / 2.0 + 0.3) / 5e-4) * 5e-4
        times = make_time_grid(horizon, 5e-4)
        d = spinbath_trace_distance(params, 0.0, 1.0, times)
        result = n_from_trajectory(trajectory_from_values(times, d), pair)
        assert abs(result.n_value - m) <= 1e-5
        assert result.diverging  # the per-interval contribution never decays

    # Closed-form distance vs trace_distance on explicitly built pairs.
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 200:
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
        t = rng.uniform(0.0, 3.0)
        half_diff = 0.5 * np.array([[a, b], [np.conj(b), -a]])
        try:
            m1 = DensityMatrix(0.5 * np.eye(2, dtype=complex) + half_diff)
            m2 = DensityMatrix(0.5 * np.eye(2, dtype=complex) - half_diff)
        except ValueError:
            continue
        f_scale = np.cos(2.0 * t) ** 20
        e1 = m1.matrix.copy()
        e2 = m2.matrix.copy()
        for m_ in (e1, e2):
            m_[0, 1] *= f_scale
            m_[1, 0] *= f_scale
        direct = trace_distance(DensityMatrix(e1), DensityMatrix(e2))
        closed = spinbath_trace_distance(params, a, b, t)
        assert abs(direct - closed) <= 1e-12
        checked += 1


def test_criterion_5_markovian_models_score_zero():
    cases = [
        (semigroup_generator(1.0), 5.0, 1e-2),
        (jc_generator(JCParams(delta=5.0), nonnegative_rate=True), 20.0, 1e-3),
    ]
    for gen, horizon, step in cases:
        flow, times = grid_flow(gen, horizon, step)
        search = search_pairs(flow, 200, times, seed=0)
        assert search.failures == []
        assert search.best.n_value == 0.0
        report = divisibility_report(gen, np.linspace(0.0, horizon, 21), h=step)
        assert report.divisible


def test_criterion_6_detuning_sweep_structure():
    deltas = np.linspace(0.0, 10.0, 11)
    canonical = []
    for delta in deltas:
        gen = jc_generator(JCParams(gamma0=0.01, lam=1.0, delta=float(delta)))
        flow, times = grid_flow(gen, 40.0, 1e-3)
        search = search_pairs(flow, 1000, times, seed=0)
        assert search.failures == []
        # (a) no sampled pair beats the antipodal z-axis pair meaningfully.
        assert search.n_sampled_max <= search.n_canonical + 1e-6
        canonical.append(search.n_canonical)
    canonical = np.array(canonical)
    # (b) non-monotonic with an interior maximum.
    peak = int(np.argmax(canonical))
    assert 0 < peak < canonical.size - 1
    assert canonical[peak] > canonical[0]
    assert canonical[peak] > canonical[-1]
    # (c) the resonant point is Markovian.
    assert canonical[0] == 0.0


def test_criterion_7_cp_propagators_contract():
    generators = [
        semigroup_generator(1.0),
        jc_generator(JCParams(delta=0.0)),
        jc_generator(JCParams(delta=5.0)),
    ]
    grid = np.linspace(0.0, 5.0, 1001)
    rng = np.random.default_rng(77)
    n_propagators = 0
    n_checks = 0
    for gen in generators:
        phis = propagator_grid(gen, grid)
        for k in rng.integers(1, grid.size, size=70):
            p = phis[k]
            ok, _ = is_cp(p)
            assert ok
            n_propagators += 1
            for j in range(5):
                r1 = random_mixed_state(2, 1000 * n_propagators + j, worker=0)
                r2 = random_pure_state(2, 1000 * n_propagators + j, worker=1)
                before = trace_distance(r1, r2)
                after = trace_distance(apply_map(p, r1), apply_map(p, r2))
                assert after <= before + 1e-9
                n_checks += 1
    assert n_propagators >= 200
    assert n_checks >= 1000


def test_criterion_8_intermediate_map_loses_complete_positivity():
    gen = jc_generator(JCParams(gamma0=0.01, lam=1.0, delta=5.0))
    # [0.75, 1.0] sits inside the first negative-rate window.
    mid = propagator_between(gen, 0.75, 1.0, 5e-4)
    ok, least = is_cp(mid)
    assert not ok
    assert least < -1e-6
    # Every map from the initial time stays CP.
    for t in np.linspace(0.5, 6.0, 12):
        ok, _ = is_cp(propagator_between(gen, 0.0, float(t), 1e-3))
        assert ok


def test_criterion_9_integrator_is_fourth_order():
    gamma0 = 1.0
    gen = semigroup_generator(gamma0)
    rho0 = DensityMatrix(0.5 * np.array([[1, 1], [1, 1]], dtype=complex))
    errors = []
    h = 1e-2 / gamma0
    for _ in range(4):
        grid = np.arange(0.0, 1.0 + h / 2, h)
        states = evolve_state(gen, rho0, grid)
        exact = [
            np.array(
                [
                    [0.5 * np.exp(-gamma0 * t), 0.5 * np.exp(-0.5 * gamma0 * t)],
                    [0.5 * np.exp(-0.5 * gamma0 * t), 1.0 - 0.5 * np.exp(-gamma0 * t)],
                ],
                dtype=complex,
            )
            for t in grid
        ]
        errors.append(
            max(np.max(np.abs(s.matrix - e)) for s, e in zip(states, exact))
        )
        h /= 2.0
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 12.0


def test_criterion_10_p_divisible_map_scores_zero_but_is_not_cp_divisible():
    # The eternally non-Markovian Pauli channel of Hall, Cresser, Li and
    # Andersson, PRA 89, 042120 (2014): rates 1/2 on sigma_x and sigma_y and
    # -tanh(t)/2 on sigma_z, each channel gamma (A rho A^dag - rho). Its Bloch
    # scalings are (1 + e^{-2t})/2 on x and y and e^{-2t} on z, so the map is
    # P-divisible (no pair's trace distance ever grows) while every
    # intermediate map from t_a > 0 has the negative Choi eigenvalue
    # (1 - 2 f(t_b)/f(t_a) + e^{-2(t_b - t_a)})/2, f(t) = (1 + e^{-2t})/2.
    gen = GeneratorSpec(2, np.zeros((2, 2)), [
        (SIGMA_X, 0.5), (SIGMA_Y, 0.5), (SIGMA_Z, lambda t: -0.5 * np.tanh(t))])
    flow, times = grid_flow(gen, 3.0, 1e-3)
    op = pauli_map(flow)
    f = 0.5 * (1.0 + np.exp(-2.0 * times))
    expected = np.zeros_like(op)
    expected[1, 0] = expected[2, 1] = f
    expected[3, 2] = np.exp(-2.0 * times)
    assert np.max(np.abs(op - expected)) <= 1e-12
    # No step can raise D for any pair, and the search finds no growth.
    assert not _growth_steps(_pair_operator(flow, times.size)[1]).any()
    search = search_pairs(flow, 200, times, seed=0)
    assert search.failures == []
    assert search.best.n_value == 0.0
    # The map from 0 is CP; every later intermediate map is not.
    grid = np.linspace(0.0, 3.0, 31)
    report = divisibility_report(gen, grid, h=1e-3)
    a, b = grid[:-1], grid[1:]
    lam_xy = (1.0 + np.exp(-2.0 * b)) / (1.0 + np.exp(-2.0 * a))
    closed = 0.5 * (1.0 - 2.0 * lam_xy + np.exp(-2.0 * (b - a)))
    least = np.array([v.least_choi_eigenvalue for v in report.intervals])
    assert np.max(np.abs(least - closed)) <= 1e-9
    assert [v.is_cp for v in report.intervals] == [True] + [False] * 29
    assert np.all(least[1:] < -1e-6)
