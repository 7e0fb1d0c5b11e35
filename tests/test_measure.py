import re

import numpy as np
import pytest

from oracles import (
    callable_d3_generator,
    pair_value,
    pauli_map,
    qubit_distance_grid,
    random_mixed_state,
    random_pure_state,
    splitmix64,
    splitmix_normals,
)

from nmflow.dynamics import (
    STEP_BLOCK,
    GeneratorSpec,
    constant_generator,
    divisibility_report,
    flow_blocks,
    propagator_grid,
)
from nmflow.exceptions import InvariantViolation, NumericalError
from nmflow.measure import (
    MAX_GRID_STEPS,
    PAIR_BLOCK,
    GrowthInterval,
    _block_size,
    _direction_pair,
    _directions,
    _evaluated_columns,
    _growth_steps,
    _normals,
    _pair_operator,
    _pair_values,
    _rising_steps,
    _splitmix64,
    canonical_pairs,
    growth_intervals,
    make_time_grid,
    n_for_pair,
    n_from_trajectory,
    search_pairs,
    sweep,
    trajectory,
    trajectory_from_values,
)
from nmflow.models import (
    JCParams,
    PhaseCovariantFlow,
    SpinBathParams,
    jc_amplitude,
    jc_flow,
    jc_generator,
    jc_rate,
    semigroup_flow,
    semigroup_generator,
    spinbath_f,
    spinbath_flow,
    spinbath_trace_distance,
)
from nmflow.states import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    StatePair,
    bloch_from_qubit,
    qubit_from_bloch,
    trace_distance,
)

Z_PAIR, X_PAIR = canonical_pairs(2)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_canonical_pairs_are_exact(dim):
    # The x states are built from halves, not from squared 1/sqrt(2) amplitudes.
    pairs = canonical_pairs(dim)
    for pair in pairs:
        assert [np.trace(rho.matrix).real for rho in (pair.rho1, pair.rho2)] == [1.0, 1.0]
        assert trace_distance(pair.rho1, pair.rho2) == 1.0
    if dim == 2:
        x = pairs[1]
        assert bloch_from_qubit(x.rho1) == (1.0, 0.0, 0.0)
        assert bloch_from_qubit(x.rho2) == (-1.0, 0.0, 0.0)


def blow_up_generator(rate=-50.0):
    """sigma_minus channel at a negative rate. At -50 and step 1e-2, h ||K|| =
    0.5 is within the step bound, and the RK4 flow overflows at t=14.21; at
    -1e5, h ||K|| = 1e3 and the step bound refuses the flow at t=0."""
    return constant_generator(np.zeros((2, 2)), [(SIGMA_MINUS, rate)])


def grid_flow(gen, horizon, step):
    """RK4 flow of the generator on the uniform grid, and the grid."""
    times = make_time_grid(horizon, step)
    return propagator_grid(gen, times), times


def spinbath_trajectory(params, horizon, step):
    times = make_time_grid(horizon, step)
    d = spinbath_trace_distance(params, 0.0, 1.0, times)
    return trajectory_from_values(times, d)


class TestTrajectory:
    def test_semigroup_distance_is_exponential(self):
        flow, times = grid_flow(semigroup_generator(1.0), 5.0, 1e-3)
        traj = trajectory(flow, Z_PAIR, times)
        assert np.max(np.abs(traj.d_values - np.exp(-traj.times))) < 1e-7
        assert np.all(traj.sigma_values <= 1e-9)

    def test_frozen_generator_gives_flat_distance(self):
        from nmflow.dynamics import constant_generator

        gen = constant_generator(np.zeros((2, 2)), [])
        flow, times = grid_flow(gen, 1.0, 1e-2)
        traj = trajectory(flow, Z_PAIR, times)
        assert np.all(traj.d_values == 1.0)
        assert np.max(np.abs(traj.sigma_values)) < 1e-12

    def test_grid_resolution_guard(self):
        times = np.linspace(0.0, 1.0, 3)
        flow = propagator_grid(semigroup_generator(1.0), times)
        with pytest.raises(ValueError, match=">= 10"):
            trajectory(flow, Z_PAIR, times)
        with pytest.raises(ValueError, match=">= 10"):
            search_pairs(flow, 2, times)

    def test_flow_must_fit_times_and_pair(self):
        flow, times = grid_flow(semigroup_generator(1.0), 1.0, 1e-2)
        with pytest.raises(ValueError, match="flow shape"):
            trajectory(flow[:-1], Z_PAIR, times)
        with pytest.raises(ValueError, match="^flow shape"):
            search_pairs(flow[:-1], 2, times)
        d4_pair = StatePair(random_pure_state(4, 1), random_pure_state(4, 2))
        with pytest.raises(ValueError, match="pair dimension 4 != flow dimension 2"):
            trajectory(flow, d4_pair, times)

    def test_non_uniform_grid_rejected(self):
        flow, times = grid_flow(semigroup_generator(1.0), 1.0, 1e-2)
        bent = times.copy()
        bent[5] += 1e-3
        with pytest.raises(ValueError, match="^time grid must be uniform$"):
            trajectory(flow, Z_PAIR, bent)
        with pytest.raises(ValueError, match="^time grid must be uniform$"):
            search_pairs(flow, 2, bent)
        with pytest.raises(ValueError, match="^time grid must be uniform$"):
            trajectory_from_values(bent, np.zeros(bent.size))
        # A NaN or an infinite time is refused too, and by trajectory before it
        # reads a stream whose flow blows up.
        message = "^time grid must be finite and strictly increasing$"
        exact = jc_flow(JCParams(gamma0=5.0), make_time_grid(10.0, 1e-2))
        for k, value in ((1, np.nan), (-1, np.inf)):
            spoiled = times.copy()
            spoiled[k] = value
            with pytest.raises(ValueError, match=message):
                trajectory(flow_blocks(blow_up_generator(), times), Z_PAIR, spoiled)
            with pytest.raises(ValueError, match=message):
                search_pairs(flow, 2, spoiled)
            with pytest.raises(ValueError, match=message):
                trajectory_from_values(spoiled, np.zeros(spoiled.size))
            with pytest.raises(ValueError, match=message):
                propagator_grid(semigroup_generator(1.0), spoiled)
            spoiled = make_time_grid(10.0, 1e-2)
            spoiled[k] = value
            with pytest.raises(ValueError, match=message):
                search_pairs(exact, 5, spoiled)

    def test_shared_grid_is_checked_once_per_call(self, monkeypatch):
        import nmflow.measure

        calls = []
        check = nmflow.measure._check_uniform_grid

        def counted(t_grid):
            calls.append(np.size(t_grid))
            return check(t_grid)

        monkeypatch.setattr(nmflow.measure, "_check_uniform_grid", counted)
        flow, times = grid_flow(semigroup_generator(1.0), 1.0, 1e-2)
        trajectory(flow, Z_PAIR, times)
        assert calls == [times.size]
        search = search_pairs(flow, 5, times)
        assert search.samples_evaluated == 7
        assert calls == [times.size, times.size]

    def test_sigma_is_numpys_second_order_gradient_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for step in (1e-3, 0.3):
            times = np.arange(50) * step
            d = rng.random(times.size)
            traj = trajectory_from_values(times, d)
            assert np.array_equal(traj.sigma_values, np.gradient(d, step, edge_order=2))
        with pytest.raises(ValueError, match="at least 3 values"):
            trajectory_from_values(np.arange(2.0), np.zeros(2))

    def test_spinbath_flow_matches_closed_form_distance(self):
        params = SpinBathParams(coupling_a=1.0, n_spins=20)
        times = make_time_grid(3.0, 1e-3)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            a = rng.uniform(-1.0, 1.0)
            b = rng.uniform(0.0, 0.999 * np.sqrt(1.0 - a * a)) * np.exp(
                1j * rng.uniform(0.0, 2.0 * np.pi))
            # Bloch vectors +-(Re b, -Im b, a) have rho1 - rho2 = [[a, b], [b~, -a]].
            pair = StatePair(qubit_from_bloch(b.real, -b.imag, a),
                             qubit_from_bloch(-b.real, b.imag, -a))
            closed = spinbath_trace_distance(params, a, b, times)
            flow = spinbath_flow(params, times)  # a stream, read once
            worst = max(worst, np.max(np.abs(trajectory(flow, pair, times).d_values - closed)))
        assert worst <= 1e-14

    def test_d4_distance_matches_per_point_loop(self):
        rng = np.random.default_rng(11)

        def ginibre():
            return rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

        a = ginibre()
        gen = constant_generator(
            0.5 * (a + a.conj().T), [(ginibre() / 4.0, rate) for rate in (0.3, 0.7)]
        )
        pair = StatePair(random_pure_state(4, 5), random_mixed_state(4, 6))
        flow, times = grid_flow(gen, 0.5, 1e-2)
        traj = trajectory(flow, pair, times)
        diff0 = (pair.rho1.matrix - pair.rho2.matrix).reshape(-1, order="F")
        expected = []
        for phi in flow:
            m = (phi @ diff0).reshape(4, 4, order="F")
            expected.append(0.5 * np.sum(np.abs(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))))
        assert np.max(np.abs(traj.d_values - np.array(expected))) < 1e-12

    def test_d2_distance_matches_per_point_products(self):
        gen = jc_generator(JCParams(delta=8.0))
        flow, times = grid_flow(gen, 5.0, 1e-3)
        pure_mixed = StatePair(random_pure_state(2, 4, 4), random_mixed_state(2, 4, 5))
        mixed_mixed = StatePair(random_mixed_state(2, 4, 6), random_mixed_state(2, 4, 7))
        for pair in (Z_PAIR, X_PAIR, pure_mixed, mixed_mixed):
            traj = trajectory(flow, pair, times)
            diff0 = (pair.rho1.matrix - pair.rho2.matrix).reshape(-1, order="F")
            expected = qubit_distance_grid(np.stack([phi @ diff0 for phi in flow]))
            assert np.max(np.abs(traj.d_values - expected)) < 1e-15

    @pytest.mark.parametrize("steps", [10_000, 40_000])
    @pytest.mark.parametrize("delta", [0.0, 8.0])
    def test_qubit_pauli_map_is_the_complex_products_bit_for_bit(self, delta, steps):
        flow, _ = grid_flow(jc_generator(JCParams(delta=delta)), steps * 1e-3, 1e-3)
        op = _pair_operator(flow, steps + 1)[1]
        assert op.shape == (4, 3, steps + 1) and op.flags.c_contiguous
        assert np.array_equal(op, pauli_map(flow))

    def test_non_finite_flow_is_invariant_violation(self):
        with pytest.raises(InvariantViolation, match=r"^propagator has non-finite entries at t=14\.21$"):
            grid_flow(blow_up_generator(), 20.0, 1e-2)
        message = r"^step 0\.01 cannot resolve the generator at t=0: h\*\|\|K\|\| = 1e\+03 > 1$"
        with pytest.raises(InvariantViolation, match=message):
            grid_flow(blow_up_generator(-1e5), 1.0, 1e-2)
        flow, times = grid_flow(semigroup_generator(1.0), 1.0, 1e-2)
        flow[40] = np.nan
        with pytest.raises(InvariantViolation, match="not finite"):
            n_for_pair(flow, X_PAIR, times)
        with pytest.raises(NumericalError, match="all pair evaluations failed.*not finite"):
            search_pairs(flow, 3, times)

    def test_non_finite_precomputed_flow_rejected(self):
        flow, times = grid_flow(semigroup_generator(1.0), 1.0, 1e-2)
        flow[40] = np.nan
        with pytest.raises(InvariantViolation, match=r"not finite at t=0\.4 "):
            trajectory(flow, X_PAIR, times)

    def test_detuned_model_matches_decay_exponent(self):
        from nmflow.models import jc_decay_exponent

        params = JCParams(delta=5.0)
        flow, times = grid_flow(jc_generator(params), 10.0, 1e-3)
        traj = trajectory(flow, Z_PAIR, times)
        expected = np.exp(-jc_decay_exponent(params, traj.times))
        assert np.max(np.abs(traj.d_values - expected)) < 1e-6


class TestGrowthIntervals:
    def test_monotone_decay_has_no_intervals(self):
        times = np.linspace(0.0, 5.0, 501)
        traj = trajectory_from_values(times, np.exp(-times))
        assert growth_intervals(traj) == []

    def test_single_revival_is_one_interval(self):
        # One full revival of the dephasing model: D falls 1 -> 0 -> 1, the
        # growth half contributes exactly 1.
        params = SpinBathParams(coupling_a=1.0, n_spins=20)
        period = round(np.pi / 2.0 / 5e-5) * 5e-5  # on the grid
        traj = spinbath_trajectory(params, period, 5e-5)
        ivs = growth_intervals(traj)
        assert len(ivs) == 1
        assert ivs[0].contribution == pytest.approx(1.0, abs=1e-6)

    def test_interval_count_follows_negative_rate_windows(self):
        params = JCParams(delta=10.0)
        flow, times = grid_flow(jc_generator(params), 15.0, 1e-3)
        traj = trajectory(flow, Z_PAIR, times)
        ivs = growth_intervals(traj)
        assert len(ivs) >= 2
        # Every detected interval sits inside a window where gamma < 0; probe
        # each interior on a 10x finer grid.
        for iv in ivs:
            inner = np.linspace(iv.a, iv.b, 200)[10:-10]
            assert np.max(jc_rate(params, inner)) < 0.0

    def test_interval_sum_matches_positive_slope_quadrature(self):
        params = JCParams(delta=8.0)
        flow, times = grid_flow(jc_generator(params), 20.0, 1e-3)
        traj = trajectory(flow, Z_PAIR, times)
        ivs = growth_intervals(traj)
        total = sum(iv.contribution for iv in ivs)
        h = traj.times[1] - traj.times[0]
        quad = float(np.sum(np.maximum(traj.sigma_values, 0.0)) * h)
        assert total == pytest.approx(quad, abs=1e-6)

    def test_intervals_are_the_runs_of_rising_steps(self):
        # Runs from column 0 and to the last column; a rise of 5e-14, below
        # the floor of 1e-13, and a flat step end a run.
        d = [0.5, 0.6, 0.6 + 5e-14, 0.7, 0.65, 0.8, 0.9, 0.9, 0.95, 0.94, 1.0]
        traj = trajectory_from_values(np.arange(11.0), d)
        got = [(iv.a, iv.b, iv.contribution) for iv in growth_intervals(traj)]
        assert got == [(0.0, 1.0, d[1] - d[0]), (2.0, 3.0, d[3] - d[2]), (4.0, 6.0, d[6] - d[4]),
                       (7.0, 8.0, d[8] - d[7]), (9.0, 10.0, d[10] - d[9])]
        assert n_from_trajectory(traj, X_PAIR).n_value == sum(c for _, _, c in got)

    def test_interval_validation(self):
        with pytest.raises(ValueError, match="a < b"):
            GrowthInterval(1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="negative contribution"):
            GrowthInterval(0.0, 1.0, -0.1)


class TestPerPairValue:
    def test_semigroup_value_is_zero(self):
        flow, times = grid_flow(semigroup_generator(1.0), 5.0, 1e-3)
        result = n_for_pair(flow, Z_PAIR, times)
        assert result.n_value == 0.0
        assert not result.diverging

    def test_revival_count_quantizes_value(self):
        params = SpinBathParams(coupling_a=1.0, n_spins=20)
        for m in (1, 2, 3):
            horizon = round((m * np.pi / 2.0 + 0.3) / 5e-4) * 5e-4  # on the grid
            traj = spinbath_trajectory(params, horizon, 5e-4)
            result = n_from_trajectory(traj, X_PAIR)
            assert result.n_value == pytest.approx(m, abs=1e-5)
            assert result.diverging

    def test_detuned_value_positive_and_not_diverging(self):
        flow, times = grid_flow(jc_generator(JCParams(delta=8.0)), 60.0, 1e-3)
        result = n_for_pair(flow, Z_PAIR, times)
        assert result.n_value > 1e-5
        assert not result.diverging

    def test_horizon_monotonicity(self):
        gen = jc_generator(JCParams(delta=8.0))
        values = []
        for horizon in (10.0, 20.0, 40.0):
            flow, times = grid_flow(gen, horizon, 1e-3)
            values.append(n_for_pair(flow, Z_PAIR, times).n_value)
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    def test_pair_exchange_symmetry(self):
        gen = jc_generator(JCParams(delta=8.0))
        swapped = StatePair(Z_PAIR.rho2, Z_PAIR.rho1, label="swapped")
        flow, times = grid_flow(gen, 20.0, 1e-3)
        a = n_for_pair(flow, Z_PAIR, times)
        b = n_for_pair(flow, swapped, times)
        assert a.n_value == b.n_value


class TestPairSearch:
    def test_sample_pairs_are_deterministic(self):
        # Sample i is direction i of the stream of the seed.
        for dim in (2, 4):
            drawn = _directions(dim, 42, 0, 8)
            assert np.array_equal(drawn, _directions(dim, 42, 0, 8))
            assert not np.array_equal(drawn, _directions(dim, 43, 0, 8))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_directions_are_differences_of_orthogonal_pairs(self, dim):
        for i, x in enumerate(_directions(dim, 9, 0, 50)):
            assert np.array_equal(x, x.conj().T)
            assert abs(np.trace(x)) <= 1e-14
            assert abs(np.sum(np.abs(np.linalg.eigvalsh(x))) - 2.0) <= 1e-14
            pair = _direction_pair(x, f"sample-{i}")
            assert pair.label == f"sample-{i}"
            # The eigendecomposition rounds each part by a few ulp.
            assert np.max(np.abs(pair.rho1.matrix - pair.rho2.matrix - x)) <= 1e-14
            assert abs(np.trace(pair.rho1.matrix @ pair.rho2.matrix)) <= 1e-14
            assert abs(trace_distance(pair.rho1, pair.rho2) - 1.0) <= 1e-14

    @pytest.mark.parametrize("dim", [2, 4])
    def test_draws_do_not_depend_on_the_chunk_size(self, monkeypatch, dim):
        # Direction i is a function of (seed, i) alone, so that any start and
        # count split of the stream gives the same rows; a search draws the
        # directions block by block, in order, after the two canonical pairs.
        import nmflow.measure

        n = 60
        expected = _directions(dim, 9, 0, n)
        for i in (0, 1, 17, n - 1):
            assert np.array_equal(_directions(dim, 9, i, 1)[0], expected[i])
        for cuts in ((0, 7, 60), (0, 1, 2, 31, 59, 60), (0, 0, 60)):
            parts = [_directions(dim, 9, a, b - a) for a, b in zip(cuts, cuts[1:])]
            assert np.array_equal(np.concatenate(parts), expected)
        drawn, starts = [], []

        def recorded(dim, seed, start, count):
            starts.append(start)
            drawn.append(_directions(dim, seed, start, count))
            return drawn[-1]

        monkeypatch.setattr(nmflow.measure, "_directions", recorded)
        identity = constant_generator(np.zeros((dim, dim)), [])
        width = 2 if dim == 2 else dim * dim  # work entries per pair and grid point
        for horizon, forced in ((0.1, None), (0.5, None), (0.1, 1), (0.1, 3), (0.1, 7)):
            flow, times = grid_flow(identity, horizon, 1e-2)
            if forced is not None:
                monkeypatch.setattr(nmflow.measure, "PAIR_BLOCK", forced * times.size * width)
            size = _block_size(times, dim)
            drawn.clear()
            starts.clear()
            search_pairs(flow, n, times, seed=9)
            counts = [max(0, min(a + size, n + 2) - max(a, 2)) for a in range(0, n + 2, size)]
            assert [len(x) for x in drawn] == counts
            assert starts == np.concatenate([[0], np.cumsum(counts)[:-1]]).tolist()
            assert np.array_equal(np.concatenate(drawn), expected)

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), "3", -1, np.int64(-1), 2**64])
    def test_seed_that_is_not_an_integer_rejected(self, bad):
        times = make_time_grid(1.0, 1e-2)
        flow = propagator_grid(jc_generator(JCParams(delta=8.0)), times)
        message = r"^seed must be an integer in \[0, 2\^64\), got "
        with pytest.raises(ValueError, match=message):
            search_pairs(flow, 6, times, seed=bad)
        with pytest.raises(ValueError, match=message):
            sweep(jc_flows(times), [0.0, 6.0], times, 2, seed=bad)
        assert search_pairs(flow, 6, times, seed=np.int64(1)).best.n_value == (
            search_pairs(flow, 6, times, seed=1).best.n_value
        )
        top = search_pairs(flow, 6, times, seed=2**64 - 1).best
        assert top.n_value == search_pairs(flow, 6, times, seed=np.uint64(2**64 - 1)).best.n_value

    @pytest.mark.parametrize("bad", [2.5, np.float64(3.0), "3", None])
    def test_n_pairs_that_is_not_an_integer_rejected(self, bad):
        times = make_time_grid(1.0, 1e-2)
        flow = semigroup_flow(1.0, times)
        message = f"^n_pairs must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            search_pairs(flow, bad, times)
        with pytest.raises(ValueError, match=message):
            sweep(lambda _: semigroup_flow(1.0, times), [0.0], times, bad)
        # A NumPy integer is the Python integer.
        flow = propagator_grid(jc_generator(JCParams(delta=8.0)), times)
        a, b = (search_pairs(flow, n, times).best for n in (np.int64(3), 3))
        assert (a.n_value, a.best_pair.label) == (b.n_value, b.best_pair.label)

    @pytest.mark.parametrize("dim", [0, 1])
    def test_one_level_system_has_no_pair(self, dim):
        message = f"^canonical pairs need two levels, got dimension {dim}$"
        with pytest.raises(ValueError, match=message):
            canonical_pairs(dim)
        if dim:
            times = make_time_grid(1.0, 1e-1)
            flow = flow_blocks(constant_generator(np.zeros((1, 1)), []), times)
            with pytest.raises(ValueError, match=message):
                search_pairs(flow, 3, times)

    def test_search_reports_canonical_and_sampled(self):
        flow, times = grid_flow(jc_generator(JCParams(delta=8.0)), 40.0, 2e-3)
        search = search_pairs(flow, 8, times, seed=0)
        assert search.samples_evaluated == 10  # 2 canonical + 8 samples
        assert search.failures == []
        assert search.best.n_value >= search.n_canonical
        assert search.best.n_value >= search.n_sampled_max
        assert search.best.n_value > 0.0

    def test_best_value_monotone_in_n_pairs(self):
        flow, times = grid_flow(jc_generator(JCParams(delta=8.0)), 40.0, 2e-3)
        small = search_pairs(flow, 4, times, seed=0).best
        large = search_pairs(flow, 12, times, seed=0).best
        assert large.n_value >= small.n_value
        assert large.samples_evaluated == 14

    def test_search_is_bitwise_deterministic(self):
        flow, times = grid_flow(jc_generator(JCParams(delta=8.0)), 40.0, 2e-3)
        a = search_pairs(flow, 6, times, seed=3).best
        b = search_pairs(flow, 6, times, seed=3).best
        assert a.n_value == b.n_value
        assert a.best_pair.label == b.best_pair.label
        assert np.array_equal(a.best_pair.rho1.matrix, b.best_pair.rho1.matrix)

    def test_all_failures_raise(self):
        from nmflow.dynamics import constant_generator
        from nmflow.states import SIGMA_MINUS

        gen = constant_generator(np.zeros((2, 2)), [(SIGMA_MINUS, -1.0)])
        with pytest.raises(NumericalError, match="all pair evaluations failed"):
            flow, times = grid_flow(gen, 5.0, 1e-2)
            search_pairs(flow, 2, times, seed=0)

    def test_failed_canonical_pair_raises(self):
        # A negative sigma_minus rate stretches the z Bloch component, so the
        # canonical z pair leaves [0, 1], while strong dephasing keeps the x
        # pair's D below 1.
        gen = constant_generator(np.zeros((2, 2)), [(SIGMA_MINUS, -1.0), (SIGMA_Z, 1.0)])
        flow, times = grid_flow(gen, 5.0, 1e-2)
        with pytest.raises(NumericalError, match="canonical pair failed: canonical-z: "):
            search_pairs(flow, 2, times, seed=0)

    # (gamma0, delta, horizon) of the README jc example and three points of
    # strong coupling or detuning, where the best pair is canonical; D is |G|^2
    # for the z pair and |G| for the x pair.
    @pytest.mark.parametrize("gamma0, delta, horizon", [
        (0.01, 8.0, 60.0), (5.0, 0.0, 20.0), (2.0, 0.0, 20.0), (5.0, 3.0, 20.0)])
    def test_value_is_the_positive_variation_of_the_best_canonical_pair(self, gamma0, delta,
                                                                         horizon):
        params = JCParams(gamma0=gamma0, delta=delta)
        times = make_time_grid(horizon, 1e-3)
        search = search_pairs(jc_flow(params, times), 100, times, seed=0)
        g = np.abs(jc_amplitude(params, times))
        closed = {label: np.maximum(np.diff(x), 0.0).sum()
                  for label, x in (("canonical-z", g * g), ("canonical-x", g))}
        label = search.best.best_pair.label
        assert search.failures == [] and label == max(closed, key=closed.get)
        assert abs(search.best.n_value - closed[label]) <= 1e-13

    def test_spinbath_search_matches_closed_form_canonical_pair(self):
        params = SpinBathParams(coupling_a=1.0, n_spins=20)
        horizon = round((3 * np.pi / 2 + 0.3) / 5e-4) * 5e-4  # on the grid
        times = make_time_grid(horizon, 5e-4)
        search = search_pairs(spinbath_flow(params, times), 20, times, seed=0)
        closed = n_from_trajectory(spinbath_trajectory(params, horizon, 5e-4), X_PAIR)
        assert search.failures == []
        assert search.best.best_pair.label == "canonical-x"
        assert abs(search.best.n_value - closed.n_value) <= 1e-12
        assert len(search.best.intervals) == 3
        assert search.best.diverging

    def test_programming_error_is_not_a_failed_pair(self, monkeypatch):
        import nmflow.measure

        def broken(*args, **kwargs):
            raise TypeError("broken trajectory")

        monkeypatch.setattr(nmflow.measure, "_distances", broken)
        flow, times = grid_flow(semigroup_generator(1.0), 5.0, 1e-2)
        with pytest.raises(TypeError, match="broken trajectory"):
            search_pairs(flow, 2, times, seed=0)

    def test_divisible_dynamics_scores_zero(self):
        # CP-divisibility on a fine grid implies no pair can ever gain
        # distinguishability; both facts are checked on the same generator.
        gen = jc_generator(JCParams(delta=5.0), nonnegative_rate=True)
        report = divisibility_report(gen, np.linspace(0.0, 10.0, 101), h=1e-3)
        assert report.divisible
        flow, times = grid_flow(gen, 10.0, 1e-3)
        result = search_pairs(flow, 12, times, seed=0).best
        assert result.n_value == 0.0


def jc_flows(times):
    """Family of jc RK4 flows on times, by detuning."""
    return lambda d: propagator_grid(jc_generator(JCParams(delta=d)), times)


class TestPairStream:
    def test_known_answers(self):
        # SplitMix64's published outputs for seeds 0 and 1234567.
        assert _splitmix64(0, 0, 3).tolist() == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert _splitmix64(1234567, 0, 5).tolist() == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821]

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_outputs_and_normals_match_the_integer_oracle(self, seed):
        # The state seed + (j + 1) 0x9E3779B97F4A7C15 passes 2^64 from j = 1
        # on for every seed here (from j = 0 for 2^64 - 1), and far out.
        for start, count in ((0, 40), (2, 6), (1000, 8), (2**40, 16)):
            assert _splitmix64(seed, start, count).tolist() == [
                splitmix64(seed, j) for j in range(start, start + count)]
            expected = np.array(splitmix_normals(seed, start, count))
            assert np.array_equal(_normals(seed, start, count).view(np.int64),
                                  expected.view(np.int64))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_direction_is_made_of_its_normals(self, dim):
        # Direction i: normals 2d^2 i .. 2d^2 (i + 1) - 1, real parts first.
        k = 2 * dim * dim
        g = np.array(splitmix_normals(7, 5 * k, k)).reshape(2, dim, dim)
        x = g[0] + 1j * g[1]
        x = x + x.conj().T
        x -= np.trace(x) / dim * np.eye(dim)
        x /= 0.5 * np.sum(np.abs(np.linalg.eigvalsh(x)))
        assert np.max(np.abs(_directions(dim, 7, 5, 1)[0] - x)) <= 1e-14


class TestSweep:
    def test_single_point_equals_direct_search(self):
        times = make_time_grid(40.0, 2e-3)
        records = sweep(jc_flows(times), [8.0], times, 4, seed=0)
        direct = search_pairs(jc_flows(times)(8.0), 4, times, seed=0)
        assert len(records) == 1
        rec = records[0]
        assert rec.error is None
        assert rec.n_value == direct.best.n_value
        assert rec.n_canonical == direct.n_canonical
        assert rec.n_sampled_max == direct.n_sampled_max

    def test_deterministic_across_runs(self):
        times = make_time_grid(30.0, 2e-3)
        a = sweep(jc_flows(times), [0.0, 6.0], times, 2, seed=1)
        b = sweep(jc_flows(times), [0.0, 6.0], times, 2, seed=1)
        assert [r.n_value for r in a] == [r.n_value for r in b]

    def test_every_point_equals_a_direct_search(self):
        times = make_time_grid(20.0, 2e-3)
        deltas = [0.0, 6.0, 8.0]
        records = sweep(jc_flows(times), deltas, times, 5, seed=1)
        for rec, delta in zip(records, deltas):
            direct = search_pairs(jc_flows(times)(delta), 5, times, seed=1)
            assert rec.n_value == direct.best.n_value
            assert rec.n_canonical == direct.n_canonical
            assert rec.n_sampled_max == direct.n_sampled_max
            assert rec.best_pair_label == direct.best.best_pair.label

    def test_resonant_point_is_markovian(self):
        times = make_time_grid(20.0, 2e-3)
        records = sweep(jc_flows(times), [0.0, 8.0], times, 2, seed=0)
        assert records[0].n_value == 0.0
        assert records[1].n_value > 0.0

    def test_bad_point_recorded_not_raised(self):
        times = make_time_grid(5.0, 1e-2)

        def family(d):
            if d > 0:
                raise ValueError("boom")
            return propagator_grid(semigroup_generator(1.0), times)

        records = sweep(family, [0.0, 1.0], times, 1, seed=0)
        assert records[0].error is None
        assert "boom" in records[1].error
        assert np.isnan(records[1].n_value)

    def test_programming_error_is_not_recorded(self):
        def family(d):
            return d.no_such_attribute

        with pytest.raises(AttributeError):
            sweep(family, [0.0], make_time_grid(5.0, 1e-2), 1, seed=0)

    def test_empty_grid_rejected(self):
        times = make_time_grid(5.0, 1e-2)
        with pytest.raises(ValueError, match="empty"):
            sweep(lambda d: propagator_grid(semigroup_generator(1.0), times), [], times, 1000)


# Fixed before the batched evaluation was written: the Pauli-basis and blocked
# products round D, which lies in [0, 1], differently from a per-pair
# matrix-vector product in the last few bits.
PAIR_VALUE_TOL = 1e-14


def negative_rate_d4_generator():
    """Random d = 4 generator whose second rate is negative on windows, so
    that pairs regain distinguishability (N > 0)."""
    rng = np.random.default_rng(23)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ops = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2)]
    ops = [op / np.linalg.norm(op) for op in ops]
    rate = lambda t: 0.1 + 0.5 * np.cos(3.0 * np.asarray(t))
    return GeneratorSpec(4, 0.5 * (a + a.conj().T), [(ops[0], 0.3), (ops[1], rate)])


def bloch_map_flow(times, transverse, longitudinal, y=None):
    """Flow whose Pauli-basis map is diag(1, f, f, g)(t): the x and y Bloch
    components scale by f, the z component by g; or with y, diag(1, f, y, g)."""
    paulis = [np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z]
    basis = np.stack([p.reshape(-1, order="F") for p in paulis], axis=1)
    m = np.zeros((times.size, 4, 4))
    m[:, 0, 0] = 1.0
    m[:, 1, 1] = m[:, 2, 2] = transverse(times)
    if y is not None:
        m[:, 2, 2] = y(times)
    m[:, 3, 3] = longitudinal(times)
    # The Pauli matrices are orthogonal with norm^2 2, so B^dag Phi B / 2 = m.
    return 0.5 * basis @ m @ basis.conj().T


def pair_values(flow, diffs, times):
    """The blocks of _pair_values over the stacked differences diffs joined:
    (values, errors, intervals), the intervals' rows indexing pairs."""
    values, errors, found = [], [], []
    blocks = _pair_values(*pair_operator(flow, times), len(diffs), lambda a, b: diffs[a:b], times)
    for start, _, vals, errs, (rows, a, b, c) in blocks:
        values.append(vals)
        errors += errs
        found.append((rows + start, a, b, c))
    return np.concatenate(values), errors, tuple(np.concatenate(x) for x in zip(*found))


def every_column(op, d, t):
    """_evaluated_columns of the full evaluation: every grid column."""
    return np.arange(t)


def pair_operator(flow, times):
    """(op, d) of the flow on times, in _pair_values' argument order."""
    d, op = _pair_operator(flow, times.size)
    return op, d


def evaluated_times(flow, times):
    """The grid times at which a search of the flow evaluates D."""
    return times[_evaluated_columns(*pair_operator(flow, times), times.size)]


def diffs_of(pairs):
    """The pairs' differences rho1 - rho2, stacked."""
    return np.stack([p.rho1.matrix - p.rho2.matrix for p in pairs])


def random_pairs(dim, seed, count):
    """Seeded pairs of every kind in turn: pure/pure, mixed/pure, pure/mixed,
    mixed/mixed."""
    draw = (random_pure_state, random_mixed_state)
    return [StatePair(draw[i % 2](dim, seed, 2 * i), draw[i // 2 % 2](dim, seed, 2 * i + 1))
            for i in range(count)]


BATCH_CASES = {
    "jc-delta-8": (lambda: jc_generator(JCParams(delta=8.0)), 2, 5.0, 1e-3),
    "random-d4": (negative_rate_d4_generator, 4, 2.0, 1e-3),
}


class TestBatchedPairs:
    """The block evaluation of search_pairs against the one-pair-at-a-time
    oracle: complex matrix-vector product, closed form or eigenvalues,
    np.gradient and growth intervals per pair (values to PAIR_VALUE_TOL)."""

    @pytest.mark.parametrize("name", sorted(BATCH_CASES))
    def test_values_match_per_pair_oracle(self, monkeypatch, name):
        import nmflow.measure

        make_gen, dim, horizon, step = BATCH_CASES[name]
        flow, times = grid_flow(make_gen(), horizon, step)
        # Qubit blocks hold two (pairs x evaluated columns) work buffers, d > 2
        # blocks the (pairs x T x d^2) evolved differences. A qubit search
        # evaluates few columns, so PAIR_BLOCK is cut to at most 9 pairs a
        # block, which keeps the per-pair oracle cheap.
        evaluated, width = evaluated_times(flow, times), 2 if dim == 2 else dim * dim
        cut = min(PAIR_BLOCK, 9 * evaluated.size * width)
        monkeypatch.setattr(nmflow.measure, "PAIR_BLOCK", cut)
        size = _block_size(evaluated, dim)
        assert size == cut // (evaluated.size * width) > 2
        assert (evaluated.size < times.size) == (dim == 2)
        pairs = canonical_pairs(dim) + random_pairs(dim, 5, 3 * size - 1)
        # The search really cuts the pairs into blocks of that size.
        seen, diffs = [], diffs_of(pairs + pairs[:2])
        list(_pair_values(*pair_operator(flow, times), 3 * size + 1,
                          lambda a, b: seen.append(b - a) or diffs[a:b], times))
        assert seen == [size, size, size, 1]
        expected = [pair_value(flow, pair, times) for pair in pairs]
        assert sum(n > 0.0 for n, _ in expected) > len(pairs) // 2
        # One pair, one below a block, one block, one above, several blocks.
        for count in (1, size - 1, size, size + 1, 3 * size + 1):
            values, errors, (rows, a, b, c) = pair_values(flow, diffs_of(pairs[:count]), times)
            assert errors == [None] * count
            assert np.max(np.abs(values - [n for n, _ in expected[:count]])) <= PAIR_VALUE_TOL
            assert np.array_equal(rows, np.sort(rows))
        for i, (n, intervals) in enumerate(expected):
            got = np.column_stack([a, b, c])[rows == i]
            assert got.shape == (len(intervals), 3)
            if intervals:
                assert np.max(np.abs(got[:, 2] - [x for _, _, x in intervals])) <= PAIR_VALUE_TOL
                assert np.array_equal(got[:, :2], [(x, y) for x, y, _ in intervals])

    def test_failing_pair_is_recorded_while_its_block_mates_score(self):
        times = make_time_grid(3.0, 2e-3)
        flow = bloch_map_flow(
            times,
            lambda t: np.exp(-0.25 * t) * np.cos(2.0 * t),
            lambda t: 1.0 + 0.5 * np.sin(t),
        )
        swapped = StatePair(X_PAIR.rho2, X_PAIR.rho1, label="swapped-x")
        pairs = [X_PAIR, Z_PAIR, swapped] + random_pairs(2, 1, 8)
        assert len(pairs) < _block_size(times, 2)
        values, errors, _ = pair_values(flow, diffs_of(pairs), times)
        expected = [pair_value(flow, pair, times) for pair in pairs]
        reasons = [
            f"{why} (step too coarse, or the generator is not positivity preserving)"
            if n is None else None
            for n, why in expected
        ]
        assert errors == reasons
        failures = [f"{p.label}: {e}" for p, e in zip(pairs, errors) if e]
        assert failures[0] == (
            "canonical-z: trace distance 1.001 exceeds 1 or is not finite at t=0.002 "
            "(step too coarse, or the generator is not positivity preserving)"
        )
        scored = [n is not None for n, _ in expected]
        assert scored[:3] == [True, False, True] and 0 < sum(scored) < len(pairs)
        assert np.array_equal(np.isnan(values), np.logical_not(scored))
        ok = np.array(scored)
        got = values[ok]
        assert np.max(np.abs(got - [n for n, _ in np.array(expected, dtype=object)[ok]])) <= (
            PAIR_VALUE_TOL
        )
        assert values[0] > 0.5 and values[0] == values[2]
        with pytest.raises(NumericalError, match="^canonical pair failed: " + failures[0][:40]):
            search_pairs(flow, 8, times, seed=1)

    def test_zigzag_scores_its_two_rising_steps(self):
        # D of the x pair zigzags: each one-step rise is an interval of its own.
        times = make_time_grid(0.02, 1e-3)
        zigzag = np.array([1.0] * 8 + [0.2, 0.99, 0.2, 1.0, 0.0] + [0.0] * 8)
        flow = bloch_map_flow(times, lambda t: zigzag, np.ones_like)
        values, errors, (rows, a, b, c) = pair_values(flow, diffs_of([Z_PAIR, X_PAIR]), times)
        assert errors == [None, None] and rows.tolist() == [1, 1]
        assert np.column_stack([a, b]).tolist() == [[times[8], times[9]], [times[10], times[11]]]
        assert np.max(np.abs(c - [0.79, 0.8])) <= PAIR_VALUE_TOL
        assert values[0] == 0.0 and values[1] == c[0] + c[1]
        assert n_for_pair(flow, X_PAIR, times).n_value == values[1]

    def test_exact_tie_goes_to_the_first_evaluated_pair(self, monkeypatch):
        import nmflow.measure

        def copies_of_z(dim, seed, start, count):
            """Every sample direction drawn as the canonical z pair's difference."""
            return np.tile(diffs_of([Z_PAIR]), (count, 1, 1))

        monkeypatch.setattr(nmflow.measure, "_directions", copies_of_z)
        flow, times = grid_flow(jc_generator(JCParams(delta=8.0)), 10.0, 1e-3)
        n_pairs = 2 * _block_size(evaluated_times(flow, times), 2) + 1
        values, _, _ = pair_values(flow, copies_of_z(2, 0, 0, n_pairs + 1), times)
        # The same pair scores the same to the bit at every place in a block.
        assert np.all(values == values[0])
        search = search_pairs(flow, n_pairs, times)
        assert search.best.n_value == search.n_canonical == search.n_sampled_max > 0.0
        assert search.best.best_pair.label == "canonical-z"

    def test_sample_wins_where_the_canonical_pairs_score_zero(self):
        # Only the y Bloch component moves: both canonical pairs keep D = 1.
        times = make_time_grid(3.0, 2e-3)
        flow = bloch_map_flow(times, np.ones_like, np.ones_like,
                              y=lambda t: np.exp(-0.25 * t) * np.cos(2.0 * t))
        search = search_pairs(flow, 20, times, seed=0)
        assert search.failures == []
        assert search.n_canonical == 0.0 and search.best.n_value == search.n_sampled_max > 0.0
        pair = search.best.best_pair
        assert pair.label.startswith("sample-")
        rho1, rho2 = (DensityMatrix(rho.matrix) for rho in (pair.rho1, pair.rho2))
        assert abs(np.trace(rho1.matrix @ rho2.matrix)) <= 1e-12
        assert abs(trace_distance(rho1, rho2) - 1.0) <= 1e-14
        assert abs(n_for_pair(flow, pair, times).n_value - search.best.n_value) <= 1e-14

    def test_best_value_is_the_plain_sum_of_its_intervals(self):
        flow, times = grid_flow(jc_generator(JCParams(delta=8.0)), 40.0, 2e-3)
        best = search_pairs(flow, 20, times, seed=0).best
        assert len(best.intervals) > 1
        assert best.n_value == sum(iv.contribution for iv in best.intervals)


def bloch_block_oracle(flow):
    """(largest eigenvalue of Q_{k+1} - Q_k, max(tr Q_k, tr Q_{k+1})) of each
    step of a qubit flow, Q = M^T M of its Bloch block M, by complex
    products and one stacked np.linalg.eigvalsh."""
    m = pauli_map(flow)[1:].transpose(2, 0, 1)
    q = m.swapaxes(1, 2) @ m
    tr = np.trace(q, axis1=1, axis2=2)
    return np.linalg.eigvalsh(q[1:] - q[:-1])[:, -1], np.maximum(tr[1:], tr[:-1])


def blocks_of(flow):
    """The blocks of an exact flow's stream, as one array."""
    return np.concatenate([block for _, block in flow])


# (flow on times, |c| on times) of exact flows.
EXACT_COHERENCES = {
    **{f"jc-delta-{delta:g}": (lambda times, p=JCParams(delta=delta): jc_flow(p, times),
                               lambda times, p=JCParams(delta=delta): jc_amplitude(p, times))
       for delta in (0.0, 5.0, 8.0, 10.0)},
    **{f"spinbath-{n}": (lambda times, p=SpinBathParams(1.0, n): spinbath_flow(p, times),
                         lambda times, p=SpinBathParams(1.0, n): spinbath_f(p, times))
       for n in (1, 3, 20)},
}

WINDOW_CASES = {
    "jc-delta-8": lambda times: propagator_grid(jc_generator(JCParams(delta=8.0)), times),
    "dephasing": lambda times: propagator_grid(GeneratorSpec(2, np.zeros((2, 2)), [
        (SIGMA_MINUS, 0.3), (SIGMA_Z, lambda t: 0.05 + 0.2 * np.cos(3.0 * np.asarray(t)))]), times),
    "bloch-y": lambda times: bloch_map_flow(times, lambda t: np.exp(-0.05 * t),
                                            lambda t: np.exp(-0.1 * t),
                                            y=lambda t: np.exp(-0.25 * t) * np.cos(2.0 * t)),
}


class TestWindowedSearch:
    """The steps where some qubit pair can gain, and a search evaluated on
    their windows against the full evaluation."""

    @pytest.mark.parametrize("name", sorted(WINDOW_CASES))
    def test_no_expanding_step_is_skipped(self, name):
        times = make_time_grid(6.0, 1e-3)
        flow = WINDOW_CASES[name](times)
        flags = _growth_steps(pair_operator(flow, times)[0])
        top, scale = bloch_block_oracle(flow)
        assert 0 < flags.sum() < flags.size
        assert not np.any((top > 0.0) & ~flags)
        # A skipped step keeps half its margin of 1e-13 of the scale; the
        # other half covers the rounding of the oracle's products and eigensolve.
        assert np.all(top[~flags] <= -0.5e-13 * scale[~flags])

    def test_a_direction_that_never_contracts_flags_every_step(self):
        # The spin bath leaves the z Bloch component alone: dQ_k has a zero
        # eigenvalue at every step, so the Gershgorin test of its blocks, as
        # an array, skips no step (its exact flow is read by _rising_steps).
        times = make_time_grid(6.0, 1e-3)
        flow = blocks_of(spinbath_flow(SpinBathParams(coupling_a=1.0, n_spins=20), times))
        assert _growth_steps(pair_operator(flow, times)[0]).all()

    @pytest.mark.parametrize("name", sorted(EXACT_COHERENCES))
    def test_exact_flags_are_the_steps_where_the_coherence_grows(self, name):
        # |c| of the spin bath and of jc, where p = c^2 rises only where |c|
        # does and p = 1 never does.
        flow, coherence = EXACT_COHERENCES[name]
        times = make_time_grid(10.0, 1e-3)
        op, d = pair_operator(flow(times), times)
        flags = np.diff(np.abs(coherence(times))) > 0.0
        assert np.array_equal(_rising_steps(op), flags)
        keep = np.r_[True, flags] | np.r_[flags, False]  # column 0 and both ends of a step
        assert np.array_equal(_evaluated_columns(op, d, times.size), np.flatnonzero(keep))

    def test_the_semigroup_flags_no_step(self):
        times = make_time_grid(20.0, 1e-3)
        assert evaluated_times(semigroup_flow(1.0, times), times).tolist() == [0.0]
        search = search_pairs(semigroup_flow(1.0, times), 100, times, seed=1)
        assert search.best.n_value == search.n_canonical == search.n_sampled_max == 0.0

    @pytest.mark.parametrize("entry, cols, value, flagged", [
        ((1, 0), [40], np.nan, [39, 40]), ((1, 0), [40, 41], np.inf, [39, 40, 41]),
        ((3, 2), [40], -np.inf, [39, 40]), ((3, 2), [40], 1.0, [39]), ((1, 0), [40], -1.0, [39]),
    ])
    def test_exact_flags_read_both_factors(self, entry, cols, value, flagged):
        # The semigroup's |c| and |p| never rise, until one is spoiled.
        times = make_time_grid(1.0, 1e-2)
        op = pair_operator(semigroup_flow(1.0, times), times)[0]
        assert not _rising_steps(op).any()
        op[entry + (cols,)] = value
        assert np.flatnonzero(_rising_steps(op)).tolist() == flagged

    def test_a_nan_coherence_flags_both_steps_and_fails_as_the_blocks_do(self):
        times = make_time_grid(1.0, 1e-2)

        def coherence(t):
            return np.where(t == times[40], np.nan, np.exp(-t))

        flow = PhaseCovariantFlow(times, coherence, damped=True)
        assert np.flatnonzero(_rising_steps(pair_operator(flow, times)[0])).tolist() == [39, 40]
        failures = []
        for source in (flow, blocks_of(flow)):
            with pytest.raises(NumericalError) as error:
                search_pairs(source, 10, times)
            failures.append(str(error.value))
        assert failures[0] == failures[1]
        assert "canonical-z: trace distance nan exceeds 1 or is not finite at t=0.4" in failures[0]

    @pytest.mark.parametrize("horizon", [0.5, 3.0])
    def test_an_exact_flow_on_another_grid_is_refused_as_its_blocks_are(self, horizon):
        times = make_time_grid(1.0, 1e-2)
        flow = jc_flow(JCParams(delta=8.0), make_time_grid(horizon, 1e-2))
        messages = []
        for source in (flow, iter(flow)):
            with pytest.raises(ValueError, match=r"^flow shape \(") as error:
                search_pairs(source, 10, times)
            messages.append(str(error.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("delta", [0.0, 5.0, 8.0, 10.0])
    def test_jc_flags_are_the_steps_where_the_amplitude_grows(self, delta):
        params = JCParams(delta=delta)
        times = make_time_grid(10.0, 1e-3)
        flags = _growth_steps(pair_operator(propagator_grid(jc_generator(params), times), times)[0])
        assert np.array_equal(flags, np.diff(np.abs(jc_amplitude(params, times))) > 0.0)

    @pytest.mark.parametrize("entry, value", [
        ((1, 0), np.nan), ((2, 1), np.inf), ((3, 2), -np.inf), ((1, 1), 1e200),
        ((0, 1), 2e-12), ((0, 2), np.nan),
    ])
    def test_non_finite_entries_and_the_trace_row_flag_both_steps(self, entry, value):
        # A contracting flow: no step flagged, until one grid point is spoiled.
        times = make_time_grid(1.0, 1e-2)
        op = pair_operator(propagator_grid(semigroup_generator(1.0), times), times)[0]
        assert not _growth_steps(op).any()
        kept, op[entry + (40,)] = op[entry + (40,)], value
        assert np.flatnonzero(_growth_steps(op)).tolist() == [39, 40]
        # A trace row entry of TRACE_ROW_TOL is still within it.
        op[entry + (40,)] = 1e-12 if entry[0] == 0 else kept
        assert not _growth_steps(op).any()

    def test_zero_detuning_evaluates_only_column_0(self):
        # |G| falls monotonically on resonance at weak coupling: no step can
        # raise D, and only the first column is evaluated.
        flow, times = grid_flow(jc_generator(JCParams(delta=0.0)), 10.0, 1e-3)
        cols = _evaluated_columns(*pair_operator(flow, times), times.size)
        assert cols.tolist() == [0]
        search = search_pairs(flow, 500, times, seed=1)
        assert search.best.n_value == search.n_canonical == search.n_sampled_max == 0.0
        assert search.best.intervals == [] and search.failures == []

    # The benchmark's jc-measure point and the README's jc measure example.
    @pytest.mark.parametrize("horizon, n_pairs", [(10.0, 500), (60.0, 200)])
    def test_search_matches_the_full_evaluation_at_the_jc_points(self, monkeypatch, horizon,
                                                                  n_pairs):
        import nmflow.measure

        flow, times = grid_flow(jc_generator(JCParams(delta=8.0)), horizon, 1e-3)
        diffs = np.concatenate([diffs_of(canonical_pairs(2)), _directions(2, 1, 0, n_pairs)])
        values, errors, (rows, a, b, c) = pair_values(flow, diffs, times)
        windowed = search_pairs(flow, n_pairs, times, seed=1)
        monkeypatch.setattr(nmflow.measure, "_evaluated_columns", every_column)
        full, full_errors, (full_rows, full_a, full_b, full_c) = pair_values(flow, diffs, times)
        assert errors == full_errors == [None] * len(diffs)
        assert np.max(np.abs(values - full)) <= 1e-12
        assert np.array_equal(rows, full_rows)
        assert np.array_equal(np.column_stack([a, b]), np.column_stack([full_a, full_b]))
        assert np.max(np.abs(c - full_c)) <= 1e-12
        search = search_pairs(flow, n_pairs, times, seed=1)
        assert windowed.best.best_pair.label == search.best.best_pair.label == "canonical-z"
        assert abs(windowed.best.n_value - search.best.n_value) <= 1e-12
        assert abs(windowed.n_sampled_max - search.n_sampled_max) <= 1e-12


# Exact flows on times, with their horizons: the jc-measure point at four
# detunings, strong coupling on resonance, where G crosses zero, the
# semigroup and the spin bath of 1, 3 and 20 spins over three revivals.
ORACLE_POINTS = {
    **{f"jc-delta-{delta:g}": (lambda times, p=JCParams(delta=delta): jc_flow(p, times), 10.0)
       for delta in (0.0, 5.0, 8.0, 10.0)},
    "jc-gamma0-5": (lambda times: jc_flow(JCParams(gamma0=5.0, delta=0.0), times), 10.0),
    "semigroup": (lambda times: semigroup_flow(1.0, times), 10.0),
    **{f"spinbath-{n}": (lambda times, p=SpinBathParams(1.0, n): spinbath_flow(p, times), 5.0)
       for n in (1, 3, 20)},
}


class TestExactRoute:
    """A search on an exact flow's (c, p) against the general route on the
    same flow's blocks and against the evaluation of every column. The
    tolerance of 1e-12 was fixed before the route was written."""

    @pytest.mark.parametrize("name", sorted(ORACLE_POINTS))
    def test_search_matches_the_general_route_and_the_full_evaluation(self, monkeypatch, name):
        import nmflow.measure

        flow, horizon = ORACLE_POINTS[name]
        times = make_time_grid(horizon, 1e-3)
        exact = search_pairs(flow(times), 100, times, seed=1)
        general = search_pairs(blocks_of(flow(times)), 100, times, seed=1)
        monkeypatch.setattr(nmflow.measure, "_evaluated_columns", every_column)
        full = search_pairs(flow(times), 100, times, seed=1)
        assert exact.failures == general.failures == full.failures == []
        for other in (general, full):
            assert other.best.best_pair.label == exact.best.best_pair.label
            assert abs(other.best.n_value - exact.best.n_value) <= 1e-12
            assert abs(other.n_canonical - exact.n_canonical) <= 1e-12
            assert abs(other.n_sampled_max - exact.n_sampled_max) <= 1e-12


class TestSearchMemory:
    def test_qubit_search_peak_does_not_grow_with_the_pair_count(self):
        import tracemalloc

        # Fixed before the draws were cut into chunks sized by PAIR_BLOCK:
        # four times the pairs may raise the peak by at most 10%. What a
        # search keeps of every pair (its value) is 8 B, 120 kB here.
        flow, times = grid_flow(jc_generator(JCParams(delta=8.0)), 1.0, 1e-2)
        assert times.size == 101
        search_pairs(flow, 1, times)  # first-call imports stay out
        peaks = []
        for n_pairs in (5_000, 20_000):
            tracemalloc.start()
            try:
                search = search_pairs(flow, n_pairs, times, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert search.failures == []
        assert peaks[1] <= 1.10 * peaks[0]

    def test_qubit_search_peak_at_40001_points(self):
        import tracemalloc

        # Fixed before the work buffers were written, from the search as it was
        # (same flow, 20 pairs): peak 6.10 MB, of which the Pauli map (96 B per
        # grid point) is 3.84 MB. The bound keeps the map and half of the rest.
        bound = 5.0e6
        flow, times = grid_flow(jc_generator(JCParams(delta=8.0)), 40.0, 1e-3)
        search_pairs(flow[:11], 1, times[:11])  # first-call imports stay out
        tracemalloc.start()
        try:
            search = search_pairs(flow, 20, times, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert search.failures == []
        assert peak <= bound


def rk4_stream(make_gen):
    """The RK4 flow stream on a grid of the generator that make_gen builds."""
    return lambda times: flow_blocks(make_gen(), times)


# (flow stream on a grid, steps, step): the RK4 stream of the jc benchmark
# grid on resonance, where no step is evaluated but the edges, and detuned; a
# grid of several flow blocks and a partial one; a d = 3 generator, whose
# blocks are assembled into one array; and the spin bath's exact flow, whose
# (c, p) the search reads in place of its blocks, to the same bits.
STREAM_CASES = {
    "jc-delta-0": (rk4_stream(lambda: jc_generator(JCParams(delta=0.0))), 10_000, 1e-3),
    "jc-delta-8": (rk4_stream(lambda: jc_generator(JCParams(delta=8.0))), 10_000, 1e-3),
    "jc-delta-8-blocks": (rk4_stream(lambda: jc_generator(JCParams(delta=8.0))),
                          3 * STEP_BLOCK + 17, 1e-2),
    "callable-d3": (rk4_stream(callable_d3_generator), 3 * STEP_BLOCK + 17, 1e-2),
    "spinbath": (lambda times: spinbath_flow(SpinBathParams(coupling_a=1.0, n_spins=20), times),
                 3 * STEP_BLOCK + 17, 1e-2),
}


def search_record(search):
    """Everything a search reports, for exact comparison."""
    best = search.best
    return (best.n_value, search.n_canonical, search.n_sampled_max, search.samples_evaluated,
            search.failures, [(iv.a, iv.b, iv.contribution) for iv in best.intervals],
            best.best_pair.label, best.best_pair.rho1.matrix.tobytes(),
            best.best_pair.rho2.matrix.tobytes(), best.diverging, best.horizon)


def tiled(flow, *cuts):
    """The flow as a stream of (k0, block), cut before each grid point in cuts."""
    edges = [0, *cuts, len(flow)]
    return [(a, flow[a:b]) for a, b in zip(edges[:-1], edges[1:])]


class TestFlowStream:
    """A flow given as a block stream (dynamics.flow_blocks or an exact model
    flow) is read as the array of the same blocks would be: one path, the
    same bits."""

    @pytest.mark.parametrize("name", sorted(STREAM_CASES))
    def test_stream_results_equal_the_array_bit_for_bit(self, name):
        stream, steps, step = STREAM_CASES[name]
        times = make_time_grid(steps * step, step)
        assert times.size == steps + 1
        flow = np.concatenate([block for _, block in stream(times)])
        dim = round(np.sqrt(flow.shape[-1]))
        on_array = search_pairs(flow, 40, times, seed=2)
        on_stream = search_pairs(stream(times), 40, times, seed=2)
        assert search_record(on_stream) == search_record(on_array)
        for pair in random_pairs(dim, 9, 2) + canonical_pairs(dim):
            expected = trajectory(flow, pair, times)
            got = trajectory(stream(times), pair, times)
            assert np.array_equal(got.d_values, expected.d_values)
            assert np.array_equal(got.sigma_values, expected.sigma_values)
            assert n_for_pair(stream(times), pair, times) == n_for_pair(flow, pair, times)
        # A sweep whose second point the step bound refuses; repr, as its
        # values are NaN.
        blow_up = blow_up_generator(-1e5)
        records = [repr(sweep(make, [0.0, 1.0], times, 10, seed=3)) for make in (
            lambda p: propagator_grid(blow_up, times) if p else flow,
            lambda p: flow_blocks(blow_up, times) if p else stream(times))]
        assert records[0] == records[1]
        assert "error=None" in records[0] and "cannot resolve the generator" in records[0]

    def test_search_reads_a_stream_once_and_in_order(self):
        # A qubit generator with every Pauli map entry in play, cut into
        # blocks of 1 to 1018 grid points across the 1024-point product slices.
        gen = constant_generator(0.7 * SIGMA_X + 0.3 * SIGMA_Z + 0.2 * SIGMA_Y, [
            (SIGMA_MINUS, 0.4), (SIGMA_Z, 0.2), (SIGMA_X + 0.5j * SIGMA_Y, 0.1)])
        flow, times = grid_flow(gen, 3.0, 1e-3)
        cuts = (1, 2, 4, 7, 700, 1024, 1030, 2048, 2049)
        read = []

        def stream():
            for k0, block in tiled(flow, *cuts):
                read.append(k0)
                yield k0, block

        got = search_pairs(stream(), 30, times, seed=4)
        assert read == [0, *cuts]
        assert search_record(got) == search_record(search_pairs(flow, 30, times, seed=4))
        op = _pair_operator(tiled(flow, *cuts), times.size)[1]
        assert np.array_equal(op, _pair_operator(flow, times.size)[1])

    @pytest.mark.parametrize("blocks, message", [
        (lambda f: tiled(f, 50)[::-1], "block at grid point 50 does not follow grid point 0"),
        (lambda f: [(0, f[:50]), (51, f[51:])], "block at grid point 51 does not follow grid point 50"),
        (lambda f: [(0, f[:50]), (49, f[49:])], "block at grid point 49 does not follow grid point 50"),
        (lambda f: tiled(f[:-1], 50), r"flow shape \(100, d\^2, d\^2\) is not"),
        (lambda f: tiled(f, 50) + [(101, f[:1])], r"flow shape \(102, 4, 4\) is not"),
        (lambda f: [(0, f[:50]), (50, f[50:, :3, :3])], r"flow shape \(101, 3, 3\) is not"),
        (lambda f: [(0, f[:50]), (50, f[50:].reshape(51, 16))], r"flow shape \(101, 16\) is not"),
        (lambda f: [(0, f[:50]), (50, np.zeros((51, 9, 9)))], r"flow shape \(101, 9, 9\) is not"),
        (lambda f: [], r"flow shape \(0, d\^2, d\^2\) is not"),
    ])
    def test_stream_that_does_not_tile_the_grid_rejected(self, blocks, message):
        flow, times = grid_flow(semigroup_generator(1.0), 1.0, 1e-2)
        assert times.size == 101
        with pytest.raises(ValueError, match=message):
            search_pairs(blocks(flow), 2, times)
        with pytest.raises(ValueError, match=message):
            trajectory(blocks(flow), Z_PAIR, times)

    @pytest.mark.parametrize("rate, message", [
        (-50.0, "propagator has non-finite entries at t=14.21"),
        (-1e5, "step 0.01 cannot resolve the generator at t=0: h*||K|| = 1e+03 > 1"),
    ])
    def test_blow_up_raises_before_any_pair_is_evaluated(self, monkeypatch, rate, message):
        import nmflow.measure

        times = make_time_grid(20.0, 1e-2)
        evaluated = []
        distances = nmflow.measure._distances
        monkeypatch.setattr(nmflow.measure, "_distances",
                            lambda *args: evaluated.append(1) or distances(*args))
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            search_pairs(flow_blocks(blow_up_generator(rate), times), 5, times)
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            trajectory(flow_blocks(blow_up_generator(rate), times), X_PAIR, times)
        assert evaluated == []
        (record,) = sweep(lambda _: flow_blocks(blow_up_generator(rate), times), [0.0], times, 5)
        assert record.error == message

    @pytest.mark.parametrize("args, message", [
        ((0, 0), "n_pairs must be >= 1"),
        ((5, -1), "seed must be an integer"),
        ((5, 1e-6), "seed must be an integer"),
        ((5, None), "seed must be an integer"),
    ])
    def test_arguments_are_checked_before_the_flow_is_read(self, args, message):
        # A float or None where the growth threshold once was is a bad seed.
        times = make_time_grid(1.0, 1e-2)
        n_pairs, seed = args
        with pytest.raises(ValueError, match=message):
            search_pairs(flow_blocks(blow_up_generator(-1e5), times), n_pairs, times, seed)
        with pytest.raises(ValueError, match="grid intervals; sigma needs >= 10"):
            search_pairs(flow_blocks(blow_up_generator(), times), 5, times[:5])
        # sweep checks them once, before it builds the flow of any point.
        built = []
        family = lambda p: built.append(p) or flow_blocks(blow_up_generator(-1e5), times)
        with pytest.raises(ValueError, match=message):
            sweep(family, [0.0, 1.0], times, n_pairs, seed)
        with pytest.raises(ValueError, match="grid intervals; sigma needs >= 10"):
            sweep(family, [0.0, 1.0], times[:5], 5)
        assert built == []

    def test_qubit_search_on_the_stream_holds_less_than_half_the_array(self):
        import tracemalloc

        # Fixed before the stream was read: at T = 40,001 the complex flow is
        # 10.2 MB and the Pauli map, which a search on the stream holds
        # instead, 3.84 MB; both peaks include building the flow.
        gen = jc_generator(JCParams(delta=8.0))
        times = make_time_grid(40.0, 1e-3)
        search_pairs(flow_blocks(gen, times[:11]), 1, times[:11])  # first-call imports stay out
        peaks, records = [], []
        for make in (propagator_grid, flow_blocks):
            tracemalloc.start()
            try:
                records.append(search_record(search_pairs(make(gen, times), 20, times, seed=0)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert records[0] == records[1]
        assert peaks[1] < 0.5 * peaks[0]


def test_grid_must_end_at_the_horizon():
    with pytest.raises(ValueError, match="^horizon 4 is not a whole number of steps 0.3$"):
        make_time_grid(4, 0.3)
    assert make_time_grid(2.5, 1e-3)[-1] == 2.5
    assert make_time_grid(20 * np.pi / 40, np.pi / 40).size == 21
    # Not an OverflowError from round(inf / step).
    for horizon, step in ((np.inf, 1e-3), (np.nan, 1e-3), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ValueError, match="^horizon and step must be positive and finite$"):
            make_time_grid(horizon, step)
    # Finite inputs whose step count horizon / step is not.
    with pytest.raises(ValueError, match=r"^horizon 1e\+300 over step 1e-300 is not a finite step count$"):
        make_time_grid(1e300, 1e-300)
    # More than MAX_GRID_STEPS steps, refused before the grid is allocated.
    assert MAX_GRID_STEPS == 10**7
    for horizon, count in ((1e300, "1e+303"), (10_000.001, "10000001")):
        message = f"horizon {horizon:.10g} over step 0.001 is {count} grid steps, more than 10000000"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_time_grid(horizon, 1e-3)
