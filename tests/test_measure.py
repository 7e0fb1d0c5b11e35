import numpy as np
import pytest

from oracles import pair_value, pauli_map, qubit_distance_grid

from nmflow.dynamics import (
    GeneratorSpec,
    constant_generator,
    divisibility_report,
    propagator_grid,
)
from nmflow.exceptions import InvariantViolation, NumericalError
from nmflow.measure import (
    PAIR_BLOCK,
    GrowthInterval,
    _block_size,
    _direction_pair,
    _directions,
    _pair_operator,
    _pair_values,
    canonical_pairs,
    default_threshold,
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
    SpinBathParams,
    jc_generator,
    jc_rate,
    semigroup_generator,
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
    qubit_from_bloch,
    random_mixed_state,
    random_pure_state,
    state_rng,
    trace_distance,
)

Z_PAIR, X_PAIR = canonical_pairs(2)


def blow_up_generator():
    """sigma_minus channel at rate -1e5: the RK4 flow overflows at step 1e-2."""
    return constant_generator(np.zeros((2, 2)), [(SIGMA_MINUS, -1e5)])


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
        flow = spinbath_flow(params, times)
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
        op = _pair_operator(flow, 2)
        assert op.shape == (4, 3, steps + 1) and op.flags.c_contiguous
        assert np.array_equal(op, pauli_map(flow))

    def test_non_finite_flow_is_invariant_violation(self):
        with pytest.raises(InvariantViolation, match="non-finite"):
            grid_flow(blow_up_generator(), 1.0, 1e-2)
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
        period = np.pi / 2.0
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

    def test_threshold_must_be_nonnegative(self):
        traj = spinbath_trajectory(SpinBathParams(), 2.0, 1e-3)
        with pytest.raises(ValueError, match="nonnegative"):
            growth_intervals(traj, threshold=-1.0)

    def test_default_threshold_scaling(self):
        traj = spinbath_trajectory(SpinBathParams(), 2.0, 1e-3)
        peak = float(np.max(np.abs(traj.sigma_values)))
        assert default_threshold(traj) == pytest.approx(1e-9 * peak)
        flat = trajectory_from_values(np.linspace(0, 1, 101), np.full(101, 0.5))
        assert default_threshold(flat) == 1e-12

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
            horizon = m * np.pi / 2.0 + 0.3
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
        # Sample i is the i-th direction of the stream state_rng(seed).
        for dim in (2, 4):
            drawn = _directions(dim, state_rng(42), 8)
            assert np.array_equal(drawn, _directions(dim, state_rng(42), 8))
            assert not np.array_equal(drawn, _directions(dim, state_rng(43), 8))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_directions_are_differences_of_orthogonal_pairs(self, dim):
        for i, x in enumerate(_directions(dim, state_rng(9), 50)):
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
        # Direction i is the same whatever the grid or the block size, and the
        # directions are drawn block by block after the two canonical pairs.
        import nmflow.measure

        n = 60
        expected = _directions(dim, state_rng(9), n)
        drawn = []

        def recorded(dim, rng, count):
            drawn.append(_directions(dim, rng, count))
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
            search_pairs(flow, n, times, seed=9)
            counts = [max(0, min(a + size, n + 2) - max(a, 2)) for a in range(0, n + 2, size)]
            assert [len(x) for x in drawn] == counts
            assert np.array_equal(np.concatenate(drawn), expected)

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), "3"])
    def test_seed_that_is_not_an_integer_rejected(self, bad):
        times = make_time_grid(1.0, 1e-2)
        flow = propagator_grid(jc_generator(JCParams(delta=8.0)), times)
        with pytest.raises(ValueError, match="must be integers"):
            search_pairs(flow, 6, times, seed=bad)
        with pytest.raises(ValueError, match="must be integers"):
            sweep(jc_flows(times), [0.0, 6.0], times, 2, seed=bad)
        assert search_pairs(flow, 6, times, seed=np.int64(1)).best.n_value == (
            search_pairs(flow, 6, times, seed=1).best.n_value
        )

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
        # Strong coupling on resonance: RK4 crosses a zero of G(t), where the
        # rate diverges, and the canonical z pair leaves [0, 1].
        gen = jc_generator(JCParams(gamma0=2.0, delta=0.0))
        flow, times = grid_flow(gen, 10.0, 1e-2)
        with pytest.raises(NumericalError, match="canonical pair failed: canonical-z: "):
            search_pairs(flow, 2, times, seed=0)

    def test_negative_threshold_rejected_before_any_pair(self):
        flow, times = grid_flow(semigroup_generator(1.0), 5.0, 1e-2)
        with pytest.raises(ValueError, match="^threshold must be nonnegative, got -1.0$"):
            search_pairs(flow, 2, times, threshold=-1.0)
        with pytest.raises(ValueError, match="^threshold must be nonnegative, got -1.0$"):
            sweep(lambda d: flow, [0.0, 1.0], times, 2, threshold=-1.0)

    def test_spinbath_search_matches_closed_form_canonical_pair(self):
        params = SpinBathParams(coupling_a=1.0, n_spins=20)
        horizon = 3 * np.pi / 2 + 0.3
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
    blocks = _pair_values(flow, len(diffs), lambda a, b: diffs[a:b], times)
    for start, _, vals, errs, (rows, a, b, c) in blocks:
        values.append(vals)
        errors += errs
        found.append((rows + start, a, b, c))
    return np.concatenate(values), errors, tuple(np.concatenate(x) for x in zip(*found))


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
    def test_values_match_per_pair_oracle(self, name):
        make_gen, dim, horizon, step = BATCH_CASES[name]
        flow, times = grid_flow(make_gen(), horizon, step)
        size = _block_size(times, dim)
        # Qubit blocks hold two (pairs x T) work buffers, d > 2 blocks the
        # (pairs x T x d^2) evolved differences.
        assert size == PAIR_BLOCK // (times.size * (2 if dim == 2 else dim * dim)) > 2
        pairs = canonical_pairs(dim) + random_pairs(dim, 5, 3 * size - 1)
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
                # A crossing time moves by the rounding of sigma over its slope.
                assert np.max(np.abs(got[:, :2] - [(x, y) for x, y, _ in intervals])) <= 1e-9

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

    def test_negative_contribution_fails_only_its_pair(self):
        # D of the x pair zigzags: a one-point run of sigma > 0 whose end lies
        # far below its start.
        times = make_time_grid(0.02, 1e-3)
        zigzag = np.array([1.0] * 8 + [0.2, 0.99, 0.2, 1.0, 0.0] + [0.0] * 8)
        flow = bloch_map_flow(times, lambda t: zigzag, np.ones_like)
        values, errors, _ = pair_values(flow, diffs_of([Z_PAIR, X_PAIR]), times)
        assert errors == [None, "negative contribution -0.7519046867142856"]
        assert values[0] == 0.0 and np.isnan(values[1])
        with pytest.raises(ValueError, match="^negative contribution -0.7519046867142856$"):
            n_for_pair(flow, X_PAIR, times)

    def test_exact_tie_goes_to_the_first_evaluated_pair(self, monkeypatch):
        import nmflow.measure

        def copies_of_z(dim, rng, count):
            """Every sample direction drawn as the canonical z pair's difference."""
            return np.tile(diffs_of([Z_PAIR]), (count, 1, 1))

        monkeypatch.setattr(nmflow.measure, "_directions", copies_of_z)
        flow, times = grid_flow(jc_generator(JCParams(delta=8.0)), 10.0, 1e-3)
        n_pairs = 2 * _block_size(times, 2) + 1
        values, _, _ = pair_values(flow, copies_of_z(2, None, n_pairs + 1), times)
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
