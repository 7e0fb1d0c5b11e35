import numpy as np
import pytest

from oracles import spin_bath_coherence_factor, state_rng, volterra_amplitude

from nmflow.dynamics import (
    STEP_BLOCK,
    divisibility_report,
    evolve_state,
    is_cp,
    propagator_grid,
)
from nmflow.exceptions import NumericalError
from nmflow.measure import _pair_operator, canonical_pairs, make_time_grid, search_pairs, trajectory
from nmflow.models import (
    JCParams,
    SpinBathParams,
    _damping_divisibility,
    jc_amplitude,
    jc_decay_exponent,
    jc_divisibility,
    jc_flow,
    jc_generator,
    jc_rate,
    semigroup_divisibility,
    semigroup_flow,
    semigroup_generator,
    spinbath_f,
    spinbath_flow,
    spinbath_rate,
    spinbath_trace_distance,
)
from nmflow.states import DensityMatrix, trace_distance

PLUS_X = DensityMatrix(0.5 * np.array([[1, 1], [1, 1]], dtype=complex))
MINUS_X = DensityMatrix(0.5 * np.array([[1, -1], [-1, 1]], dtype=complex))
EXCITED = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
GROUND = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))


class TestCavityAmplitude:
    def test_initial_conditions(self):
        for delta in (0.0, 2.0, 5.0):
            params = JCParams(delta=delta)
            assert jc_amplitude(params, 0.0) == pytest.approx(1.0, abs=1e-14)
            assert jc_rate(params, 0.0) == pytest.approx(0.0, abs=1e-12)
            assert jc_decay_exponent(params, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_weak_coupling_resonant_limit(self):
        # At vanishing coupling the amplitude barely decays.
        params = JCParams(gamma0=1e-8, delta=0.0)
        g = jc_amplitude(params, 5.0)
        assert abs(g - 1.0) < 1e-6

    def test_matches_memory_kernel_oracle(self):
        for delta in (0.0, 5.0):
            params = JCParams(gamma0=0.01, lam=1.0, delta=delta)
            times, g_oracle = volterra_amplitude(0.01, 1.0, delta, 20.0, 100_000)
            g_ours = jc_amplitude(params, times)
            assert np.max(np.abs(g_ours - g_oracle)) < 1e-8

    def test_double_root_branch_is_continuous(self):
        # gamma0 = lam/2 makes the characteristic roots collide at delta=0.
        on = JCParams(gamma0=0.5, lam=1.0, delta=0.0)
        near = JCParams(gamma0=0.5 * (1.0 + 1e-10), lam=1.0, delta=0.0)
        t = np.linspace(0.0, 10.0, 101)
        assert np.max(np.abs(jc_amplitude(on, t) - jc_amplitude(near, t))) < 1e-8

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            jc_amplitude(JCParams(), -1.0)


class TestCavityRate:
    def test_resonant_rate_stays_nonnegative(self):
        params = JCParams(delta=0.0)
        rates = jc_rate(params, np.linspace(0.0, 50.0, 2001))
        assert rates.min() >= -1e-12

    def test_detuned_rate_has_negative_windows(self):
        params = JCParams(delta=5.0)
        rates = jc_rate(params, np.linspace(0.0, 20.0, 4001))
        assert rates.min() < -1e-4
        assert rates.max() > 0.0

    def test_exponent_is_integral_of_rate(self):
        # Gamma(t) = int_0^t gamma via high-resolution trapezoid quadrature.
        params = JCParams(delta=5.0)
        t = np.linspace(0.0, 20.0, 200_001)
        quad = np.concatenate(
            [[0.0], np.cumsum(0.5 * (t[1] - t[0]) * (jc_rate(params, t)[1:]
                                                     + jc_rate(params, t)[:-1]))]
        )
        assert np.max(np.abs(jc_decay_exponent(params, t) - quad)) < 1e-7

    def test_exponent_nonnegative(self):
        for delta in (0.0, 3.0, 8.0):
            gam = jc_decay_exponent(JCParams(delta=delta), np.linspace(0.0, 30.0, 501))
            assert gam.min() >= -1e-12


class TestCavityGenerator:
    def test_evolution_matches_analytic_map(self):
        # The generator built from gamma(t) must reproduce its exact solution:
        # excited population scales by |G|^2, coherences by |G| (the generator
        # carries no Hamiltonian part, so the phase of G never appears).
        params = JCParams(delta=5.0)
        gen = jc_generator(params)
        grid = np.arange(0.0, 10.0 + 1e-12, 1e-3)
        rng = state_rng(99)
        a = rng.normal() + 1j * rng.normal()
        vec = np.array([a, 1.0])
        vec /= np.linalg.norm(vec)
        rho0 = DensityMatrix(np.outer(vec, vec.conj()))
        states = evolve_state(gen, rho0, grid)
        worst = 0.0
        for t, s in zip(grid[::200], states[::200]):
            g = jc_amplitude(params, t)
            exact = np.empty((2, 2), dtype=complex)
            exact[0, 0] = rho0.matrix[0, 0] * abs(g) ** 2
            exact[0, 1] = rho0.matrix[0, 1] * abs(g)
            exact[1, 0] = np.conj(exact[0, 1])
            exact[1, 1] = 1.0 - exact[0, 0]
            worst = max(worst, np.max(np.abs(s.matrix - exact)))
        assert worst < 1e-6

    def test_trace_distance_decay_law_for_antipodal_pair(self):
        # For the excited/ground pair D(t) = exp(-Gamma(t)) and its slope is
        # -gamma(t) exp(-Gamma(t)); checked against the integrated dynamics.
        params = JCParams(delta=5.0)
        gen = jc_generator(params)
        grid = np.arange(0.0, 15.0 + 1e-12, 1e-3)
        s1 = evolve_state(gen, EXCITED, grid)
        s2 = evolve_state(gen, GROUND, grid)
        d = np.array([trace_distance(a, b) for a, b in zip(s1, s2)])
        expected = np.exp(-jc_decay_exponent(params, grid))
        assert np.max(np.abs(d - expected)) < 1e-6
        sigma = np.gradient(d, grid, edge_order=2)
        slope = -jc_rate(params, grid) * expected
        assert np.max(np.abs(sigma - slope)) < 5e-6

    def test_distance_growth_exactly_where_rate_is_negative(self):
        params = JCParams(delta=5.0)
        t = np.linspace(0.05, 20.0, 3999)
        sigma = -jc_rate(params, t) * np.exp(-jc_decay_exponent(params, t))
        eps = 1e-9 * np.max(np.abs(sigma))
        grow = sigma > eps
        shrink_rate = jc_rate(params, t) > eps
        # sigma > 0 iff gamma < 0 (the exponential factor is positive).
        assert np.array_equal(grow, jc_rate(params, t) < -0.0)
        assert not np.any(grow & shrink_rate)

    def test_clamped_variant_never_negative(self):
        gen = jc_generator(JCParams(delta=5.0), nonnegative_rate=True)
        rate = gen.channels[0][1]
        assert np.min(rate(np.linspace(0.0, 20.0, 2001))) >= 0.0


class TestSpinBath:
    def test_f_examples(self):
        params = SpinBathParams(coupling_a=1.0, n_spins=2)
        assert spinbath_f(params, 0.0) == pytest.approx(1.0)
        # cos(pi/2) = 0 at t = pi/4.
        assert spinbath_f(params, np.pi / 4) == pytest.approx(0.0, abs=1e-15)
        # One full period later everything revives.
        assert spinbath_f(params, np.pi / 2) == pytest.approx(1.0, abs=1e-12)

    def test_odd_bath_preserves_sign_flips(self):
        params = SpinBathParams(coupling_a=1.0, n_spins=3)
        assert spinbath_f(params, np.pi / 2) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_brute_force_bath_average(self):
        for n_spins in (1, 2, 5, 10):
            params = SpinBathParams(coupling_a=0.7, n_spins=n_spins)
            for t in (0.1, 0.5, 1.3):
                oracle = spin_bath_coherence_factor(0.7, n_spins, t)
                assert abs(oracle.imag) < 1e-10
                assert spinbath_f(params, t) == pytest.approx(oracle.real, abs=1e-10)

    def test_distance_consistent_with_trace_distance(self):
        params = SpinBathParams(coupling_a=1.0, n_spins=4)
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 1000:
            a = rng.uniform(-1.0, 1.0)
            b = (rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5))
            t = rng.uniform(0.0, 3.0)
            # a and b are the entrywise differences of the initial pair.
            half_diff = 0.5 * np.array([[a, b], [np.conj(b), -a]])
            m1 = 0.5 * np.eye(2, dtype=complex) + half_diff
            m2 = 0.5 * np.eye(2, dtype=complex) - half_diff
            try:
                DensityMatrix(m1)
                DensityMatrix(m2)
            except ValueError:
                continue  # sampled outside the Bloch ball
            f = spinbath_f(params, t)
            e1, e2 = m1.copy(), m2.copy()
            for m in (e1, e2):
                m[0, 1] *= f
                m[1, 0] *= f
            direct = trace_distance(DensityMatrix(e1), DensityMatrix(e2))
            closed = spinbath_trace_distance(params, a, b, t)
            assert abs(direct - closed) < 1e-12
            checked += 1

    def test_rate_errors_at_pole(self):
        params = SpinBathParams(coupling_a=1.0, n_spins=20)
        with pytest.raises(NumericalError, match="pole"):
            spinbath_rate(params, np.pi / 4)

    def test_rate_sign_tracks_distance_slope(self):
        # D for a pure-coherence pair shrinks while tan > 0 and revives while
        # tan < 0; check gamma against a finite-difference slope of D.
        params = SpinBathParams(coupling_a=1.0, n_spins=6)
        for t in (0.2, 0.6, 1.0, 1.4):
            gamma = spinbath_rate(params, t)
            hstep = 1e-6
            dplus = spinbath_trace_distance(params, 0.0, 1.0, t + hstep)
            dminus = spinbath_trace_distance(params, 0.0, 1.0, t - hstep)
            slope = (dplus - dminus) / (2 * hstep)
            assert np.sign(slope) == -np.sign(gamma)

    def test_invalid_population_gap(self):
        with pytest.raises(ValueError, match="a must lie"):
            spinbath_trace_distance(SpinBathParams(), 1.5, 0.0, 0.0)

    def test_flow_streams_the_closed_form(self):
        # The README spin-bath grid: 10,001 points, 39 full blocks and a
        # partial one, equal to the bit to diag(1, f, f, 1) of the whole grid.
        params = SpinBathParams(coupling_a=1.0, n_spins=20)
        times = make_time_grid(5.0, 5e-4)
        blocks = list(spinbath_flow(params, times))
        assert [k0 for k0, _ in blocks] == list(range(0, times.size, STEP_BLOCK))
        expected = np.zeros((times.size, 4, 4), dtype=complex)
        expected[:, 0, 0] = expected[:, 3, 3] = 1.0
        expected[:, 1, 1] = expected[:, 2, 2] = spinbath_f(params, times)
        assert np.array_equal(np.concatenate([block for _, block in blocks]), expected)


class TestSemigroup:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="nonnegative"):
            semigroup_generator(-1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            semigroup_flow(-1.0, np.linspace(0.0, 1.0, 11))

    def test_distance_decays_exponentially(self):
        gen = semigroup_generator(1.0)
        grid = np.arange(0.0, 3.0 + 1e-12, 1e-3)
        s1 = evolve_state(gen, PLUS_X, grid)
        s2 = evolve_state(gen, MINUS_X, grid)
        d = np.array([trace_distance(a, b) for a, b in zip(s1, s2)])
        assert np.max(np.abs(d - np.exp(-0.5 * grid))) < 1e-7


# The jc points, and None for the semigroup, of the exact-versus-RK4 checks.
EXACT_CASES = [*(JCParams(gamma0=g0, delta=delta)
                 for g0, delta in ((0.01, 8.0), (0.01, 0.0), (0.5, 4.0), (5.0, 3.0))), None]


class TestExactFlow:
    """The amplitude-damping flow of jc_flow and semigroup_flow against RK4
    integration of the same generators, where RK4 resolves them."""

    @pytest.mark.parametrize("params", EXACT_CASES, ids=lambda p: (
        f"jc-{p.gamma0}-{p.delta}" if p else "semigroup"))
    def test_exact_stream_matches_rk4(self, params):
        if params is None:
            gen, exact = semigroup_generator(1.0), lambda t: semigroup_flow(1.0, t)
        else:
            gen, exact = jc_generator(params), lambda t: jc_flow(params, t)
        times = make_time_grid(10.0, 1e-3)
        rk4 = propagator_grid(gen, times)
        blocks = list(exact(times))
        assert [k0 for k0, _ in blocks] == list(range(0, times.size, STEP_BLOCK))
        flow = np.concatenate([block for _, block in blocks])
        assert flow.shape == rk4.shape
        assert np.max(np.abs(flow - rk4)) <= 1e-12
        on_exact = search_pairs(exact(times), 50, times, seed=1).best.n_value
        assert abs(on_exact - search_pairs(rk4, 50, times, seed=1).best.n_value) <= 1e-10
        # The stream and the array of its blocks reduce to the same bits; the
        # flow's own (c, p) route differs from them by rounding alone.
        op = _pair_operator(iter(exact(times)), times.size)[1]
        assert np.array_equal(op, _pair_operator(flow, times.size)[1])
        assert np.max(np.abs(_pair_operator(exact(times), times.size)[1] - op)) <= 1e-15

    def test_a_zero_of_g_is_a_valid_grid_point(self):
        # gamma0 = 5 lambda on resonance: G(t) = exp(-t/2) (cos(3t/2) +
        # sin(3t/2)/3), whose first zero t0 is grid point 100. The rate has a
        # pole there, the map is the full decay to the ground level.
        params = JCParams(gamma0=5.0, delta=0.0)
        t0 = 2.0 / 3.0 * (np.pi - np.arctan(3.0))
        times = np.arange(301) * (t0 / 100)
        assert abs(jc_amplitude(params, times[100])) < 1e-15
        flow = np.concatenate([block for _, block in jc_flow(params, times)])
        assert np.isfinite(flow).all()
        assert abs(flow[100, 0, 0]) < 1e-30 and flow[100, 3, 0] == 1.0
        x_pair = next(pair for pair in canonical_pairs(2) if pair.label == "canonical-x")
        d = trajectory(jc_flow(params, times), x_pair, times).d_values
        assert np.max(np.abs(d - np.abs(jc_amplitude(params, times)))) <= 1e-15
        assert search_pairs(jc_flow(params, times), 20, times).failures == []


def _flow(stream):
    return np.concatenate([block for _, block in stream])


def _damping_blocks(c):
    """The column-stacked amplitude-damping maps with coherence factors c,
    in the layout of the exact flows."""
    p = c * c
    block = np.zeros((np.size(c), 4, 4), dtype=complex)
    block[:, 0, 0], block[:, 3, 0], block[:, 3, 3] = p, 1.0 - p, 1.0
    block[:, 1, 1] = block[:, 2, 2] = c
    return block


class TestExactDivisibility:
    """The closed-form two-time verdicts of jc and the semigroup against the
    integrated maps and the Choi test of nmflow.dynamics. The tolerances were
    fixed before the code."""

    def test_flow_blocks_are_amplitude_damping(self):
        params = JCParams(gamma0=0.01, delta=8.0)
        times = make_time_grid(10.0, 1e-3)
        for stream, c in ((jc_flow(params, times), np.abs(jc_amplitude(params, times))),
                          (semigroup_flow(1.0, times), np.exp(-0.5 * 1.0 * times))):
            assert np.array_equal(_flow(stream), _damping_blocks(c))

    def test_closed_form_least_eigenvalue_matches_is_cp(self):
        # Factors past 1 are the non-CP maps of a rising |G|.
        r = np.random.default_rng(27).uniform(0.0, 1.5, 2000)
        grid = np.arange(2001.0)
        report = _damping_divisibility(1.0, r, grid, 1e-7)
        ok, least = is_cp(_damping_blocks(r), 1e-7)
        got = np.array([iv.least_choi_eigenvalue for iv in report.intervals])
        assert np.max(np.abs(got - least)) <= 1e-14
        assert [iv.is_cp for iv in report.intervals] == ok.tolist()
        assert not all(ok)

    @pytest.mark.parametrize("model", ["jc", "semigroup"])
    def test_exact_verdicts_match_rk4(self, model):
        if model == "jc":
            params = JCParams(gamma0=0.01, delta=5.0)
            grid = np.linspace(0.0, 12.0, 601)
            gen, exact = jc_generator(params), jc_divisibility(params, grid, 1e-7)
        else:
            grid = np.linspace(0.0, 5.0, 51)
            gen, exact = semigroup_generator(1.0), semigroup_divisibility(1.0, grid, 1e-7)
        rk4 = divisibility_report(gen, grid, tol=1e-7, h=1e-3).intervals
        assert [iv[:3] for iv in exact.intervals] == [iv[:3] for iv in rk4]
        least = np.array([[a.least_choi_eigenvalue, b.least_choi_eigenvalue]
                          for a, b in zip(exact.intervals, rk4)])
        assert np.max(np.abs(least[:, 0] - least[:, 1])) <= 1e-12
        if model == "jc":
            assert not exact.divisible

    def test_two_time_maps_compose_to_the_flow(self):
        # Phi(b, a) Phi(a, 0) = Phi(b, 0) on every interval of the jc grid,
        # with Phi(b, a) amplitude damping of factor |G(b)| / |G(a)|.
        params = JCParams(gamma0=0.01, delta=5.0)
        grid = np.linspace(0.0, 12.0, 601)
        flow = _flow(jc_flow(params, grid))
        c = np.abs(jc_amplitude(params, grid))
        composed = _damping_blocks(c[1:] / c[:-1]) @ flow[:-1]
        assert np.max(np.abs(composed - flow[1:])) <= 1e-14

    def test_weak_coupling_past_the_underflow_of_the_population(self):
        # gamma0 = 0.4 on resonance: |G|^2 is subnormal for t in about
        # [1281, 1348] and 0 past about 1350, but |G| stays above
        # AMPLITUDE_FLOOR; every map contracts, as RK4 finds.
        params = JCParams(gamma0=0.4, delta=0.0)
        grid = np.linspace(1200.0, 1400.0, 21)
        assert np.abs(jc_amplitude(params, 1300.0)) ** 2 < np.finfo(float).tiny
        exact = jc_divisibility(params, grid, 1e-7)
        rk4 = divisibility_report(jc_generator(params), grid, tol=1e-7, h=1e-2)
        assert exact.divisible and rk4.divisible
        least = np.array([[a.least_choi_eigenvalue, b.least_choi_eigenvalue]
                          for a, b in zip(exact.intervals, rk4.intervals)])
        assert np.max(np.abs(least[:, 0] - least[:, 1])) <= 1e-12

    def test_semigroup_maps_come_from_the_interval_length(self):
        # Time-homogeneous: past t = 745, where the flow's population factor
        # underflows to 0, the two-time maps are still those of the length.
        grid = np.linspace(0.0, 3000.0, 4)
        report = semigroup_divisibility(1.0, grid, 1e-7)
        assert report.divisible
        assert [iv.least_choi_eigenvalue for iv in report.intervals] == [0.0] * 3

    def test_undefined_two_time_map_names_its_interval(self):
        # gamma0 = 5 on resonance: |G(t)| ~ exp(-t/2) falls below
        # AMPLITUDE_FLOOR = 1e-300 at about t = 1380.
        params = JCParams(gamma0=5.0, delta=0.0)
        grid = np.linspace(0.0, 1500.0, 16)
        with pytest.raises(NumericalError, match=r"^interval 14 \[1400.0, 1500.0\]: two-time map "
                           r"undefined: the coherence factor at t=1400.0 is \d.\d+e-30\d, "
                           r"at most 1e-300$"):
            jc_divisibility(params, grid, 1e-7)

    @pytest.mark.parametrize("end", [np.nan, np.inf, 1.0])
    def test_non_finite_eigenvalue_is_refused(self, end):
        # 1 / 1e-200 squared overflows.
        grid = np.linspace(0.0, 1.0, 4)
        start = np.array([1.0, 1e-200 if end == 1.0 else 1.0, 1.0])
        with pytest.raises(NumericalError, match=r"^interval 1 \[0.333\d*, 0.666\d*\]: "
                           "two-time map not finite$"):
            _damping_divisibility(start, np.array([1.0, end, 1.0]), grid, 1e-7)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan])
    def test_tolerance_must_be_positive(self, tol):
        grid = np.linspace(0.0, 1.0, 4)
        for report in (lambda: jc_divisibility(JCParams(), grid, tol),
                       lambda: semigroup_divisibility(1.0, grid, tol)):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                report()


class TestParamValidation:
    def test_jc_params(self):
        with pytest.raises(ValueError):
            JCParams(gamma0=0.0)
        with pytest.raises(ValueError):
            JCParams(lam=-1.0)

    # c^2 - 2 gamma0 lam, c = lam - i delta, overflows for |delta| above
    # about 1.34e154; a NaN or an infinity in any parameter makes it not
    # finite too. Each used to give a NaN rate and RuntimeWarnings.
    @pytest.mark.parametrize("kwargs", [
        {"delta": 1e200}, {"delta": -1.35e154}, {"gamma0": np.nan}, {"gamma0": np.inf},
        {"lam": np.nan}, {"delta": np.nan}, {"delta": np.float64(1e200)},
    ])
    def test_jc_params_with_no_finite_closed_form_are_refused(self, kwargs):
        with pytest.raises(ValueError, match=r"^c\^2 - 2 gamma0 lam \(c = lam - i delta\) is not "
                           "finite for gamma0="):
            JCParams(**kwargs)

    def test_jc_params_just_below_the_overflow_give_finite_rates(self):
        rate = jc_rate(JCParams(delta=1.3e154), np.linspace(0.0, 1.0, 11))
        assert np.isfinite(rate).all()

    def test_spinbath_params(self):
        with pytest.raises(ValueError):
            SpinBathParams(coupling_a=0.0)
        with pytest.raises(ValueError):
            SpinBathParams(n_spins=0)
