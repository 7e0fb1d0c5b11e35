import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from oracles import (
    amplitude_damping_solution,
    apply_map,
    callable_d3_generator,
    canonical_rates,
    generator_superoperator,
    random_mixed_state,
    random_pure_state,
    rk4_flow,
)

from nmflow.cli import load_custom_generator
from nmflow.dynamics import (
    EVOLVE_POSITIVITY_TOL,
    STEP_BLOCK,
    TRACE_DRIFT_TOL,
    _CompiledGenerator,
    _interval_map,
    _rk4_increments,
    _running_maps,
    _substeps,
    GeneratorSpec,
    choi_of,
    constant_generator,
    divisibility_report,
    evolve_state,
    flow_blocks,
    is_cp,
    propagator_between,
    propagator_grid,
)
from nmflow.exceptions import InvariantViolation, NumericalError
from nmflow.models import JCParams, jc_generator, jc_rate, semigroup_generator
from nmflow.states import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    _failing_state,
    trace_distance,
)

PLUS = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
MINUS = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
MIXED = DensityMatrix(0.5 * np.eye(2, dtype=complex))


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


class TestEvolveState:
    def test_frozen_when_generator_vanishes(self):
        gen = constant_generator(np.zeros((2, 2)), [])
        grid = np.linspace(0.0, 1.0, 21)
        states = evolve_state(gen, MIXED, grid)
        for s in states:
            assert np.array_equal(s.matrix, MIXED.matrix)

    def test_constant_damping_matches_closed_form(self):
        gamma0 = 1.0
        gen = semigroup_generator(gamma0)
        grid = np.arange(0.0, 2.0 + 1e-12, 1e-3)
        rho0 = DensityMatrix(0.5 * np.array([[1, 1], [1, 1]], dtype=complex))
        states = evolve_state(gen, rho0, grid)
        worst = max(
            np.max(np.abs(s.matrix - amplitude_damping_solution(gamma0, rho0.matrix, t)))
            for t, s in zip(grid, states)
        )
        assert worst < 1e-8

    def test_grid_must_start_at_zero(self):
        gen = semigroup_generator(1.0)
        with pytest.raises(ValueError, match="start at 0"):
            evolve_state(gen, PLUS, np.linspace(1.0, 2.0, 11))

    def test_negative_rate_violation_names_grid_time(self):
        gen = constant_generator(np.zeros((2, 2)), [(SIGMA_MINUS, -1.0)])
        with pytest.raises(InvariantViolation, match="t="):
            evolve_state(gen, PLUS, np.linspace(0.0, 2.0, 201))

    @pytest.mark.parametrize("rate, least", [(-1.0, "-1.005e-02"), (-50.0, "-6.484e-01")])
    def test_first_offending_time_wins(self, rate, least):
        # At rate -50 the flow turns non-finite only at t=14.21, blocks later;
        # the state check names the first time.
        gen = constant_generator(np.zeros((2, 2)), [(SIGMA_MINUS, rate)])
        message = f"state has eigenvalue {least} below -1.0e-08 at t=0.01"
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            evolve_state(gen, PLUS, np.linspace(0.0, 20.0, 2001))

    def test_first_offending_time_wins_over_a_later_non_finite_map(self):
        # Dephasing at rate -40 grows the coherences of the flow within the
        # step bound (h ||K|| = 0.805) until the maps overflow at t=8.89; the
        # diagonal state meets no coherence and stays valid until the sigma_minus
        # rate turns to -1 after t=8. Both times lie in the block of steps
        # 769-1024, and the state check names the earlier one.
        rate = lambda t: np.where(np.asarray(t) > 8.0, -1.0, 0.0)
        gen = GeneratorSpec(2, np.zeros((2, 2)), [(SIGMA_Z, -40.0), (SIGMA_MINUS, rate)])
        grid = np.linspace(0.0, 20.0, 2001)
        with pytest.raises(InvariantViolation, match=r"^propagator has non-finite entries at t=8\.89$"):
            propagator_grid(gen, grid)
        message = "state has eigenvalue -8.367e-03 below -1.0e-08 at t=8.01"
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            evolve_state(gen, PLUS, grid)

    @pytest.mark.parametrize("name",["jc-delta-8", "callable-d3"])
    def test_states_meet_the_state_rules_and_are_checked_once(self, monkeypatch, name):
        # The block check applies check_states' rules to states that are
        # Hermitian with a real trace by construction, so the returned states
        # are built without a second check.
        import nmflow.states

        gen = FLOW_GENERATORS[name]()
        rho0 = random_mixed_state(gen.dim, 3)
        check, calls = nmflow.states.check_states, []
        monkeypatch.setattr(nmflow.states, "check_states",
                            lambda *args: calls.append(args) or check(*args))
        states = evolve_state(gen, rho0, np.linspace(0.0, 5.0, 2001))
        assert calls == []
        m = np.stack([s.matrix for s in states])
        assert np.array_equal(m, m.conj().swapaxes(1, 2))
        assert np.all(np.trace(m, axis1=1, axis2=2).imag == 0.0)
        assert _failing_state(m, EVOLVE_POSITIVITY_TOL, TRACE_DRIFT_TOL) is None
        assert np.max(np.abs(states[0].matrix - rho0.matrix)) <= 1e-15 and states[0].dim == gen.dim

    def test_non_finite_state_names_its_time(self, monkeypatch):
        # A state with a non-finite entry, here from maps spoiled after the
        # flow's own check, is refused by the block check, not returned.
        import nmflow.dynamics

        running = nmflow.dynamics._running_maps

        def spoiled(*args):
            for k0, maps in running(*args):
                maps = maps.copy()
                maps[5] = np.nan
                yield k0, maps

        monkeypatch.setattr(nmflow.dynamics, "_running_maps", spoiled)
        with pytest.raises(InvariantViolation, match=r"^matrix has non-finite entries at t=0\.06$"):
            evolve_state(semigroup_generator(1.0), PLUS, np.linspace(0.0, 1.0, 101))

    def test_step_halving_is_fourth_order(self):
        gamma0 = 1.0
        gen = semigroup_generator(gamma0)
        rho0 = DensityMatrix(0.5 * np.array([[1, 1], [1, 1]], dtype=complex))
        errors = []
        h = 1e-2 / gamma0
        for _ in range(4):
            grid = np.arange(0.0, 1.0 + h / 2, h)
            states = evolve_state(gen, rho0, grid)
            errors.append(
                max(
                    np.max(np.abs(s.matrix
                                  - amplitude_damping_solution(gamma0, rho0.matrix, t)))
                    for t, s in zip(grid, states)
                )
            )
            h /= 2.0
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 12.0


class TestPropagator:
    def test_degenerate_interval_is_identity(self):
        gen = semigroup_generator(1.0)
        p = propagator_between(gen, 0.7, 0.7, 1e-3)
        assert p.dtype == complex and np.array_equal(p, np.eye(4))
        # Its step is checked like any other.
        with pytest.raises(ValueError, match="^step must be positive, got 0.0$"):
            propagator_between(gen, 0.7, 0.7, 0.0)
        # A NaN endpoint is refused, not taken for a degenerate interval.
        for t1, t2 in ((0.0, np.nan), (np.nan, 0.5), (0.5, 0.2)):
            with pytest.raises(ValueError, match=f"^need t1 <= t2, got t1={t1}, t2={t2}$"):
                propagator_between(gen, t1, t2, 1e-3)

    def test_constant_generator_matches_matrix_exponential(self):
        gen = semigroup_generator(0.8)
        k = generator_superoperator(gen, 0.0)
        for t in (0.3, 1.1, 2.7):
            p = propagator_between(gen, 0.0, t, 1e-3)
            assert np.max(np.abs(p - expm(k * t))) < 1e-7

    def test_flow_composition(self):
        gen = jc_generator(JCParams(delta=5.0))
        h = 1e-3
        p01 = propagator_between(gen, 0.0, 1.0, h)
        p12 = propagator_between(gen, 1.0, 2.5, h)
        p02 = propagator_between(gen, 0.0, 2.5, h)
        defect = np.max(np.abs(p12 @ p01 - p02))
        assert defect < 1e-7

    def test_nested_composition(self):
        gen = jc_generator(JCParams(delta=3.0))
        h = 1e-3
        p12 = propagator_between(gen, 0.5, 1.0, h)
        p23 = propagator_between(gen, 1.0, 1.8, h)
        p13 = propagator_between(gen, 0.5, 1.8, h)
        assert np.max(np.abs(p23 @ p12 - p13)) < 1e-7

    def test_grid_matches_pointwise_builds(self):
        gen = jc_generator(JCParams(delta=5.0))
        grid = np.linspace(0.0, 2.0, 201)
        phis = propagator_grid(gen, grid)
        p = propagator_between(gen, 0.0, 2.0, grid[1] - grid[0])
        assert np.max(np.abs(phis[-1] - p)) < 1e-12

    def test_returned_map_is_checked(self, monkeypatch):
        # A map spoiled after integration is refused, not returned.
        import nmflow.dynamics

        monkeypatch.setattr(nmflow.dynamics, "_interval_map",
                            lambda *args: 1.5 * np.eye(4, dtype=complex))
        with pytest.raises(InvariantViolation, match="^propagator not trace preserving"):
            propagator_between(semigroup_generator(1.0), 0.0, 1.0, 1e-2)

    def test_map_beyond_double_precision_is_named_so(self):
        # At 1e9 the rounding of the entries alone exceeds PROPAGATOR_TOL.
        with pytest.raises(InvariantViolation, match=r"^propagator entries reach 1.000e\+09, a "
                           "scale beyond double-precision resolution: its trace defect"):
            is_cp(1e9 * np.eye(4))
        with pytest.raises(InvariantViolation, match="^propagator not trace preserving"):
            is_cp(1e7 * np.eye(4))

    def test_step_count_beyond_int64_is_refused(self):
        # 1e23 steps: the cast to an int64 count would wrap to -2^63, run no
        # step and return the identity.
        message = "interval length 1e+20 over step 0.001 needs more RK4 steps than an int64 count holds"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            propagator_between(semigroup_generator(1.0), 0.0, 1e20, 1e-3)
        with pytest.raises(ValueError, match="needs more RK4 steps than an int64 count holds$"):
            divisibility_report(semigroup_generator(1.0), [0.0, 5e19, 1e20], h=1e-3)
        with pytest.raises(ValueError, match="^interval length 1.0 over step 5e-324 needs more"):
            propagator_between(semigroup_generator(1.0), 0.0, 1.0, 5e-324)

    def test_apply_matches_evolution(self):
        gen = jc_generator(JCParams(delta=5.0))
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        p = propagator_between(gen, 0.0, 1.0, 1e-3)
        rho0 = random_mixed_state(2, 17)
        states = evolve_state(gen, rho0, grid)
        assert np.max(np.abs(apply_map(p, rho0) - states[-1].matrix)) < 1e-9


def random_d4_generator():
    """Random d = 4 generator: random H, two channels, one time-dependent rate."""
    rng = np.random.default_rng(23)
    ops = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
           for _ in range(2)]
    ops = [op / np.linalg.norm(op) for op in ops]
    rate = lambda t: 0.6 + 0.4 * np.cos(3.0 * np.asarray(t))
    return GeneratorSpec(4, 0.5 * random_hermitian(rng, 4), [(ops[0], 0.3), (ops[1], rate)])


FLOW_GENERATORS = {
    "jc-delta-8": lambda: jc_generator(JCParams(delta=8.0)),
    "random-d4": random_d4_generator,
    "callable-d3": callable_d3_generator,
}
# One below, at and one above the block size, and a grid spanning several blocks.
FLOW_STEPS = [STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1, 3 * STEP_BLOCK + 17]


@pytest.mark.parametrize("steps", FLOW_STEPS)
@pytest.mark.parametrize("name", sorted(FLOW_GENERATORS))
class TestFlowMatchesStepByStepOracle:
    """The blocked step-map flow against a per-step RK4 loop (tol 1e-12)."""

    h = 1e-2

    def oracle(self, gen, t_grid):
        return rk4_flow(lambda t: generator_superoperator(gen, t), t_grid)

    def test_propagator_grid(self, name, steps):
        gen = FLOW_GENERATORS[name]()
        grid = self.h * np.arange(steps + 1)
        phis = propagator_grid(gen, grid)
        assert phis.shape == (steps + 1, gen.dim ** 2, gen.dim ** 2)
        assert np.max(np.abs(phis - self.oracle(gen, grid))) < 1e-12

    def test_flow_blocks_fill_propagator_grid(self, name, steps):
        gen = FLOW_GENERATORS[name]()
        grid = self.h * np.arange(steps + 1)
        blocks = list(flow_blocks(gen, grid))
        starts = [k0 for k0, _ in blocks]
        assert starts == [0, *range(1, steps + 1, STEP_BLOCK)]
        assert [len(b) for _, b in blocks] == np.diff(starts + [steps + 1]).tolist()
        assert np.array_equal(blocks[0][1], np.eye(gen.dim ** 2)[None])
        assert np.array_equal(np.concatenate([b for _, b in blocks]), propagator_grid(gen, grid))

    def test_propagator_between(self, name, steps):
        gen = FLOW_GENERATORS[name]()
        t1 = 0.3
        t2 = t1 + steps * self.h
        p = propagator_between(gen, t1, t2, self.h)
        expected = self.oracle(gen, t1 + (t2 - t1) / steps * np.arange(steps + 1))[-1]
        assert np.max(np.abs(p - expected)) < 1e-12

    def test_evolve_state(self, name, steps):
        gen = FLOW_GENERATORS[name]()
        grid = self.h * np.arange(steps + 1)
        rho0 = random_mixed_state(gen.dim, 31)
        states = evolve_state(gen, rho0, grid)
        expected = self.oracle(gen, grid) @ rho0.matrix.reshape(-1, order="F")
        got = np.stack([s.matrix.reshape(-1, order="F") for s in states])
        assert np.max(np.abs(got - expected)) < 1e-12


class TestNonFiniteFlow:
    def test_blow_up_names_the_first_non_finite_time(self):
        # Rate -50 at step 1e-2 is within the step bound (h ||K|| = 0.5), and
        # the flow overflows at step 1421, in the sixth block of STEP_BLOCK.
        gen = constant_generator(np.zeros((2, 2)), [(SIGMA_MINUS, -50.0)])
        grid = np.linspace(0.0, 20.0, 2001)
        with pytest.raises(InvariantViolation, match=r"non-finite entries at t=14\.21$"):
            propagator_grid(gen, grid)
        # The stream raises when the block after the first non-finite map is
        # asked for; that map's block comes first. Its consumer silences
        # NumPy's overflow warnings.
        blocks = flow_blocks(gen, grid)
        with np.errstate(over="ignore", invalid="ignore"):
            assert [k0 for k0, _ in itertools.islice(blocks, 7)] == [0, 1, 257, 513, 769, 1025, 1281]
            with pytest.raises(InvariantViolation, match=r"non-finite entries at t=14\.21$"):
                next(blocks)
        with pytest.raises(InvariantViolation, match=r"non-finite entries at t=14\.21$"):
            propagator_between(gen, 0.0, 20.0, 1e-2)


class TestStepBound:
    """The RK4 step bound h ||K(t)||_inf <= 1, checked on the real stage
    matrices by every integrator."""

    @staticmethod
    def refused(step, t, value):
        return f"^step {step} cannot resolve the generator at t={t}: h\\*\\|\\|K\\|\\| = {value} > 1$"

    def test_every_integrator_refuses_a_step_beyond_the_bound(self):
        # For sigma_minus at rate r the largest row sum is |r|: h ||K|| is 1 at
        # rate -100 and step 1e-2, which passes, and 1.01 at rate -101.
        ok, beyond = (constant_generator(np.zeros((2, 2)), [(SIGMA_MINUS, r)]) for r in (-100.0, -101.0))
        grid = np.linspace(0.0, 0.1, 11)
        propagator_grid(ok, grid)
        message = self.refused(0.01, 0, 1.01)
        with pytest.raises(InvariantViolation, match=message):
            propagator_grid(beyond, grid)
        with pytest.raises(InvariantViolation, match=message):
            next(itertools.islice(flow_blocks(beyond, grid), 1, None))
        with pytest.raises(InvariantViolation, match=message):
            evolve_state(beyond, PLUS, grid)
        with pytest.raises(InvariantViolation, match=message):
            propagator_between(beyond, 0.0, 0.1, 1e-2)
        with pytest.raises(InvariantViolation, match=r"^interval 0 \[0\.0, 0\.05\]: " + message[1:]):
            divisibility_report(beyond, [0.0, 0.05, 0.1], h=1e-2)

    def test_first_stage_time_beyond_the_bound_is_named(self):
        # Stage times are the grid points and the midpoints, 0.005 apart.
        rate = lambda t: np.where(np.asarray(t) > 0.3, -1e5, 1.0)
        gen = GeneratorSpec(2, np.zeros((2, 2)), [(SIGMA_MINUS, rate)])
        with pytest.raises(InvariantViolation, match=self.refused(0.01, 0.305, "1e\\+03")):
            propagator_grid(gen, np.linspace(0.0, 1.0, 101))
        with pytest.raises(InvariantViolation, match=self.refused(0.01, 0.305, "1e\\+03")):
            evolve_state(gen, PLUS, np.linspace(0.0, 1.0, 101))

    def test_strong_coupling_jc_poles_are_refused(self):
        # gamma0 = 5 lambda on resonance: the rate has a pole at the first
        # zero of G, which RK4 at step 1e-3 cannot cross.
        gen = jc_generator(JCParams(gamma0=5.0, delta=0.0), nonnegative_rate=True)
        with pytest.raises(InvariantViolation, match=self.refused(0.001, 1.26, 1.18)):
            propagator_grid(gen, np.linspace(0.0, 2.0, 2001))
        with pytest.raises(InvariantViolation,
                           match=r"^interval 2 \[1\.0, 1\.5\]: " + self.refused(0.001, 1.26, 1.18)[1:]):
            divisibility_report(jc_generator(JCParams(gamma0=5.0, delta=0.0)),
                                np.linspace(0.0, 20.0, 41), h=1e-3)


def random_d3_generator():
    """Random constant d = 3 generator with two channels, one rate negative."""
    rng = np.random.default_rng(41)
    ops = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
    return constant_generator(0.5 * random_hermitian(rng, 3), [(ops[0], 0.4), (ops[1], -0.1)])


def rotating_d4_generator():
    """d = 4 generator whose jump operator turns with time, so that the
    compiled generator evaluates it at each stage time."""
    rng = np.random.default_rng(43)
    a, b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2))
    op = lambda t: np.cos(t) * a + np.sin(t) * b
    return GeneratorSpec(4, 0.5 * random_hermitian(rng, 4), [(op, 0.3)])


REAL_BASIS_GENERATORS = {
    "jc-delta-8": lambda: jc_generator(JCParams(delta=8.0)),
    "semigroup": lambda: semigroup_generator(1.0),
    "random-d3": random_d3_generator,
    "rotating-d4": rotating_d4_generator,
    "callable-d3": callable_d3_generator,
}


class TestRealBasis:
    """The integrators' real representation B^dag K B in the orthonormal
    Hermitian basis B, the prefix scan that composes the step maps of a flow,
    and the product tree that composes those of an interval."""

    @pytest.mark.parametrize("name", sorted(REAL_BASIS_GENERATORS))
    def test_real_stacks_map_back_to_the_generator(self, name):
        gen = REAL_BASIS_GENERATORS[name]()
        compiled = _CompiledGenerator(gen)
        b = compiled.basis
        d2 = gen.dim ** 2
        assert np.max(np.abs(b.conj().T @ b - np.eye(d2))) < 1e-15
        # Every basis matrix is Hermitian.
        f = b.T.reshape(d2, gen.dim, gen.dim)
        assert np.array_equal(f, f.conj().swapaxes(1, 2))
        times = np.linspace(0.0, 3.0, 7)
        ks = compiled.matrices(times)
        assert ks.dtype == float and ks.shape == (times.size, d2, d2)
        for t, k in zip(times, ks):
            assert np.max(np.abs(b @ k @ b.conj().T - generator_superoperator(gen, t))) < 1e-14

    @pytest.mark.parametrize("name", sorted(REAL_BASIS_GENERATORS))
    def test_complex_maps_invert_real(self, name):
        compiled = _CompiledGenerator(REAL_BASIS_GENERATORS[name]())
        r = np.random.default_rng(3).standard_normal((5,) + compiled.basis.shape)
        s = compiled.complex(r)
        assert np.max(np.abs(s - compiled.basis @ r @ compiled.basis.conj().T)) < 1e-14
        assert np.max(np.abs(compiled.real(s) - r)) < 1e-14

    # Steps n: one block of 1, 2, STEP_BLOCK - 1 and STEP_BLOCK steps, a full
    # block and one more.
    @pytest.mark.parametrize("n", [1, 2, STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1])
    @pytest.mark.parametrize("name", ["jc-delta-8", "rotating-d4"])
    def test_scan_equals_the_sequential_product(self, name, n):
        compiled = _CompiledGenerator(REAL_BASIS_GENERATORS[name]())
        t0, h = 0.1, 1e-2
        d2 = compiled.gen.dim ** 2
        s = np.eye(d2)
        expected = []
        for k in range(n):
            times = t0 + 0.5 * h * np.arange(2 * k, 2 * k + 3)
            s = s + _rk4_increments(compiled, times, h)[0] @ s
            expected.append(s)
        got = np.concatenate([maps for _, maps in _running_maps(compiled, t0, h, n)])
        assert got.shape == (n, d2, d2)
        assert np.max(np.abs(got - np.stack(expected))) < 1e-13

    # One, two and three steps; one below, at and one above STEP_BLOCK and the
    # qubit block of 1024 steps; and several blocks at every d.
    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 1023, 1024, 1025, 3000])
    @pytest.mark.parametrize("name", ["jc-delta-8", "callable-d3", "rotating-d4"])
    def test_interval_product_equals_the_last_scanned_map(self, name, n):
        # The scan, which flows keep, is the oracle of the two-time maps. The
        # product tree is the scan's last map where their blocks agree, so
        # only block boundaries may move the rounding.
        compiled = _CompiledGenerator(REAL_BASIS_GENERATORS[name]())
        for t0, h in ((0.0, 1e-2), (0.1, 1.1e-2)):
            for _, maps in _running_maps(compiled, t0, h, n):
                pass
            got = _interval_map(compiled, t0, h, n)
            assert got.shape == maps[-1].shape
            assert np.max(np.abs(got - compiled.complex(maps[-1:])[0])) <= TREE_TOL


class TestChoi:
    def test_identity_map(self):
        gen = semigroup_generator(1.0)
        ident = propagator_between(gen, 0.0, 0.0, 1e-3)
        c = choi_of(ident)
        eigs = np.linalg.eigvalsh(c)
        assert np.allclose(eigs, [0.0, 0.0, 0.0, 2.0], atol=1e-12)
        # Twice the maximally entangled projector.
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0
        assert np.max(np.abs(c - np.outer(bell, bell.conj()))) < 1e-12

    def test_completely_depolarizing_map(self):
        # rho -> tr(rho) I/2, built directly: S = vec(I/2) vec(I)^dag.
        v_id = np.eye(2, dtype=complex).reshape(-1, order="F")
        s = np.outer(0.5 * v_id, v_id.conj())
        c = choi_of(s)
        assert np.allclose(np.linalg.eigvalsh(c), [0.5] * 4, atol=1e-12)

    def test_stack_gives_the_bits_of_one_map_calls(self):
        phis = propagator_grid(jc8(), np.linspace(0.0, 4.0, 41))
        stack = phis[1:].reshape(5, 8, 4, 4)
        c = choi_of(stack)
        ok, least = is_cp(stack)
        assert c.shape == stack.shape and ok.shape == least.shape == (5, 8)
        for i, j in itertools.product(range(5), range(8)):
            one_ok, one_least = is_cp(stack[i, j])
            assert c[i, j].tobytes() == choi_of(stack[i, j]).tobytes()
            assert ok[i, j] == one_ok and least[i, j].tobytes() == one_least.tobytes()
        # A list is a map too.
        assert choi_of(phis[3].tolist()).tobytes() == choi_of(phis[3]).tobytes()

    @pytest.mark.parametrize("check", [choi_of, is_cp])
    def test_maps_are_checked(self, check):
        # A map that does not preserve trace, one that does not preserve
        # Hermiticity (rho -> rho with its (0, 1) entry doubled), and either
        # inside a stack of good maps.
        good = np.eye(4, dtype=complex)
        not_hp = good.copy()
        not_hp[2, 2] = 2.0
        for bad, what in ((1.5 * good, "trace"), (not_hp, "Hermiticity")):
            for maps in (bad, np.stack([good, bad, good])):
                with pytest.raises(InvariantViolation, match=f"^propagator not {what} preserving"):
                    check(maps)
        for shape in ((4,), (4, 3), (3, 3), (2, 0, 0), (1, 8, 8)):
            with pytest.raises(ValueError, match=r"^expected a \(d\^2, d\^2\) map or a stack"):
                check(np.zeros(shape))
        nan = good.copy()
        nan[0, 3] = np.nan
        with pytest.raises(ValueError, match="^map has non-finite entries$"):
            check(nan)

    def test_cpt_propagators_have_positive_choi(self):
        for delta in (0.0, 5.0):
            gen = jc_generator(JCParams(delta=delta))
            for t in (0.5, 2.0, 8.0):
                ok, least = is_cp(propagator_between(gen, 0.0, t, 1e-3))
                assert ok
                assert least >= -1e-8

    def test_is_cp_requires_positive_tolerance(self):
        gen = semigroup_generator(1.0)
        p = propagator_between(gen, 0.0, 0.5, 1e-3)
        with pytest.raises(ValueError):
            is_cp(p, tol=0.0)

    def test_nan_tolerance_is_rejected(self):
        # A NaN tolerance would call every map non-CP: -tol <= least is false.
        gen = semigroup_generator(1.0)
        with pytest.raises(ValueError, match="tolerance must be positive, got nan"):
            is_cp(propagator_between(gen, 0.0, 0.5, 1e-3), tol=float("nan"))
        with pytest.raises(ValueError, match="tolerance must be positive, got nan"):
            divisibility_report(gen, np.linspace(0.0, 1.0, 5), h=2.5e-3, tol=float("nan"))


class TestDivisibility:
    def test_semigroup_all_intervals_cp(self):
        gen = semigroup_generator(1.0)
        report = divisibility_report(gen, np.linspace(0.0, 3.0, 13), h=2.5e-3)
        assert report.divisible
        assert all(v.is_cp for v in report.intervals)

    def test_time_dependent_markovian_all_cp(self):
        gen = jc_generator(JCParams(delta=5.0), nonnegative_rate=True)
        report = divisibility_report(gen, np.linspace(0.0, 6.0, 25), h=5e-3)
        assert report.divisible

    def test_detuned_model_breaks_divisibility_where_rate_is_negative(self):
        from nmflow.models import jc_rate

        params = JCParams(delta=5.0)
        gen = jc_generator(params)
        grid = np.linspace(0.0, 6.0, 25)
        report = divisibility_report(gen, grid, h=5e-3)
        assert not report.divisible
        for v in report.intervals:
            if not v.is_cp:
                rates = jc_rate(params, np.linspace(v.t_start, v.t_end, 50))
                assert rates.min() < 0.0

    def test_needs_two_grid_points(self):
        with pytest.raises(ValueError):
            divisibility_report(semigroup_generator(1.0), [0.0], h=1e-3)

    def test_infinite_interval_rejected(self):
        gen = semigroup_generator(1.0)
        with pytest.raises(ValueError, match="^interval length must be finite"):
            divisibility_report(gen, [0.0, 1.0, np.inf], h=1e-2)
        with pytest.raises(ValueError, match="^interval length must be finite"):
            propagator_between(gen, 0.0, np.inf, 1e-3)

    @pytest.mark.parametrize("t", [np.inf, -np.inf])
    def test_infinite_one_point_interval_rejected(self, t):
        # t1 == t2 passes the order check; its length inf - inf is NaN, so the
        # degenerate interval is not taken for the identity.
        with pytest.raises(ValueError, match=r"^interval length must be finite, got \[nan\]$"):
            propagator_between(semigroup_generator(1.0), t, t, 1e-3)

    def test_failure_keeps_its_type_and_names_the_interval(self):
        class RateBlowUp(NumericalError):
            def __init__(self, t, why):
                super().__init__(t, why)

        def rate(t):
            t = np.asarray(t, dtype=float)
            if np.any(t > 0.5):
                raise RateBlowUp(float(np.max(t)), "singular")
            return np.ones_like(t)

        gen = GeneratorSpec(2, np.zeros((2, 2)), [(SIGMA_MINUS, rate)])
        with pytest.raises(RateBlowUp, match=r"interval 1 \[0\.5, 1\.0\]"):
            divisibility_report(gen, [0.0, 0.5, 1.0], h=0.1)


def per_interval_report(gen, t_grid, h):
    """(is_cp, least Choi eigenvalue) per interval, one propagator_between and
    one is_cp call at a time."""
    t = np.asarray(t_grid, dtype=float)
    return [is_cp(propagator_between(gen, a, b, h)) for a, b in zip(t[:-1], t[1:])]


jc8 = FLOW_GENERATORS["jc-delta-8"]


# The product tree against the scan: rounding only, far below the 1e-7 CP
# tolerance.
TREE_TOL = 1e-14
# (generator, grid, h)
DIVISIBILITY_CASES = {
    "jc-delta-8": (jc8, np.linspace(0.0, 4.0, 41), 1e-3),
    "random-d4": (random_d4_generator, np.linspace(0.0, 2.0, 21), 5e-3),
    # One-step intervals whose steps total one below, at and one above
    # STEP_BLOCK and the qubit block of 1024 steps.
    "one-step-x255": (jc8, 1e-2 * np.arange(STEP_BLOCK), 1e-2),
    "one-step-x256": (jc8, 1e-2 * np.arange(STEP_BLOCK + 1), 1e-2),
    "one-step-x257": (jc8, 1e-2 * np.arange(STEP_BLOCK + 2), 1e-2),
    "one-step-x1023": (jc8, 1e-2 * np.arange(1024), 1e-2),
    "one-step-x1024": (jc8, 1e-2 * np.arange(1025), 1e-2),
    "one-step-x1025": (jc8, 1e-2 * np.arange(1026), 1e-2),
    # 20 steps each: 13, 51 and 52 intervals, about 1024 steps in all.
    "20-steps-x13": (jc8, 0.2 * np.arange(14), 1e-2),
    "20-steps-x51": (jc8, 0.2 * np.arange(52), 1e-2),
    "20-steps-x52": (jc8, 0.2 * np.arange(53), 1e-2),
    # 300 steps each: three intervals, 900 steps.
    "300-steps-x3": (jc8, 3.0 * np.arange(4), 1e-2),
    # Step counts 5, 5, 2, 2, 2, 10, 1, 30, 5: runs of equal counts.
    "non-uniform": (
        random_d4_generator,
        np.cumsum([0.0, 0.05, 0.05, 0.02, 0.02, 0.02, 0.1, 0.01, 0.3, 0.05]),
        1e-2,
    ),
    "100-steps-x12": (lambda: jc_generator(JCParams(delta=5.0)), np.linspace(0.0, 3.0, 13), 2.5e-3),
}


class TestIntervalDivisibility:
    @pytest.mark.parametrize("name", sorted(DIVISIBILITY_CASES))
    def test_matches_per_interval_loop(self, name):
        make_gen, grid, h = DIVISIBILITY_CASES[name]
        gen = make_gen()
        report = divisibility_report(gen, grid, h=h)
        expected = per_interval_report(gen, grid, h=h)
        assert [(v.t_start, v.t_end) for v in report.intervals] == list(
            zip(grid[:-1], grid[1:])
        )
        assert [v.is_cp for v in report.intervals] == [ok for ok, _ in expected]
        assert [v.least_choi_eigenvalue for v in report.intervals] == [x for _, x in expected]

    def test_failure_names_its_interval(self):
        class RateBlowUp(NumericalError):
            def __init__(self, t, why):
                super().__init__(t, why)

        def rate(t):
            t = np.asarray(t, dtype=float)
            if np.any(t > 0.3):
                raise RateBlowUp(float(np.max(t)), "singular")
            return np.ones_like(t)

        gen = GeneratorSpec(2, np.zeros((2, 2)), [(SIGMA_MINUS, rate)])
        # Five intervals of 10 steps.
        grid = 0.125 * np.arange(6)
        with pytest.raises(RateBlowUp, match=r"^interval 2 \[0\.25, 0\.375\]: "):
            divisibility_report(gen, grid, h=0.0125)

    def test_blow_up_names_its_interval(self):
        # The step bound refuses the first stage time past 0.3, in interval 2.
        rate = lambda t: np.where(np.asarray(t) > 0.3, -1e15, 1.0)
        gen = GeneratorSpec(2, np.zeros((2, 2)), [(SIGMA_MINUS, rate)])
        grid = 0.125 * np.arange(6)
        with pytest.raises(
            InvariantViolation,
            match=r"^interval 2 \[0\.25, 0\.375\]: step 0\.00625 cannot resolve the generator "
                  r"at t=0\.303125: h\*\|\|K\|\| = 6\.25e\+12 > 1$",
        ):
            divisibility_report(gen, grid, h=0.00625)

    def test_blow_up_in_a_later_block_names_its_first_time(self):
        # 2000 qubit steps in blocks of 1024 at rate -50, within the step
        # bound: the maps are first non-finite at step 1421, in the second block.
        gen = constant_generator(np.zeros((2, 2)), [(SIGMA_MINUS, -50.0)])
        message = "propagator has non-finite entries at t=14.21"
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            propagator_between(gen, 0.0, 20.0, 1e-2)
        with pytest.raises(InvariantViolation,
                           match=f"^interval 0 \\[0\\.0, 20\\.0\\]: {re.escape(message)}$"):
            divisibility_report(gen, [0.0, 20.0], h=1e-2)

    def test_bound_on_one_step_intervals_names_its_first_time(self, monkeypatch):
        # 300 one-step intervals, more than STEP_BLOCK: the step bound names
        # the first stage time past 2.001, the midpoint of the interval from
        # t = 2, and no interval is scanned again. Within the bound the maps
        # stay finite: a step map's norm is at most e.
        import nmflow.dynamics

        scanned = []
        running = nmflow.dynamics._running_maps
        monkeypatch.setattr(nmflow.dynamics, "_running_maps",
                            lambda c, t0, h, n: scanned.append(t0) or running(c, t0, h, n))
        rate = lambda t: np.where(np.asarray(t) > 2.001, -1e200, 1.0)
        gen = GeneratorSpec(2, np.zeros((2, 2)), [(SIGMA_MINUS, rate)])
        message = ("interval 200 [2.0, 2.0100000000000002]: step 0.01 cannot resolve the "
                   "generator at t=2.005: h*||K|| = 1e+198 > 1")
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            divisibility_report(gen, 1e-2 * np.arange(301), h=1e-2)
        assert scanned == []

    def test_equal_intervals_get_equal_step_counts(self):
        # span / h rounds to just above 20 on some of these intervals.
        n, step = _substeps(np.diff(np.linspace(0.0, 12.0, 601)), 1e-3)
        assert np.all(n == 20)
        assert np.max(np.abs(step - 1e-3)) < 1e-15

    def test_first_stage_is_k_itself_to_the_bit(self):
        # The stage sum starts from k1 = K, as the product K @ I would give it:
        # no -0.0 entry of K may reach an increment.
        rng = np.random.default_rng(5)
        ks = rng.standard_normal((2 * 40 + 1, 4, 4))
        ks[rng.random(ks.shape) < 0.3] = -0.0

        class Stack:
            gen = GeneratorSpec(2, np.zeros((2, 2)), [])

            def matrices(self, times):
                return ks

        h = 2e-2
        got = _rk4_increments(Stack(), np.zeros(2 * 40 + 1), h)
        ka, km, kb = ks[:-1:2], ks[1::2], ks[2::2]
        eye = np.eye(4)
        k1 = ka @ eye
        k2 = km @ (eye + 0.5 * h * k1)
        k3 = km @ (eye + 0.5 * h * k2)
        k4 = kb @ (eye + h * k3)
        expected = (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (h / 6.0)
        assert np.signbit(ka[ka == 0.0]).any()
        assert got.tobytes() == expected.tobytes()
        assert not np.signbit(got[got == 0.0]).any()

    def test_one_compiled_generator_per_report(self, monkeypatch):
        import nmflow.dynamics

        built = []

        class Counted(nmflow.dynamics._CompiledGenerator):
            def __init__(self, gen):
                built.append(gen)
                super().__init__(gen)

        monkeypatch.setattr(nmflow.dynamics, "_CompiledGenerator", Counted)
        report = divisibility_report(jc8(), np.linspace(0.0, 6.0, 61), h=1e-3)
        assert len(report.intervals) == 60
        assert len(built) == 1


class TestPropagatorMemory:
    def test_peak_does_not_grow_with_the_step_count(self):
        gen = random_d4_generator()
        tracemalloc.start()
        try:
            p = propagator_between(gen, 0.0, 20.0, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.shape == (16, 16)
        # All 2 x 10^4 + 1 intermediate maps of 256 complex entries take 82 MB.
        assert peak < 8e6


def oracle_rates(gen, t):
    """canonical_rates of the generator at time t, from its operators and rates."""
    return canonical_rates(
        gen.hamiltonian,
        [op for op, _ in gen.channels],
        [float(rate(t)) if callable(rate) else rate for _, rate in gen.channels],
    )


def write_generator_file(path, hamiltonian, channels):
    """Generator file in the custom-file JSON schema."""
    def matrix(m):
        return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}

    path.write_text(json.dumps({
        "dim": hamiltonian.shape[0],
        "hamiltonian": matrix(hamiltonian),
        "channels": [{"operator": matrix(op), "rate": rate} for op, rate in channels],
    }))
    return path


class TestCanonicalRateOracle:
    """divisibility_report against the generator-level CP-divisibility test on
    intervals where every canonical rate keeps one sign."""

    def check(self, gen, grid, h):
        """(report, number of intervals whose canonical rates are all >= 0,
        number whose lowest canonical rate is < 0 throughout)."""
        report = divisibility_report(gen, grid, h=h)
        divisible = not_divisible = 0
        for v in report.intervals:
            lowest = np.array([
                oracle_rates(gen, t)[0] for t in np.linspace(v.t_start, v.t_end, 50)
            ])
            if np.all(lowest >= -1e-12):
                assert v.is_cp, (v.t_start, v.t_end, v.least_choi_eigenvalue)
                divisible += 1
            elif np.all(lowest < 0.0):
                assert not v.is_cp, (v.t_start, v.t_end, v.least_choi_eigenvalue)
                not_divisible += 1
        return report, divisible, not_divisible

    def test_semigroup(self):
        _, divisible, _ = self.check(semigroup_generator(1.0), np.linspace(0.0, 3.0, 13), 1e-3)
        assert divisible == 12

    def test_jc_detuned(self):
        params = JCParams(delta=5.0)
        gen = jc_generator(params)
        _, divisible, not_divisible = self.check(gen, np.linspace(0.0, 6.0, 61), 5e-3)
        assert divisible >= 50
        assert not_divisible >= 3
        # The jc rate is the one nonzero canonical rate.
        for t in (0.5, 2.0, 4.0):
            expected = sorted([jc_rate(params, t), 0.0, 0.0])
            assert np.allclose(oracle_rates(gen, t), expected, atol=1e-12)

    def test_non_orthogonal_channels_with_a_negative_listed_rate(self, tmp_path):
        # Jump operators sigma_x, (sigma_x + sigma_z)/sqrt(2), sigma_z at rates
        # 1, -0.2, 1: a negative listed rate, canonical rates 0, 1.6 and 2.
        ops = [SIGMA_X, (SIGMA_X + SIGMA_Z) / np.sqrt(2.0), SIGMA_Z]
        path = write_generator_file(
            tmp_path / "gen.json", 0.3 * SIGMA_Z, list(zip(ops, [1.0, -0.2, 1.0]))
        )
        gen = load_custom_generator(path)
        assert np.allclose(oracle_rates(gen, 0.0), [0.0, 1.6, 2.0], atol=1e-12)
        report, divisible, _ = self.check(gen, np.linspace(0.0, 2.0, 21), 1e-3)
        assert report.divisible
        assert divisible == 20


class TestOperatorChecks:
    """A callable operator is checked at every stage time; the first offending
    time raises. Stage times on this grid are multiples of 1/16."""

    grid = 0.125 * np.arange(9)

    def test_hamiltonian_not_hermitian_at_a_time(self):
        ham = lambda t: SIGMA_Z + (1j * SIGMA_X if t > 0.3 else 0.0)
        gen = GeneratorSpec(2, ham, [(SIGMA_MINUS, 1.0)])
        with pytest.raises(
            ValueError, match=r"^hamiltonian\(t=0\.3125\) not Hermitian: defect 2\.000e\+00$"
        ):
            propagator_grid(gen, self.grid)

    def test_jump_operator_of_the_wrong_dimension_at_a_time(self):
        op = lambda t: SIGMA_MINUS if t < 0.3 else np.eye(3)
        gen = GeneratorSpec(2, np.zeros((2, 2)), [(op, 1.0)])
        with pytest.raises(
            ValueError, match=r"^jump operator at t=0\.3125 has dimension 3, expected 2$"
        ):
            propagator_grid(gen, self.grid)

    def test_the_earlier_time_wins_across_terms(self):
        # The Hamiltonian is the first term, but its offence comes later.
        ham = lambda t: SIGMA_Z + (1j * SIGMA_X if t > 0.4 else 0.0)
        op = lambda t: SIGMA_MINUS if t < 0.2 else np.eye(3)
        gen = GeneratorSpec(2, ham, [(op, 1.0)])
        with pytest.raises(ValueError, match=r"^jump operator at t=0\.25 has dimension 3"):
            propagator_grid(gen, self.grid)

    def test_non_finite_operator_entry(self):
        op = lambda t: SIGMA_MINUS * (np.nan if t > 0.3 else 1.0)
        gen = GeneratorSpec(2, np.zeros((2, 2)), [(op, 1.0)])
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            propagator_grid(gen, self.grid)


class TestRateEvaluation:
    def test_vectorized_rate_failure_propagates_at_once(self):
        calls = []

        def rate(t):
            calls.append(np.ndim(t))
            raise NumericalError("rate is singular")

        gen = GeneratorSpec(2, np.zeros((2, 2)), [(SIGMA_MINUS, rate)])
        with pytest.raises(NumericalError, match="singular"):
            propagator_grid(gen, np.linspace(0.0, 1.0, 11))
        assert calls == [1]

    def test_non_finite_rate_names_the_first_stage_time(self):
        # Stage times on this grid are multiples of 1/16.
        rate = lambda t: np.where(t < 0.3, 1.0, np.inf)
        gen = GeneratorSpec(2, np.zeros((2, 2)), [(SIGMA_MINUS, rate)])
        with pytest.raises(ValueError, match=r"^non-finite rate at t=0\.3125$"):
            propagator_grid(gen, 0.125 * np.arange(9))

    def test_scalar_only_rate_is_evaluated_pointwise(self):
        gen = GeneratorSpec(2, np.zeros((2, 2)), [(SIGMA_MINUS, lambda t: float(t))])
        ref = GeneratorSpec(2, np.zeros((2, 2)), [(SIGMA_MINUS, lambda t: t)])
        grid = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(propagator_grid(gen, grid), propagator_grid(ref, grid))


class TestContractionAndMonotonicity:
    def test_cp_maps_contract_trace_distance(self):
        rng_seed = 0
        combos = 0
        for delta in (0.0, 5.0):
            gen = jc_generator(JCParams(delta=delta))
            grid = np.linspace(0.0, 5.0, 501)
            phis = propagator_grid(gen, grid)
            for k in (50, 200, 450):
                p = phis[k]
                for _ in range(10):
                    r1 = random_mixed_state(2, rng_seed, worker=0)
                    r2 = random_pure_state(2, rng_seed, worker=1)
                    rng_seed += 1
                    before = trace_distance(r1, r2)
                    after = trace_distance(apply_map(p, r1), apply_map(p, r2))
                    assert after <= before + 1e-9
                    combos += 1
        assert combos == 60

    def test_semigroup_trace_distance_is_monotone(self):
        gen = semigroup_generator(1.0)
        grid = np.arange(0.0, 3.0 + 1e-12, 1e-3)
        for seed in (1, 2, 3):
            s1 = evolve_state(gen, random_mixed_state(2, seed, worker=0), grid)
            s2 = evolve_state(gen, random_pure_state(2, seed, worker=1), grid)
            d = np.array([trace_distance(a, b) for a, b in zip(s1, s2)])
            assert np.all(np.diff(d) <= 1e-9)
