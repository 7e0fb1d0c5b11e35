import numpy as np
import pytest

from oracles import (
    hilbert_schmidt_sample,
    random_mixed_state,
    random_pure_state,
    random_states,
    seeded_state,
)

from nmflow.states import (
    DensityMatrix,
    StatePair,
    bloch_from_qubit,
    check_states,
    qubit_from_bloch,
    read_state_text,
    trace_distance,
    write_state_text,
)

EXCITED = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
GROUND = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
MIXED = DensityMatrix(0.5 * np.eye(2, dtype=complex))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        m = np.diag([1.0, 0.0]).astype(complex)
        m[0, 1] = bad
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            DensityMatrix(m)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_rejects_non_square_matrix(self, shape):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape"):
            DensityMatrix(np.zeros(shape, dtype=complex))

    def test_pair_dimension_mismatch(self):
        rho3 = DensityMatrix(np.eye(3, dtype=complex) / 3)
        with pytest.raises(ValueError, match="mismatch"):
            StatePair(EXCITED, rho3)


class TestTraceDistance:
    def test_identical_states(self):
        assert trace_distance(EXCITED, EXCITED) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance(EXCITED, GROUND) == pytest.approx(1.0, abs=1e-12)

    def test_excited_vs_maximally_mixed(self):
        # Difference diag(1/2, -1/2): eigen oracle gives D = 1/2.
        assert trace_distance(EXCITED, MIXED) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        rho3 = DensityMatrix(np.eye(3, dtype=complex) / 3)
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(EXCITED, rho3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        # A raw matrix is checked for finite entries once, through the
        # eigenvalue call on the difference.
        m = np.diag([1.0, 0.0]).astype(complex)
        m[1, 0] = bad
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            trace_distance(m, EXCITED)
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            trace_distance(EXCITED.matrix, m)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape"):
            trace_distance(np.zeros((2, 3)), EXCITED)

    def test_orthogonal_pairs_saturate_upper_bound(self):
        for seed in range(25):
            rho = random_pure_state(2, seed)
            x, y, z = bloch_from_qubit(rho)
            anti = qubit_from_bloch(-x, -y, -z)
            assert trace_distance(rho, anti) == pytest.approx(1.0, abs=1e-10)

    def test_metric_axioms_on_random_triples(self):
        for seed in range(1000):
            dim = 2 + seed % 2
            r1 = random_mixed_state(dim, seed, worker=0)
            r2 = random_mixed_state(dim, seed, worker=1)
            r3 = random_pure_state(dim, seed, worker=2)
            d12 = trace_distance(r1, r2)
            assert trace_distance(r2, r1) == pytest.approx(d12, abs=1e-12)
            assert 0.0 <= d12 <= 1.0
            assert trace_distance(r1, r3) <= d12 + trace_distance(r2, r3) + 1e-10
        assert trace_distance(r1, r1) == 0.0

    def test_zero_only_for_equal_states(self):
        r1 = random_mixed_state(2, 11)
        r2 = random_mixed_state(2, 12)
        assert np.max(np.abs(r1.matrix - r2.matrix)) > 1e-10
        assert trace_distance(r1, r2) > 0.0


class TestRandomStates:
    def test_pure_state_is_rank_one(self):
        for seed in range(50):
            rho = random_pure_state(3, seed)
            purity = np.trace(rho.matrix @ rho.matrix).real
            assert purity == pytest.approx(1.0, abs=1e-12)

    def test_determinism(self):
        a = random_pure_state(4, 123)
        b = random_pure_state(4, 123)
        assert np.array_equal(a.matrix, b.matrix)
        c = random_mixed_state(4, 123)
        d = random_mixed_state(4, 123)
        assert np.array_equal(c.matrix, d.matrix)
        assert not np.array_equal(a.matrix, random_pure_state(4, 124).matrix)

    def test_worker_streams_differ(self):
        a = random_pure_state(2, 5, worker=0)
        b = random_pure_state(2, 5, worker=1)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_dim_below_two_rejected(self):
        with pytest.raises(ValueError):
            random_pure_state(1, 0)
        with pytest.raises(ValueError):
            random_mixed_state(1, 0)

    def test_workers_and_mixed_flags_must_match_in_length(self):
        with pytest.raises(ValueError, match="is shorter than"):
            random_states(2, [0, 0, 0], [0, 1, 2], [True])
        with pytest.raises(ValueError, match="is longer than"):
            random_states(2, [0], [0], [True, False])

    @pytest.mark.parametrize("seed", [7.9, 7.0, np.float64(7.0), "7"])
    def test_seed_that_is_not_an_integer_rejected(self, seed):
        with pytest.raises(ValueError, match="must be integers"):
            random_pure_state(2, seed)
        with pytest.raises(ValueError, match="must be integers"):
            random_mixed_state(2, 0, worker=seed)

    def test_numpy_integer_seed_is_the_python_seed(self):
        a = random_pure_state(3, np.int64(7), worker=np.uint32(2)).matrix
        assert np.array_equal(a, random_pure_state(3, 7, worker=2).matrix)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_stacked_draws_equal_one_state_draws_bit_for_bit(self, dim):
        # 2**40 + 5 takes two 32-bit words of SeedSequence entropy.
        for seed in (0, 9, 2**40 + 5):
            workers = list(range(40))
            for mixed in ([False] * 40, [True] * 40, [w % 4 == 3 for w in workers]):
                stack = random_states(dim, [seed] * 40, workers, mixed)
                for k, (w, m) in enumerate(zip(workers, mixed)):
                    assert np.array_equal(stack[k], seeded_state(dim, seed, w, m))
            for m in (False, True):
                for worker in (None, 3):
                    one = random_states(dim, [seed], [worker], [m])
                    assert one.shape == (1, dim, dim)
                    assert np.array_equal(one[0], seeded_state(dim, seed, worker, m))

    # The bulk tests draw the states of random_pure_state(2, seed) and
    # random_mixed_state(2, seed), one stack of 10^5 seeds at a time, and
    # check them as those constructors do, by one check_states on the stack.

    def test_generators_respect_invariants_bulk(self):
        # The state rules run on every draw, so passing them is the
        # assertion. 10^5 draws split across both ensembles.
        n = 50_000
        seeds = [*range(9_000_000, 9_000_000 + n), *range(9_100_000, 9_100_000 + n)]
        check_states(random_states(2, seeds, [None] * (2 * n), [False] * n + [True] * n))

    def test_pure_population_mean_is_unbiased(self):
        # Unitary invariance forces <0|rho|0> to average 1/d.
        n = 100_000
        rho = random_states(2, range(31_000_000, 31_000_000 + n), [None] * n, [False] * n)
        check_states(rho)
        assert rho[:, 0, 0].real.mean() == pytest.approx(0.5, abs=0.01)

    def test_mixed_purity_matches_independent_sampler(self):
        n = 100_000
        rho = random_states(2, range(47_000_000, 47_000_000 + n), [None] * n, [True] * n)
        check_states(rho)
        ours = np.einsum("kij,kji->k", rho, rho).real.mean()
        rng = np.random.default_rng(2024)
        theirs = 0.0
        for _ in range(n):
            rho = hilbert_schmidt_sample(rng, 2)
            theirs += np.trace(rho @ rho).real
        theirs /= n
        assert ours == pytest.approx(theirs, rel=0.01)


class TestBloch:
    def test_maximally_mixed(self):
        assert bloch_from_qubit(MIXED) == pytest.approx((0.0, 0.0, 0.0))

    def test_excited_state(self):
        assert bloch_from_qubit(EXCITED) == pytest.approx((0.0, 0.0, 1.0))

    def test_sigma_x_eigenstate(self):
        plus_x = DensityMatrix(0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
        assert bloch_from_qubit(plus_x) == pytest.approx((1.0, 0.0, 0.0))

    def test_requires_qubit(self):
        with pytest.raises(ValueError, match="dim 2"):
            bloch_from_qubit(DensityMatrix(np.eye(3, dtype=complex) / 3))

    def test_round_trip(self):
        rho = random_mixed_state(2, 3)
        x, y, z = bloch_from_qubit(rho)
        back = qubit_from_bloch(x, y, z)
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-14


class TestSerialization:
    def test_round_trip_is_exact(self):
        for seed in range(10):
            rho = random_mixed_state(3, seed)
            again = read_state_text(write_state_text(rho))
            assert np.array_equal(again.matrix, rho.matrix)

    def test_header_line(self):
        text = write_state_text(MIXED)
        assert text.splitlines()[0] == "2"
        assert len(text.splitlines()) == 5

    def test_bad_entry_reports_line(self):
        text = "2\n1,0\n0,0\n0,oops\n0,0\n"
        with pytest.raises(ValueError, match="line 4"):
            read_state_text(text)

    def test_wrong_entry_count(self):
        with pytest.raises(ValueError, match="entry lines"):
            read_state_text("2\n1,0\n0,0\n")

