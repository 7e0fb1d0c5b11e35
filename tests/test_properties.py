"""Property tests over random qubit pairs and jc detunings.

Examples are derandomized and no example database is kept, so every run
checks the same cases.
"""
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import apply_map, pair_value

import nmflow.measure
from nmflow.dynamics import GeneratorSpec, divisibility_report, propagator_between, propagator_grid
from nmflow.measure import (
    _direction_pair,
    _directions,
    _growth_steps,
    _pair_operator,
    _pair_values,
    canonical_pairs,
    growth_intervals,
    make_time_grid,
    n_for_pair,
    trajectory,
)
from nmflow.models import JCParams, jc_generator
from nmflow.states import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    StatePair,
    qubit_from_bloch,
    trace_distance,
)

HORIZON = 10.0
STEP = 1e-3
PROPERTY_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@st.composite
def qubit_states(draw):
    """Pure (on the Bloch sphere) or mixed (inside it) qubit states."""
    direction = np.array(
        draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
            lambda v: np.linalg.norm(v) > 1e-3))
    )
    pure = draw(st.booleans())
    radius = 1.0 if pure else draw(st.floats(0.0, 0.999))
    return qubit_from_bloch(*(radius * direction / np.linalg.norm(direction)))


detunings = st.floats(0.0, 10.0)


def flow_for(delta):
    times = make_time_grid(HORIZON, STEP)
    return propagator_grid(jc_generator(JCParams(delta=delta)), times), times


@PROPERTY_SETTINGS
@given(rho1=qubit_states(), rho2=qubit_states(), delta=detunings)
def test_swapping_the_pair_leaves_n_exactly_unchanged(rho1, rho2, delta):
    flow, times = flow_for(delta)
    a = n_for_pair(flow, StatePair(rho1, rho2), times)
    b = n_for_pair(flow, StatePair(rho2, rho1), times)
    assert a.n_value == b.n_value
    assert [(iv.a, iv.b) for iv in a.intervals] == [(iv.a, iv.b) for iv in b.intervals]


@PROPERTY_SETTINGS
@given(rho1=qubit_states(), rho2=qubit_states(), delta=detunings)
def test_interval_sum_equals_quadrature_of_positive_sigma(rho1, rho2, delta):
    flow, times = flow_for(delta)
    traj = trajectory(flow, StatePair(rho1, rho2), times)
    total = sum(iv.contribution for iv in growth_intervals(traj))
    quad = float(np.sum(np.maximum(traj.sigma_values, 0.0)) * traj.step)
    assert abs(total - quad) < 1e-6


# Both checks hold to rounding; 1e-12 leaves room for the summation order.
N_TOL = 1e-12


@PROPERTY_SETTINGS
@given(rho1=qubit_states(), rho2=qubit_states(), delta=detunings, c=st.floats(0.1, 1.0))
def test_n_is_homogeneous_in_the_pair_difference(rho1, rho2, delta, c):
    # rho1 - ((1 - c) rho1 + c rho2) = c (rho1 - rho2): D and its steps scale
    # by c. The rise floor 1e-13 does not: a step that rises by more than
    # 1e-13 at full scale but not at c moves c N by at most 1e-13.
    flow, times = flow_for(delta)
    mixed = DensityMatrix((1.0 - c) * rho1.matrix + c * rho2.matrix)
    full = n_for_pair(flow, StatePair(rho1, rho2), times)
    scaled = n_for_pair(flow, StatePair(rho1, mixed), times)
    assert abs(scaled.n_value - c * full.n_value) <= N_TOL


@PROPERTY_SETTINGS
@given(rho1=qubit_states(), rho2=qubit_states(), delta=detunings)
def test_n_of_the_scaled_jordan_pair_is_n_over_the_initial_distance(rho1, rho2, delta):
    # (rho1 - rho2) / D(0) has trace norm 2: its positive and negative parts
    # are the orthogonal pair that a search reports for a sampled direction.
    d0 = trace_distance(rho1, rho2)
    assume(d0 > 0.0)
    flow, times = flow_for(delta)
    jordan = _direction_pair((rho1.matrix - rho2.matrix) / d0, "jordan")
    full = n_for_pair(flow, StatePair(rho1, rho2), times)
    assert abs(n_for_pair(flow, jordan, times).n_value - full.n_value / d0) <= N_TOL


@PROPERTY_SETTINGS
@given(rho1=qubit_states(), rho2=qubit_states(), delta=detunings,
       phi=st.floats(0.0, 2.0 * np.pi))
def test_n_is_invariant_under_a_unitary_commuting_with_the_generator(rho1, rho2, delta, phi):
    # U = diag(1, e^{i phi}) maps sigma_minus to a phase times itself, so it
    # commutes with the jc generator (H = 0, one sigma_minus channel).
    flow, times = flow_for(delta)
    u = np.diag([1.0, np.exp(1j * phi)])
    rotated = StatePair(*(DensityMatrix(u @ rho.matrix @ u.conj().T) for rho in (rho1, rho2)))
    a = n_for_pair(flow, StatePair(rho1, rho2), times)
    b = n_for_pair(flow, rotated, times)
    assert abs(a.n_value - b.n_value) <= N_TOL


# A map whose least Choi eigenvalue is -eps can stretch D by O(d eps), so the
# default CP tolerance 1e-7 would admit growth far beyond 1e-12.
CONTRACTION_CP_TOL = 1e-13


@PROPERTY_SETTINGS
@given(rho1=qubit_states(), rho2=qubit_states(), delta=detunings,
       gamma0=st.floats(0.01, 0.4), start=st.floats(0.0, 8.0), length=st.floats(0.1, 3.0))
def test_cp_interval_maps_contract_the_trace_distance(rho1, rho2, delta, gamma0, start,
                                                       length):
    gen = jc_generator(JCParams(gamma0=gamma0, delta=delta))
    grid = start + length * np.arange(5) / 4.0
    report = divisibility_report(gen, grid, tol=CONTRACTION_CP_TOL, h=STEP)
    before = trace_distance(rho1, rho2)
    for v in report.intervals:
        if v.is_cp:
            p = propagator_between(gen, v.t_start, v.t_end, STEP)
            assert trace_distance(apply_map(p, rho1), apply_map(p, rho2)) <= before + 1e-12


# A rate a + b cos(w t + phi) per channel; b > a makes it change sign.
RATE_PARAMETERS = st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 1.5), st.floats(0.5, 6.0),
                            st.floats(0.0, 2.0 * np.pi))
WINDOW_HORIZON = 4.0
# Fixed before the windowed search was written: the windows hold every rising
# step of the full evaluation, so values agree to the rounding of D
# (PAIR_VALUE_TOL of test_measure.py) and interval ends, grid times, exactly.
PAIR_VALUE_TOL = 1e-14


def oscillating_qubit_generator(hx, hz, rates):
    """Qubit generator H = hx sigma_x + hz sigma_z with sigma_-, sigma_+ and
    sigma_z channels at rates a + b cos(w t + phi)."""
    ops = (SIGMA_MINUS, SIGMA_MINUS.T, SIGMA_Z)
    channels = [(op, lambda t, a=a, b=b, w=w, phi=phi: a + b * np.cos(w * np.asarray(t) + phi))
                for op, (a, b, w, phi) in zip(ops, rates)]
    return GeneratorSpec(2, hx * SIGMA_X + hz * SIGMA_Z, channels)


def joined_pair_values(flow, diffs, times):
    """Values, errors and intervals (rows indexing pairs) of _pair_values."""
    values, errors, found = [], [], []
    d, op = _pair_operator(flow, times.size)
    for start, _, vals, errs, (rows, a, b, c) in _pair_values(
        op, d, len(diffs), lambda i, j: diffs[i:j], times
    ):
        values.append(vals)
        errors += errs
        found.append(np.column_stack([rows + start, a, b, c]))
    return np.concatenate(values), errors, np.concatenate(found)


@PROPERTY_SETTINGS
@given(hx=st.floats(-2.0, 2.0), hz=st.floats(-2.0, 2.0),
       rates=st.tuples(RATE_PARAMETERS, RATE_PARAMETERS, RATE_PARAMETERS),
       seed=st.integers(0, 2**64 - 1))
# 31% of the steps flagged; 6 of the 24 pairs leave D <= 1 and fail, 11 score.
@example(hx=-0.83, hz=-0.4, rates=((0.97, 0.11, 4.8, 2.99), (0.17, 0.55, 2.59, 1.53),
                                   (0.33, 0.63, 5.79, 2.88)), seed=5)
def test_windowed_pair_values_equal_the_full_evaluation(hx, hz, rates, seed):
    times = make_time_grid(WINDOW_HORIZON, 1e-2)
    flow = propagator_grid(oscillating_qubit_generator(hx, hz, rates), times)
    # The flags against a stacked eigensolve of dQ_k: no step where some Bloch
    # length can grow is skipped, and a skipped step keeps at least half its
    # margin of 1e-13 of the scale (the other half covers the eigensolve's rounding).
    _, op = _pair_operator(flow, times.size)
    m = op[1:].transpose(2, 0, 1)
    q = m.swapaxes(1, 2) @ m
    top = np.linalg.eigvalsh(q[1:] - q[:-1])[:, -1]
    tr = np.trace(q, axis1=1, axis2=2)
    flags = _growth_steps(op)
    assert not np.any((top > 0.0) & ~flags)
    assert np.all(top[~flags] <= -0.5e-13 * np.maximum(tr[1:], tr[:-1])[~flags])
    pairs = canonical_pairs(2) + [_direction_pair(x, "sample") for x in _directions(2, seed, 0, 22)]
    diffs = np.stack([p.rho1.matrix - p.rho2.matrix for p in pairs])
    values, errors, found = joined_pair_values(flow, diffs, times)
    every_column = lambda op, d, t: np.arange(t)
    with mock.patch.object(nmflow.measure, "_evaluated_columns", every_column):
        _, full_errors, _ = joined_pair_values(flow, diffs, times)
    assert errors == full_errors
    for i, pair in enumerate(pairs):
        n, intervals = pair_value(flow, pair, times)
        if n is None:
            assert errors[i] == intervals + (
                " (step too coarse, or the generator is not positivity preserving)")
            assert not np.any(found[:, 0] == i)
            continue
        assert abs(values[i] - n) <= PAIR_VALUE_TOL
        got = found[found[:, 0] == i, 1:]
        assert got.shape == (len(intervals), 3)
        if intervals:
            assert np.array_equal(got[:, :2], [iv[:2] for iv in intervals])
            assert np.max(np.abs(got[:, 2] - [iv[2] for iv in intervals])) <= PAIR_VALUE_TOL
