"""Property tests over random qubit pairs and jc detunings.

Examples are derandomized and no example database is kept, so every run
checks the same cases.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nmflow.dynamics import divisibility_report, propagator_between, propagator_grid
from nmflow.measure import growth_intervals, make_time_grid, n_for_pair, trajectory
from nmflow.models import JCParams, jc_generator
from nmflow.states import DensityMatrix, StatePair, qubit_from_bloch, trace_distance

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
    # rho1 - ((1 - c) rho1 + c rho2) = c (rho1 - rho2): D and sigma scale by
    # c, and so does the default threshold, relative to the peak of sigma.
    flow, times = flow_for(delta)
    mixed = DensityMatrix((1.0 - c) * rho1.matrix + c * rho2.matrix)
    full = n_for_pair(flow, StatePair(rho1, rho2), times)
    scaled = n_for_pair(flow, StatePair(rho1, mixed), times)
    assert abs(scaled.n_value - c * full.n_value) <= N_TOL


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
            assert trace_distance(p.apply(rho1), p.apply(rho2)) <= before + 1e-12
