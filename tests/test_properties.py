"""Property tests over random qubit pairs and jc detunings.

Examples are derandomized and no example database is kept, so every run
checks the same cases.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nmflow.dynamics import propagator_grid
from nmflow.measure import growth_intervals, make_time_grid, n_for_pair, trajectory
from nmflow.models import JCParams, jc_generator
from nmflow.states import StatePair, qubit_from_bloch

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
    gen = jc_generator(JCParams(delta=delta))
    return gen, propagator_grid(gen, make_time_grid(HORIZON, STEP))


@PROPERTY_SETTINGS
@given(rho1=qubit_states(), rho2=qubit_states(), delta=detunings)
def test_swapping_the_pair_leaves_n_exactly_unchanged(rho1, rho2, delta):
    gen, flow = flow_for(delta)
    a = n_for_pair(gen, StatePair(rho1, rho2), HORIZON, STEP, flow=flow)
    b = n_for_pair(gen, StatePair(rho2, rho1), HORIZON, STEP, flow=flow)
    assert a.n_value == b.n_value
    assert [(iv.a, iv.b) for iv in a.intervals] == [(iv.a, iv.b) for iv in b.intervals]


@PROPERTY_SETTINGS
@given(rho1=qubit_states(), rho2=qubit_states(), delta=detunings)
def test_interval_sum_equals_quadrature_of_positive_sigma(rho1, rho2, delta):
    gen, flow = flow_for(delta)
    traj = trajectory(gen, StatePair(rho1, rho2), HORIZON, STEP, flow=flow)
    total = sum(iv.contribution for iv in growth_intervals(traj))
    quad = float(np.sum(np.maximum(traj.sigma_values, 0.0)) * traj.step)
    assert abs(total - quad) < 1e-6
