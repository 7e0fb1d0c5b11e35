"""Open-system dynamics under time-local generators and the trace-distance
measure of non-Markovianity."""

from .states import (
    DensityMatrix,
    StatePair,
    trace_distance,
    bloch_from_qubit,
    qubit_from_bloch,
)
from .linalg import hermitian_eigenvalues
from .dynamics import (
    GeneratorSpec,
    Propagator,
    apply_generator,
    evolve_state,
    flow_blocks,
    propagator_between,
    propagator_grid,
    choi_of,
    is_cp,
    divisibility_report,
)
from .models import (
    JCParams,
    SpinBathParams,
    jc_amplitude,
    jc_rate,
    jc_decay_exponent,
    jc_generator,
    jc_flow,
    spinbath_f,
    spinbath_flow,
    spinbath_trace_distance,
    spinbath_rate,
    spinbath_generator,
    semigroup_generator,
    semigroup_flow,
)
from .measure import (
    TrajectoryGrid,
    GrowthInterval,
    MeasureResult,
    SweepRecord,
    trajectory,
    trajectory_from_values,
    growth_intervals,
    n_from_trajectory,
    n_for_pair,
    search_pairs,
    sweep,
)

__version__ = "0.1.0"
