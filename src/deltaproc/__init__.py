"""Minimal-time bang-bang control of piecewise-linear models fitted from data.

The pipeline: ingest or generate labeled trajectory records, fit a
piecewise-constant linear model on a time partition, solve each piece's
minimal-time transfer by the maximum principle, and refine the partition
until successive totals agree within a stopping tolerance.
"""

from .dynamics import (
    ControlBounds,
    ControlSchedule,
    LinearPiece,
    PiecewiseLinearModel,
    TimePartition,
    Trajectory,
    evaluate_rhs,
    integrate,
    simulate_model,
)
from .errors import (
    CoverageError,
    DeltaProcError,
    DimensionMismatchError,
    DivergenceError,
    GenerationError,
    InfeasibilityReport,
    InfeasibleTransferError,
    RescalingDomainError,
    ShootingError,
    SingularFitError,
    TrajectoryParseError,
    TrivialCostateError,
)
from .fitting import (
    TrajectoryRecord,
    estimate_derivatives,
    fit_model,
    fit_piece_general,
    ingest_trajectories,
    write_trajectories,
)
from .pontryagin import (
    AdjointState,
    PieceSolution,
    adjoint_solve,
    extremal_control,
    hamiltonian,
    min_time_transfer,
)
from .procedure import (
    DeltaConfig,
    DeltaResult,
    PartitionSolution,
    refine_partition,
    run_delta,
    solve_partition,
)
from .reduction import (
    RescaledTrajectory,
    augment_initial_state,
    augment_state,
    map_solution_back,
    rescale_time,
)
from .reference import (
    BENCHMARK_CASES,
    ReferenceProblem,
    brute_force_min_time,
    dense_reference_record,
    example1,
    sample_reference,
)

__version__ = "0.1.0"
