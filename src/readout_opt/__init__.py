"""Model-based optimization of superconducting qubit readout parameters."""

__version__ = "0.1.0"

from .benchmark import (
    BenchmarkConfig,
    BenchmarkReport,
    ErrorBudget,
    ShotRecords,
    Subset,
    cross_fidelity,
    error_budget,
    run_benchmark,
)
from .config import (
    OptimizerConfig,
    Strategy,
    build_search_grid,
    load_optimizer_config,
)
from .device import (
    DeviceConfigError,
    DeviceGraph,
    NeighborOrder,
    QubitId,
    QubitPhysical,
    Role,
    coupling_strength,
    load_device,
    neighbors,
    serialize_device,
)
from .dynamics import (
    FieldTrajectory,
    PoleProximityError,
    PulseShape,
    StepSizeError,
    dispersive_shift,
    field_pair,
    solve_field,
)
from .error_models import (
    CollisionChannel,
    CollisionDefaults,
    CollisionSpec,
    CostBreakdown,
    CostModel,
    CostWeights,
    MistParams,
    ReadoutParams,
    collision_specs,
    coupling_error,
    mist_threshold,
    separation_error,
)
from .snake import (
    InfeasibleQubitError,
    OptimizationResult,
    QubitResult,
    QubitScan,
    SearchGrid,
    optimize_device,
    optimize_qubit,
    traversal_order,
)
