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
    measurement_error,
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
    FrequencyRangeError,
    NeighborOrder,
    QubitId,
    QubitPhysical,
    Role,
    coupling_strength,
    load_device,
    neighbors,
    relaxation_rate,
    serialize_device,
)
from .dynamics import (
    FieldTrajectory,
    PoleProximityError,
    PulseShape,
    StepSizeError,
    dispersive_shift,
    field_pair,
    max_photon,
    residual_photon,
    solve_field,
    stark_trajectory,
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
    evaluate_cost,
    half_snr_time,
    mist_penalty,
    mist_threshold,
    relaxation_error,
    separation_error,
    snr,
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
