"""Entropy-regularized transport divergences, kernel losses, and flows.

The package computes blurred transport costs between weighted point clouds,
their debiased divergences, kernel discrepancies, analytic gradients in
weights and positions, and explicit-Euler particle flows that descend any of
these losses. All pairwise reductions stream over tiles with a stabilized
log-sum-exp, so memory stays linear in the number of points, with one
exception: a Sinkhorn solve of at most 2048 x 2048 pairs keeps its scaled
costs, 8 bytes per pair and direction, so that each iteration skips
rebuilding them.
"""

from .costs import CostSpec, MmdKernelSpec, cost, mmd_kernel
from .engine import (
    ReductionPlan,
    ReductionStats,
    high_water,
    kernel_grad_rows,
    kernel_rows,
    last_stats,
    lse_rows,
    lse_rows_with_grad,
    reset_high_water,
    set_threads,
    soft_min,
    softmin,
)
from .errors import (
    DegenerateMeasure,
    FormatError,
    GradientUnreliable,
    InvalidInput,
    IoError,
    NumericalFailure,
    SinkdivError,
    TooLarge,
)
from .flows import FlowConfig, FlowTrajectory, run_flow, write_trajectory
from .losses import (
    LossGradient,
    LossValue,
    hausdorff_divergence,
    mmd,
    mmd_gradient,
    ot_eps,
    sinkhorn_divergence,
    sinkhorn_gradient,
)
from .measures import (
    DiscreteMeasure,
    from_arrays,
    load_csv,
    load_json,
    sample_unit_square,
    save_csv,
    save_json,
)
from .solver import (
    DualState,
    PlanDiagnostics,
    SolverParams,
    SymmetricDual,
    dual_value,
    plan_diagnostics,
    plan_matrix,
    sinkhorn,
    sinkhorn_symmetric,
)

__version__ = "0.1.0"

__all__ = [
    "CostSpec", "MmdKernelSpec", "cost", "mmd_kernel",
    "ReductionPlan", "ReductionStats", "last_stats", "high_water",
    "reset_high_water", "lse_rows", "lse_rows_with_grad", "kernel_rows",
    "kernel_grad_rows", "softmin", "soft_min", "set_threads",
    "SinkdivError", "InvalidInput", "DegenerateMeasure", "FormatError",
    "IoError", "NumericalFailure", "TooLarge", "GradientUnreliable",
    "DiscreteMeasure", "from_arrays", "load_csv", "save_csv", "load_json",
    "save_json", "sample_unit_square",
    "SolverParams", "DualState", "SymmetricDual", "PlanDiagnostics",
    "sinkhorn", "sinkhorn_symmetric", "dual_value", "plan_matrix",
    "plan_diagnostics",
    "LossValue", "LossGradient", "ot_eps", "sinkhorn_divergence",
    "hausdorff_divergence", "mmd", "sinkhorn_gradient", "mmd_gradient",
    "FlowConfig", "FlowTrajectory", "run_flow", "write_trajectory",
]
