"""Markovian-embedding simulator for non-Markovian open quantum systems.

Builds embedding models (direct, cascade, general M-bath), integrates the
joint monitored dynamics and the equivalent coupled block equations, and
verifies their agreement with independent oracles.
"""

from .linalg import (
    SubsystemDims,
    embed,
    fro_dist,
    partial_trace,
    psd_check,
)
from .model import (
    CompoundBath,
    EmbeddingModel,
    TimedOperator,
    cascade_embedding,
    direct_embedding,
    validate,
)
from .generators import (
    BlockState,
    JointState,
    block_plan,
    block_qme_rhs,
    gksl_rhs,
    joint_plan,
    joint_sme_drift,
    joint_sme_meas,
)
from .integrators import (
    SimConfig,
    StepSizeError,
    TrajectoryRecord,
    em_step_blocks,
    em_step_joint,
    rk4_step_qme,
    simulate_trajectory,
    solve_qme,
)
from .verify import (
    EnsembleSummary,
    blocks_from_joint,
    closed_system_oracle,
    crosscheck_paths,
    ensemble_average,
    joint_from_blocks,
)

__all__ = [
    "SubsystemDims", "embed", "partial_trace", "psd_check", "fro_dist",
    "TimedOperator", "CompoundBath", "EmbeddingModel",
    "cascade_embedding", "direct_embedding", "validate",
    "BlockState", "JointState", "gksl_rhs", "joint_sme_drift", "joint_sme_meas",
    "block_qme_rhs", "block_plan", "joint_plan",
    "SimConfig", "StepSizeError", "TrajectoryRecord", "em_step_joint",
    "em_step_blocks", "rk4_step_qme", "simulate_trajectory", "solve_qme",
    "blocks_from_joint", "joint_from_blocks", "crosscheck_paths",
    "closed_system_oracle", "ensemble_average", "EnsembleSummary",
]

__version__ = "0.1.0"
