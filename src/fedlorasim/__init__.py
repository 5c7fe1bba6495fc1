"""Memory-constrained federated LoRA fine-tuning, at desk scale.

The package provides an analytical GPU-memory model for partial low-rank
fine-tuning, a knapsack-style per-client module allocator driven by gradient
information scores, a contribution-compensated aggregation rule, and a small
float64 reference model plus simulator that exercise the whole loop on
synthetic heterogeneous clients.
"""

from fedlorasim.aggregation import (
    InvariantViolation,
    RoundWindow,
    apply_delta,
    com_agg,
    com_agg_fixed,
    fed_avg,
    zero_delta_like,
)
from fedlorasim.allocator import (
    AllocationResult,
    InfeasibleClientError,
    KnapsackInstance,
    SelectionStep,
    optimize_allocation,
)
from fedlorasim.config import ExperimentConfig, load_config
from fedlorasim.data import (
    LabeledData,
    PartitionSpec,
    SyntheticTask,
    generate,
    partition,
    split_batches,
)
from fedlorasim.memory import (
    GB,
    MB,
    VIT_CONTEXT_MB_BY_LEVEL,
    AllocationMap,
    MemoryBreakdown,
    ModelProfile,
    marginal_weight,
    naive_map,
    profile_from_config,
    reference_vit_profile,
    total_memory,
)
from fedlorasim.reporting import RunSummary, generate_report, load_metrics, summarize
from fedlorasim.scoring import (
    IGScoreRecord,
    local_ig_scores,
    update_history,
    value_function,
)
from fedlorasim.simulator import (
    GlobalState,
    baseline_allocation,
    build_clients,
    run_experiment,
    run_round,
    toy_capacity_levels,
    toy_profile,
)
from fedlorasim.toymodel import Adapters, ToyLoRANet, local_train

__version__ = "0.1.0"

__all__ = [
    "GB",
    "MB",
    "VIT_CONTEXT_MB_BY_LEVEL",
    "Adapters",
    "AllocationMap",
    "AllocationResult",
    "ExperimentConfig",
    "GlobalState",
    "IGScoreRecord",
    "InfeasibleClientError",
    "InvariantViolation",
    "KnapsackInstance",
    "LabeledData",
    "MemoryBreakdown",
    "ModelProfile",
    "PartitionSpec",
    "RoundWindow",
    "RunSummary",
    "SelectionStep",
    "SyntheticTask",
    "ToyLoRANet",
    "apply_delta",
    "baseline_allocation",
    "build_clients",
    "com_agg",
    "com_agg_fixed",
    "fed_avg",
    "generate",
    "generate_report",
    "load_config",
    "load_metrics",
    "local_ig_scores",
    "local_train",
    "marginal_weight",
    "naive_map",
    "optimize_allocation",
    "partition",
    "profile_from_config",
    "reference_vit_profile",
    "run_experiment",
    "run_round",
    "split_batches",
    "summarize",
    "total_memory",
    "toy_capacity_levels",
    "toy_profile",
    "update_history",
    "value_function",
    "zero_delta_like",
    "__version__",
]
