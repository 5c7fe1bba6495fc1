"""The benchmark's three workloads, built as plain experiment configs.

Each workload is a list of simulator runs (one config each) plus whether a
cross-run report follows. The program sees only the configs built here; the
workload seed becomes every run's ``seed``. Capacity tiers are derived from
the toy memory profile the same way as the trend acceptance scenario: tier u
affords the last-u naive allocation plus a 2 percent margin, so every tier
binds and no client can train the full stack.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from fedlorasim.config import ExperimentConfig
from fedlorasim.memory import naive_map, total_memory
from fedlorasim.simulator import toy_profile

TIER_MARGIN = 1.02

# The trend acceptance scenario: 20 clients, L=12, H=32, r=2, 2-class shards.
_TREND_BASE = {
    "rounds": 60,
    "lr": 0.2,
    "model": {"num_blocks": 12, "hidden_size": 32, "lora_rank": 2, "input_dim": 32, "num_classes": 10},
    "data": {"samples_per_class": 250, "noise_scale": 1.0, "center_scale": 3.0},
    "partition": {"scheme": "pathological", "classes_per_client": 2},
    "clients": {"num_clients": 20, "batch_size": 32, "sampling_rate": 0.5},
}


@dataclass(frozen=True)
class Workload:
    runs: tuple[tuple[str, ExperimentConfig], ...]  # (run label, config)
    report: bool  # run generate_report over the run directories afterwards


def _with_tiers(base: dict, tier_blocks: tuple[int, ...], seed: int, strategy: str,
                aggregation: str, rounds: int | None) -> ExperimentConfig:
    d = copy.deepcopy(base)
    d.update({"seed": seed, "strategy": strategy, "aggregation": aggregation})
    if rounds is not None:
        d["rounds"] = rounds
    probe = ExperimentConfig.from_dict(d)
    profile = toy_profile(probe)
    l, b = probe.model.num_blocks, probe.clients.batch_size
    d["clients"]["capacity_levels"] = [
        int(round(TIER_MARGIN * total_memory(profile, naive_map(l, "ms", u), b).total_bytes))
        for u in tier_blocks
    ]
    return ExperimentConfig.from_dict(d)


def trend_sweep(seed: int, rounds: int | None = None) -> Workload:
    """The paper's headline comparison, four conditions plus the report.

    The realistic mix: training, IG scoring, the knapsack, and fedra_random,
    whose rejected random draws and ``ms`` fallbacks set the round tail.
    """
    conditions = (
        ("fedpilot+comagg", "fedpilot", "comagg"),
        ("fedra_random+comagg", "fedra_random", "comagg"),
        ("mh+comagg", "mh", "comagg"),
        ("fedpilot+fedavg", "fedpilot", "fedavg"),
    )
    runs = tuple(
        (label, _with_tiers(_TREND_BASE, (2, 3, 4, 6), seed, strategy, agg, rounds))
        for label, strategy, agg in conditions
    )
    return Workload(runs, report=True)


def deep_knapsack(seed: int, rounds: int | None = None) -> Workload:
    """96 blocks: each solve makes O(L^2) marginal_weight calls, so the
    allocator and the memory oracle carry most of every round.

    Five of the 20 clients take part in a round, over 60 rounds. A pass
    holds as many updates as 10 clients over 30 rounds, but twice the rounds,
    so the pooled rounds reach p95 and the tail is set by the rounds that
    drew the most high-tier clients. With 10 clients a round, 30 rounds, the
    tail spread about 0.10 across seeds, against about 0.03 in this shape.
    """
    base = copy.deepcopy(_TREND_BASE)
    base["rounds"] = 60
    base["clients"]["sampling_rate"] = 0.25
    base["model"].update({"num_blocks": 96, "hidden_size": 16})
    cfg = _with_tiers(base, (12, 24, 36, 48), seed, "fedpilot", "comagg", rounds)
    return Workload((("fedpilot+comagg", cfg),), report=False)


def wide_train(seed: int, rounds: int | None = None) -> Workload:
    """H=128 on 8000 samples: local training and evaluation dominate, and
    allocation is a cheap binary search, so allocator changes show no change."""
    base = copy.deepcopy(_TREND_BASE)
    base["rounds"] = 30
    base["model"]["hidden_size"] = 128
    base["data"]["samples_per_class"] = 1000
    cfg = _with_tiers(base, (2, 3, 4, 6), seed, "ms", "fedavg", rounds)
    return Workload((("ms+fedavg", cfg),), report=False)


BUILDERS = {"trend-sweep": trend_sweep, "deep-knapsack": deep_knapsack, "wide-train": wide_train}


def build(name: str, seed: int, rounds: int | None = None) -> Workload:
    return BUILDERS[name](seed, rounds)
