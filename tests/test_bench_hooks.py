"""The benchmark's tracer still hooks the simulator, and unhooks it cleanly.

``bench/tracer.py`` replaces simulator attributes by name, among them the
three aggregation rules, which it records as ``aggregation.merge`` spans.
If ``run_round`` stopped looking the rules up as module globals at call
time, or a patched name went away, traced benchmark runs would silently
record no merges. This checks the hooks on a 2-round run per rule.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

import fedlorasim.allocator
import fedlorasim.memory
import fedlorasim.reporting
import fedlorasim.simulator
from fedlorasim.config import ExperimentConfig
from fedlorasim.memory import AllocationMap
from fedlorasim.simulator import run_experiment
from fedlorasim.toymodel import ToyLoRANet

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
bench_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_tracer)

OWNERS = (fedlorasim.simulator, fedlorasim.allocator, fedlorasim.memory,
          fedlorasim.reporting, ToyLoRANet, AllocationMap)
RULES = {"comagg": "com_agg", "comagg_fixed": "com_agg_fixed", "fedavg": "fed_avg"}


@pytest.mark.parametrize("aggregation", list(RULES))
def test_tracer_records_one_merge_per_round_and_restores(aggregation, tmp_path):
    rounds = 2
    cfg = ExperimentConfig.from_dict({
        "seed": 3, "rounds": rounds, "strategy": "fedpilot", "aggregation": aggregation,
        "ig_dataset_size": 16,
        "model": {"num_blocks": 4, "hidden_size": 8, "lora_rank": 2,
                  "input_dim": 10, "num_classes": 5},
        "data": {"samples_per_class": 40},
        "clients": {"num_clients": 4, "batch_size": 16, "sampling_rate": 1.0},
    })
    before = [dict(vars(owner)) for owner in OWNERS]
    rule = getattr(fedlorasim.simulator, RULES[aggregation])
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        assert getattr(fedlorasim.simulator, RULES[aggregation]) is not rule
        run_experiment(cfg, tmp_path, quiet=True)
    finally:
        tracer.restore()

    for owner, attrs in zip(OWNERS, before):
        now = vars(owner)
        assert set(now) == set(attrs), owner
        changed = [k for k, v in attrs.items() if now[k] is not v]
        assert not changed, (owner, changed)

    nid = tracer.arrays()["nid"]
    spans = lambda name: int((nid == tracer.names.index(name)).sum())
    assert spans("simulator.run_round") == rounds
    assert spans("aggregation.merge") == rounds
    rows = [json.loads(s) for s in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert tracer.counts["aggregation.contributions"] == sum(sum(r["layer_counts"]) for r in rows)


def test_allocator_asks_the_oracle_once_per_pick(tmp_path):
    # the cost vector prices every candidate; the oracle is asked once per
    # pick, so a solve makes between 1 and 2L marginal_weight calls (two
    # greedy passes when the guard fires). Pricing each candidate through
    # the oracle makes at least 3L-1 calls in a solve that picks anything,
    # and dropping the per-pick check makes none, which the benchmark's
    # exact counters need to be positive.
    blocks = 6
    cfg = ExperimentConfig.from_dict({
        "seed": 3, "rounds": 2, "strategy": "fedpilot", "aggregation": "comagg",
        "ig_dataset_size": 16,
        "model": {"num_blocks": blocks, "hidden_size": 8, "lora_rank": 2,
                  "input_dim": 10, "num_classes": 5},
        "data": {"samples_per_class": 40},
        "clients": {"num_clients": 4, "batch_size": 16, "sampling_rate": 1.0},
    })
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        run_experiment(cfg, tmp_path, quiet=True)
    finally:
        tracer.restore()

    a = tracer.arrays()
    solves = a["sid"][a["nid"] == tracer.names.index("allocator.solve")]
    oracle_parents = a["parent"][a["nid"] == tracer.names.index("memory.marginal_weight")]
    assert len(solves) == 2 * 4
    per_solve = [int((oracle_parents == sid).sum()) for sid in solves]
    assert all(1 <= n <= 2 * blocks for n in per_solve), per_solve
    assert len(oracle_parents) == sum(per_solve)
