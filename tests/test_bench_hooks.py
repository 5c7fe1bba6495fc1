"""The benchmark's tracer still hooks the simulator, and unhooks it cleanly.

``bench/tracer.py`` replaces simulator attributes by name, among them the
three aggregation rules, which it records as ``aggregation.merge`` spans.
If ``run_round`` stopped looking the rules up as module globals at call
time, or a patched name went away, traced benchmark runs would silently
record no merges. This checks the hooks on a 2-round run per rule, and the
counts the benchmark's exact counters read: oracle calls per allocator
solve and effective-weight builds per scoring, training and evaluation call.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

import fedlorasim.allocator
import fedlorasim.memory
import fedlorasim.reporting
import fedlorasim.simulator
from fedlorasim.config import ExperimentConfig
from fedlorasim.memory import AllocationMap
from fedlorasim.simulator import run_experiment, state_from_jsonable
from fedlorasim.toymodel import ToyLoRANet

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
bench_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_tracer)

OWNERS = (fedlorasim.simulator, fedlorasim.allocator, fedlorasim.memory,
          fedlorasim.reporting, ToyLoRANet, AllocationMap)
RULES = {"comagg": "com_agg", "comagg_fixed": "com_agg_fixed", "fedavg": "fed_avg"}
ROUNDS, BATCH = 2, 16


def fedpilot_config(aggregation="comagg", blocks=4, epochs=1, checkpoint_every=0) -> ExperimentConfig:
    return ExperimentConfig.from_dict({
        "seed": 3, "rounds": ROUNDS, "strategy": "fedpilot", "aggregation": aggregation,
        "ig_dataset_size": 16, "epochs": epochs, "checkpoint_every": checkpoint_every,
        "model": {"num_blocks": blocks, "hidden_size": 8, "lora_rank": 2,
                  "input_dim": 10, "num_classes": 5},
        "data": {"samples_per_class": 40},
        "clients": {"num_clients": 4, "batch_size": BATCH, "sampling_rate": 1.0},
    })


def traced_run(cfg, out_dir):
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        run_experiment(cfg, out_dir, quiet=True)
    finally:
        tracer.restore()
    return tracer


@pytest.mark.parametrize("aggregation", list(RULES))
def test_tracer_records_one_merge_per_round_and_restores(aggregation, tmp_path):
    cfg = fedpilot_config(aggregation)
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
    assert spans("simulator.run_round") == ROUNDS
    assert spans("aggregation.merge") == ROUNDS
    rows = [json.loads(s) for s in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert tracer.counts["aggregation.contributions"] == sum(sum(r["layer_counts"]) for r in rows)


def test_allocator_asks_the_oracle_once_per_pick(tmp_path):
    # the cost table prices every candidate; the oracle is asked once per
    # pick, so a solve makes between 1 and 2L marginal_weight calls (two
    # greedy passes when the guard fires). Pricing each candidate through
    # the oracle makes at least 3L-1 calls in a solve that picks anything,
    # and dropping the per-pick check makes none, which the benchmark's
    # exact counters need to be positive.
    blocks = 6
    tracer = traced_run(fedpilot_config(blocks=blocks), tmp_path)

    a = tracer.arrays()
    solves = a["sid"][a["nid"] == tracer.names.index("allocator.solve")]
    oracle_parents = a["parent"][a["nid"] == tracer.names.index("memory.marginal_weight")]
    assert len(solves) == ROUNDS * 4
    per_solve = [int((oracle_parents == sid).sum()) for sid in solves]
    assert all(1 <= n <= 2 * blocks for n in per_solve), per_solve
    assert len(oracle_parents) == sum(per_solve)


def changed_blocks_per_round(cfg, out_dir) -> list[int]:
    """How many blocks each round's write of the global adapters changed,
    byte for byte, read from the per-round checkpoints."""
    m = cfg.model
    params = [ToyLoRANet(num_blocks=m.num_blocks, hidden_size=m.hidden_size,
                         lora_rank=m.lora_rank, input_dim=m.input_dim,
                         num_classes=m.num_classes, lora_alpha=m.lora_alpha,
                         seed=cfg.seed).get_lora_state()]
    for t in range(1, cfg.rounds + 1):
        ckpt = json.loads((out_dir / "checkpoints" / f"round_{t:04d}.json").read_text())
        params.append(state_from_jsonable(ckpt).params)
    return [
        sum(1 for j in old if any(a.tobytes() != b.tobytes() for a, b in zip(old[j], new[j])))
        for old, new in zip(params, params[1:])
    ]


def test_effective_weights_are_built_once_per_parameter_change(tmp_path):
    # the net owns its weights and rebuilds a block only in the first forward
    # after a write that changed its bytes. Evaluation at round 0 builds all
    # L; after each round's write of the global adapters it rebuilds only the
    # blocks the write changed. The round's clients clone the global net, so
    # scoring and the first SGD step build none, and each later step rebuilds
    # only the blocks the step before it updated. Rebuilding every block
    # after each round's write adds L per round minus the changed blocks, a
    # rebuild per scoring or training call adds L, and one after the last SGD
    # step adds |allocation|, per client update.
    blocks, epochs = 6, 2
    cfg = fedpilot_config(blocks=blocks, epochs=epochs, checkpoint_every=1)
    tracer = traced_run(cfg, tmp_path)

    samples = {c["id"]: c["num_samples"]
               for c in json.loads((tmp_path / "partition.json").read_text())["assignments"]}
    rows = [json.loads(s) for s in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    trained = [c for r in rows for c in r["clients"] if c["participated"]]
    assert trained
    changed = changed_blocks_per_round(cfg, tmp_path)
    assert len(changed) == ROUNDS and 0 < min(changed) and max(changed) < blocks
    steps = lambda cid: epochs * math.ceil(samples[cid] / BATCH)
    expected = (
        sum((steps(c["id"]) - 1) * c["allocation"].count("1") for c in trained)  # local_train
        + blocks  # round-0 evaluation
        + sum(changed)  # evaluation after each round's write
    )
    nid = tracer.arrays()["nid"]
    assert int((nid == tracer.names.index("scoring.local_ig_scores")).sum()) == len(trained)
    assert int((nid == tracer.names.index("toymodel.evaluate")).sum()) == len(rows)
    assert tracer.counts["toymodel.effective_weight"] == expected
