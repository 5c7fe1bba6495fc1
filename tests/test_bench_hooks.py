"""The benchmark's tracer still hooks the simulator, and unhooks it cleanly.

``bench/tracer.py`` replaces simulator attributes by name, among them the
three aggregation rules, which it records as ``aggregation.merge`` spans.
If ``run_round`` stopped looking the rules up as module globals at call
time, or a patched name went away, traced benchmark runs would silently
record no merges. This checks the hooks on a 2-round run per rule, that
every strategy's run still reaches the model's spans, and the counts the
benchmark's exact counters read: oracle calls per allocator solve,
effective-weight builds per lockstep group and evaluation, and one scoring
and one training call per lockstep group.
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
from fedlorasim.config import STRATEGIES, ExperimentConfig
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


def fedpilot_config(aggregation="comagg", blocks=4, epochs=1, checkpoint_every=0,
                    strategy="fedpilot", partition="iid", capacity=None) -> ExperimentConfig:
    clients = {"num_clients": 4, "batch_size": BATCH, "sampling_rate": 1.0}
    if capacity is not None:
        clients["capacity_levels"] = [capacity] * 4
    return ExperimentConfig.from_dict({
        "seed": 3, "rounds": ROUNDS, "strategy": strategy, "aggregation": aggregation,
        "ig_dataset_size": 16, "epochs": epochs, "checkpoint_every": checkpoint_every,
        "model": {"num_blocks": blocks, "hidden_size": 8, "lora_rank": 2,
                  "input_dim": 10, "num_classes": 5},
        "data": {"samples_per_class": 40},
        "partition": {"scheme": partition, **({"alpha": 1.0} if partition == "dirichlet" else {})},
        "clients": clients,
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
    # a round solves all its clients' knapsacks in one call, and one cost
    # table prices every candidate; the oracle is asked once per pick, so a
    # round's solve makes between its clients' kept picks and 2L
    # marginal_weight calls per client (two greedy passes when the guard
    # fires). Pricing each candidate through the oracle makes at least 3L-1
    # calls per client that picks anything, and dropping the per-pick check
    # makes none, which the benchmark's exact counters need to be positive.
    blocks = 6
    tracer = traced_run(fedpilot_config(blocks=blocks), tmp_path)
    rows = [json.loads(s) for s in (tmp_path / "metrics.jsonl").read_text().splitlines()]

    a = tracer.arrays()
    solves = a["sid"][a["nid"] == tracer.names.index("allocator.solve")]
    oracle_parents = a["parent"][a["nid"] == tracer.names.index("memory.marginal_weight")]
    assert len(solves) == ROUNDS
    per_solve = [int((oracle_parents == sid).sum()) for sid in solves]
    for n, row in zip(per_solve, rows[1:], strict=True):  # rows[0] is round 0
        kept = sum(c["allocation"].count("1") for c in row["clients"] if c["allocation"])
        assert 1 <= kept <= n <= 2 * blocks * len(row["clients"]), (per_solve, row["clients"])
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


def round_groups(rows, samples) -> list[list[dict]]:
    """Each round's lockstep groups: its participants with equal data sizes.
    Here every client scores one IG batch of 16 rows and no batch has one
    row, so equal sizes mean equal batch shapes, and H = 8 caps no group."""
    groups = []
    for r in rows:
        by_size: dict[int, list[dict]] = {}
        for c in r["clients"]:
            if c["participated"]:
                by_size.setdefault(samples[c["id"]], []).append(c)
        groups.extend(by_size.values())
    return groups


@pytest.mark.parametrize("partition", ["iid", "dirichlet"])
def test_effective_weights_are_built_once_per_parameter_change(partition, tmp_path):
    # the net owns its weights and rebuilds a block only in the first forward
    # after a write that changed its bytes. Evaluation at round 0 builds all
    # L; after each round's write of the global adapters it rebuilds only the
    # blocks the write changed. A round's clients score on the global net and
    # train a clone of it in lockstep groups, so scoring and a group's first
    # SGD step build none; each later step writes, and then builds once, a
    # stack of per-client weights for every block some client of the group
    # trains. A rebuild of every block after each round's write adds L per
    # round minus the changed blocks, one per scoring or training call adds
    # L, one per client instead of per group adds the group's other
    # clients' blocks, and one after the last SGD step adds the group's
    # blocks, per group.
    blocks, epochs = 6, 2
    cfg = fedpilot_config(blocks=blocks, epochs=epochs, checkpoint_every=1, partition=partition)
    tracer = traced_run(cfg, tmp_path)

    samples = {c["id"]: c["num_samples"]
               for c in json.loads((tmp_path / "partition.json").read_text())["assignments"]}
    rows = [json.loads(s) for s in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    groups = round_groups(rows, samples)
    # iid gives every client 40 rows, one group a round; dirichlet unequal
    # sizes, a group per client
    assert [len(g) for g in groups] == ([4] * ROUNDS if partition == "iid" else [1] * 4 * ROUNDS)
    changed = changed_blocks_per_round(cfg, tmp_path)
    assert len(changed) == ROUNDS and 0 < min(changed) and max(changed) < blocks
    steps = lambda g: epochs * math.ceil(samples[g[0]["id"]] / BATCH)
    trained = lambda g: {j for c in g for j, bit in enumerate(c["allocation"]) if bit == "1"}
    expected = (
        sum((steps(g) - 1) * len(trained(g)) for g in groups)  # local_train
        + blocks  # round-0 evaluation
        + sum(changed)  # evaluation after each round's write
    )
    nid = tracer.arrays()["nid"]
    spans = lambda name: int((nid == tracer.names.index(name)).sum())
    # one scoring and one training call per lockstep group
    assert spans("scoring.local_ig_scores") == spans("toymodel.local_train") == len(groups)
    assert spans("toymodel.evaluate") == len(rows)
    assert tracer.counts["toymodel.effective_weight"] == expected


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_records_model_spans(strategy, tmp_path):
    # the group pass still runs through the patched forward, backward and
    # local_train; only fedpilot reads IG scores, so only it scores. Every
    # client can hold the whole model, so every strategy trains.
    tracer = traced_run(fedpilot_config(strategy=strategy, capacity=10**9), tmp_path)
    nid = tracer.arrays()["nid"]
    spans = lambda name: int((nid == tracer.name_id(name)).sum())
    for name in ("toymodel.forward", "toymodel.backward", "toymodel.local_train"):
        assert spans(name) >= 1, name
    assert (spans("scoring.local_ig_scores") >= 1) == (strategy == "fedpilot")
