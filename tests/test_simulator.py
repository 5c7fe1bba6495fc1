"""Federation loop: capacities, baselines, determinism, round mechanics."""

import json

import numpy as np
import pytest

from fedlorasim.config import ClientConfig, ExperimentConfig, ModelConfig, PartitionConfig
from fedlorasim.memory import AllocationMap, naive_map, total_memory
from fedlorasim.simulator import (
    InvariantViolation,
    assign_capacities,
    baseline_allocation,
    build_clients,
    derive_rng,
    init_state,
    max_feasible_naive_u,
    run_experiment,
    run_round,
    state_from_jsonable,
    state_to_jsonable,
    toy_capacity_levels,
    toy_profile,
)
from fedlorasim.toymodel import ToyLoRANet


def tiny_config(**overrides) -> ExperimentConfig:
    base = {
        "seed": 7,
        "rounds": 3,
        "strategy": "fedpilot",
        "aggregation": "comagg",
        "lr": 0.2,
        "epochs": 1,
        "t_ig": 5,
        "t_agg": 5,
        "ig_dataset_size": 16,
        "model": {"num_blocks": 4, "hidden_size": 8, "lora_rank": 2,
                  "input_dim": 10, "num_classes": 5},
        "data": {"samples_per_class": 40, "noise_scale": 1.0, "center_scale": 3.0},
        "partition": {"scheme": "iid"},
        "clients": {"num_clients": 4, "batch_size": 16, "sampling_rate": 1.0},
    }
    for k, v in overrides.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            base[k].update(v)
        else:
            base[k] = v
    return ExperimentConfig.from_dict(base)


def test_derive_rng_reproducible_and_distinct():
    a = derive_rng(3, 2, 5, 1).random(4)
    b = derive_rng(3, 2, 5, 1).random(4)
    c = derive_rng(3, 2, 5, 2).random(4)
    d = derive_rng(3, 2, 6, 1).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_toy_profile_counts_every_frozen_parameter():
    cfg = tiny_config()
    p = toy_profile(cfg)
    m = cfg.model
    elems = (m.input_dim * m.hidden_size
             + m.num_blocks * (m.hidden_size ** 2 + m.hidden_size)
             + m.hidden_size * m.num_classes)
    assert p.frozen_param_bytes == 8 * elems
    assert p.lora_param_count_per_block == 2 * m.hidden_size * m.lora_rank
    assert p.static_act_per_sample == (m.hidden_size,) * m.num_blocks
    assert p.dynamic_act_per_sample == (m.hidden_size,) * m.num_blocks
    assert p.seq_len == 1 and p.bytes_per_elem == 8 and p.optimizer_states == 3

    # profile element counts must match the live network exactly
    net = ToyLoRANet(num_blocks=m.num_blocks, hidden_size=m.hidden_size,
                     lora_rank=m.lora_rank, input_dim=m.input_dim,
                     num_classes=m.num_classes, seed=0)
    live = net.embed.size + sum(w.size for w in net.W0) + sum(b.size for b in net.b) + net.head.size
    assert elems == live
    assert p.lora_param_count_per_block == net.N[0].size + net.M[0].size


def test_toy_capacity_levels_interpolate_between_thirds_and_full():
    cfg = tiny_config()
    p = toy_profile(cfg)
    b = cfg.clients.batch_size
    levels = toy_capacity_levels(p, b, margin=1.05)
    assert sorted(levels) == [1, 2, 3, 4]
    assert levels[1] < levels[2] < levels[3] < levels[4]
    low = total_memory(p, naive_map(4, "ms", 1), b).total_bytes
    high = total_memory(p, naive_map(4, "full"), b).total_bytes
    assert levels[1] == int(round(1.05 * low))
    assert levels[4] == int(round(1.05 * high))
    mid = levels[1] + (levels[4] - levels[1]) / 3
    assert abs(levels[2] - mid) <= 1


def test_assign_capacities_quotas_and_ordering():
    levels = {1: 100, 2: 200, 3: 300, 4: 400}
    for v, expect in [(10, [4, 3, 2, 1]), (20, [8, 6, 4, 2]), (100, [40, 30, 20, 10])]:
        placed = assign_capacities(v, levels)
        got = [sum(1 for lvl, _ in placed if lvl == k) for k in (1, 2, 3, 4)]
        assert got == expect
    # leftovers from floor division land on the most constrained level
    placed = assign_capacities(1, levels)
    assert placed == [(1, 100)]
    placed = assign_capacities(7, levels)
    assert [lvl for lvl, _ in placed] == [1, 1, 1, 1, 2, 2, 3]
    with pytest.raises(ValueError):
        assign_capacities(5, levels, ratio=(1, 1))


def test_max_feasible_naive_u_matches_linear_scan():
    cfg = tiny_config()
    p = toy_profile(cfg)
    b = cfg.clients.batch_size
    costs = [total_memory(p, naive_map(4, "ms", u), b).total_bytes for u in range(5)]
    for cap in [costs[0] - 1, costs[0], costs[2], costs[4], costs[4] + 10**9]:
        got = max_feasible_naive_u(p, "ms", b, cap)
        want = max((u for u in range(5) if costs[u] <= cap), default=None)
        assert got == want


def test_baseline_allocation_rules():
    cfg = tiny_config()
    p = toy_profile(cfg)
    b = cfg.clients.batch_size
    full_cost = total_memory(p, naive_map(4, "full"), b).total_bytes

    assert baseline_allocation("full", 1, p, b) == naive_map(4, "full")
    assert baseline_allocation("el", full_cost, p, b) == naive_map(4, "full")
    assert baseline_allocation("el", full_cost - 1, p, b) is None

    ms2 = total_memory(p, naive_map(4, "ms", 2), b).total_bytes
    assert baseline_allocation("ms", ms2, p, b) == naive_map(4, "ms", 2)
    assert baseline_allocation("mh", full_cost, p, b) == naive_map(4, "mh", 4)

    rng = derive_rng(0, 3, 1, 0)
    amap = baseline_allocation("fedra_random", full_cost, p, b, rng)
    assert isinstance(amap, AllocationMap)
    again = baseline_allocation("fedra_random", full_cost, p, b, derive_rng(0, 3, 1, 0))
    assert amap == again

    with pytest.raises(ValueError):
        baseline_allocation("fedra_random", full_cost, p, b, rng=None)
    with pytest.raises(ValueError):
        baseline_allocation("bogus", full_cost, p, b)


def test_fedra_fallback_when_random_maps_never_fit():
    cfg = tiny_config()
    p = toy_profile(cfg)
    b = cfg.clients.batch_size
    empty_cost = total_memory(p, AllocationMap.empty(4), b).total_bytes
    amap = baseline_allocation("fedra_random", empty_cost, p, b, derive_rng(0, 3, 1, 0))
    assert amap is not None and amap.count == 0


def test_build_clients_disjoint_data_and_bounded_ig_sets():
    cfg = tiny_config()
    clients, test, profile, levels, manifest = build_clients(cfg)
    assert len(clients) == 4
    assert len(test) == 5 * 8  # 20 percent of 40 per class, 5 classes
    seen = set()
    for rows in manifest:
        assert seen.isdisjoint(rows)
        seen.update(rows)
    assert len(seen) == sum(len(c.data) for c in clients)
    for c in clients:
        n_ig = sum(len(by) for _, by in c.ig_batches)
        assert n_ig == min(cfg.ig_dataset_size, len(c.data))
        assert c.capacity_bytes == levels[c.level]
    # ratio (4, 3, 2, 1) over 4 clients floors to [1, 1, 0, 0] + 2 leftovers
    assert [c.level for c in clients] == [1, 1, 1, 2]


def test_run_round_metrics_are_consistent():
    cfg = tiny_config()
    clients, test, profile, _, _ = build_clients(cfg)
    net = ToyLoRANet(num_blocks=4, hidden_size=8, lora_rank=2, input_dim=10,
                     num_classes=5, seed=cfg.seed)
    state = init_state(cfg, net)
    rm = run_round(state, clients, net, test, profile, cfg)
    assert rm.round == 1 and state.round == 1
    assert rm.participants == sum(1 for c in rm.clients if c.participated)
    assert rm.participants >= 1
    assert len(rm.clients) == 4  # sampling_rate 1.0
    total_selected = sum(rm.layer_counts)
    assert total_selected == sum(
        AllocationMap.from_bitstring(c.allocation).count
        for c in rm.clients if c.participated
    )
    for c in rm.clients:
        if c.participated:
            assert 0.0 < c.utilization <= 1.0
            assert c.memory_bytes <= clients[c.id].capacity_bytes
        else:
            assert c.utilization == 0.0 and c.allocation is None
    assert 0.0 <= rm.accuracy <= 1.0 and np.isfinite(rm.loss)


def test_memory_safety_invariant_trips_on_oversized_map(monkeypatch):
    import fedlorasim.simulator as sim

    cfg = tiny_config(strategy="ms")
    clients, test, profile, _, _ = build_clients(cfg)
    net = ToyLoRANet(num_blocks=4, hidden_size=8, lora_rank=2, input_dim=10,
                     num_classes=5, seed=cfg.seed)
    state = init_state(cfg, net)
    monkeypatch.setattr(sim, "_choose_allocation",
                        lambda *a, **k: naive_map(4, "full"))
    clients[0] = sim.ClientSpec(id=0, level=1, capacity_bytes=100,
                                data=clients[0].data, ig_batches=clients[0].ig_batches)
    with pytest.raises(InvariantViolation):
        run_round(state, clients, net, test, profile, cfg)


def test_run_experiment_is_byte_deterministic(tmp_path):
    cfg = tiny_config(rounds=2)
    s1 = run_experiment(cfg, tmp_path / "a", quiet=True)
    s2 = run_experiment(cfg, tmp_path / "b", quiet=True)
    m1 = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    m2 = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    assert m1 == m2
    assert (tmp_path / "a" / "summary.json").read_bytes() == (tmp_path / "b" / "summary.json").read_bytes()
    assert (tmp_path / "a" / "partition.json").read_bytes() == (tmp_path / "b" / "partition.json").read_bytes()
    assert s1 == s2
    # wall-clock numbers live outside the reproducible files: one line per
    # round, round 0 included, with the round total and five phase times
    timings = [json.loads(s) for s in (tmp_path / "a" / "timings.jsonl").read_text().splitlines()]
    assert [row["round"] for row in timings] == list(range(cfg.rounds + 1))
    phases = ("allocate_s", "score_s", "train_s", "aggregate_s", "evaluate_s")
    for row in timings:
        assert set(row) == {"round", "total_s", *phases}
        assert all(row[k] >= 0.0 for k in phases)
        assert sum(row[k] for k in phases) <= row["total_s"]
    assert not (tmp_path / "a" / "timings.txt").exists()
    payload = json.loads(m1.decode().splitlines()[1])
    assert "wall_time" not in json.dumps(payload)
    assert not any(k.endswith("_s") for k in payload)


def test_round_zero_line_is_pretraining_evaluation(tmp_path):
    cfg = tiny_config(rounds=0)
    run_experiment(cfg, tmp_path, quiet=True)
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["round"] == 0 and row["participants"] == 0 and row["clients"] == []

    # fresh adapters leave the forward pass untouched, so the round-0 score
    # equals the frozen network evaluated directly
    clients, test, _, _, _ = build_clients(cfg)
    net = ToyLoRANet(num_blocks=4, hidden_size=8, lora_rank=2, input_dim=10,
                     num_classes=5, seed=cfg.seed)
    loss, acc = net.evaluate(test.X, test.y)
    assert row["accuracy"] == acc and row["loss"] == loss


def test_metrics_rounds_are_sequential(tmp_path):
    cfg = tiny_config(rounds=3)
    run_experiment(cfg, tmp_path, quiet=True)
    rows = [json.loads(s) for s in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert [r["round"] for r in rows] == [0, 1, 2, 3]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["final_accuracy"] == rows[-1]["accuracy"]
    assert summary["best_accuracy"] == max(r["accuracy"] for r in rows)
    assert summary["rounds"] == 3
    assert summary["config"]["seed"] == cfg.seed


def test_accuracy_improves_on_easy_task(tmp_path):
    cfg = tiny_config(rounds=8, data={"center_scale": 4.0, "noise_scale": 0.5})
    run_experiment(cfg, tmp_path, quiet=True)
    rows = [json.loads(s) for s in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert rows[-1]["accuracy"] > rows[0]["accuracy"] + 0.15


def test_checkpoint_state_roundtrip(tmp_path):
    cfg = tiny_config(rounds=4, checkpoint_every=2)
    run_experiment(cfg, tmp_path, quiet=True)
    ckpts = sorted((tmp_path / "checkpoints").glob("round_*.json"))
    assert [p.name for p in ckpts] == ["round_0002.json", "round_0004.json"]
    with open(ckpts[-1]) as fh:
        snap = json.load(fh)
    state = state_from_jsonable(snap)
    assert state.round == 4
    again = state_to_jsonable(state)
    assert again == snap
    for j, (n, m) in state.params.items():
        assert n.dtype == np.float64 and m.dtype == np.float64


def test_all_clients_too_small_means_no_training(tmp_path):
    # capacities below even the frozen model: every client sits out every round
    cfg = tiny_config(rounds=2, strategy="el",
                      clients={"num_clients": 4, "batch_size": 16, "sampling_rate": 1.0,
                               "capacity_levels": [50, 60, 70, 80]})
    run_experiment(cfg, tmp_path, quiet=True)
    rows = [json.loads(s) for s in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert all(r["participants"] == 0 for r in rows)
    accs = {r["accuracy"] for r in rows}
    assert len(accs) == 1  # the global model never moved


def test_fedpilot_infeasible_base_warns_and_skips(tmp_path):
    cfg = tiny_config(rounds=1,
                      clients={"num_clients": 4, "batch_size": 16, "sampling_rate": 1.0,
                               "capacity_levels": [50, 60, 70, 80]})
    messages = []
    run_experiment(cfg, tmp_path, warn=messages.append, quiet=True)
    assert any("cannot hold the base model" in m for m in messages)
    rows = [json.loads(s) for s in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert rows[1]["participants"] == 0


def test_allocation_cadence_reuses_maps_between_refreshes(tmp_path):
    cfg = tiny_config(rounds=5, allocation_every=5)
    run_experiment(cfg, tmp_path, quiet=True)
    rows = [json.loads(s) for s in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    per_client = {}
    for r in rows[1:]:
        for c in r["clients"]:
            if c["participated"]:
                per_client.setdefault(c["id"], []).append(c["allocation"])
    # rounds 1 through 5 share the round-1 solution (refresh happens at t=1, 6, ...)
    for cid, maps in per_client.items():
        assert len(set(maps)) == 1, f"client {cid} drifted within a cadence window: {maps}"


def test_aggregation_variants_all_run(tmp_path):
    for agg in ("comagg", "comagg_fixed", "fedavg"):
        cfg = tiny_config(rounds=2, aggregation=agg)
        summary = run_experiment(cfg, tmp_path / agg, quiet=True)
        assert summary["aggregation"] == agg
        assert 0.0 <= summary["final_accuracy"] <= 1.0


def test_baseline_strategies_all_run(tmp_path):
    for strat in ("el", "ms", "mh", "fedra_random", "full"):
        cfg = tiny_config(rounds=2, strategy=strat)
        summary = run_experiment(cfg, tmp_path / strat, quiet=True)
        assert summary["strategy"] == strat


def test_sampling_respects_rate(tmp_path):
    cfg = tiny_config(rounds=3, clients={"num_clients": 4, "batch_size": 16,
                                         "sampling_rate": 0.5})
    run_experiment(cfg, tmp_path, quiet=True)
    rows = [json.loads(s) for s in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    for r in rows[1:]:
        assert len(r["clients"]) == 2  # ceil(0.5 * 4)
        ids = [c["id"] for c in r["clients"]]
        assert ids == sorted(ids)
