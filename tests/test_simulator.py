"""Federation loop: capacities, baselines, determinism, round mechanics."""

import base64
import json
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import make_random_profile, reference_fedra_random, write_blocks
from fedlorasim.config import (
    AGGREGATIONS,
    STRATEGIES,
    ClientConfig,
    ExperimentConfig,
    ModelConfig,
    PartitionConfig,
)
from fedlorasim.memory import AllocationMap, naive_map, total_memory
from fedlorasim.simulator import (
    ClientSpec,
    InvariantViolation,
    PrefixCache,
    assign_capacities,
    baseline_allocation,
    build_clients,
    derive_rng,
    init_state,
    lockstep_groups,
    max_feasible_naive_u,
    run_experiment,
    run_round,
    state_from_jsonable,
    state_to_jsonable,
    toy_capacity_levels,
    toy_profile,
)
from fedlorasim.toymodel import ToyLoRANet

QUICK = Path(__file__).resolve().parents[1] / "configs" / "quick.json"


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


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**40])
def test_derive_rng_gives_the_streams_of_the_list_seed(seed):
    # words below 2**32 go in as one uint32 array, others as the list; each
    # gives the state and the draws of SeedSequence([seed, *keys])
    for keys in ((2, 5, 1), (4, 0), (1, 60)):
        want = np.random.default_rng(np.random.SeedSequence([seed, *keys]))
        got = derive_rng(seed, *keys)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.integers(0, 2**63, size=8).tolist() == want.integers(0, 2**63, size=8).tolist()
        assert got.random(4).tobytes() == want.random(4).tobytes()


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
                     num_classes=m.num_classes, lora_alpha=None, seed=0)
    live = net.embed.size + sum(w.size for w in net.W0) + sum(b.size for b in net.b) + net.head.size
    assert elems == live
    assert p.lora_param_count_per_block == net.N[0].size + net.M[0].size


def test_toy_capacity_levels_interpolate_between_thirds_and_full():
    cfg = tiny_config()
    p = toy_profile(cfg)
    b = cfg.clients.batch_size
    defaults = ClientConfig()
    levels = toy_capacity_levels(p, b, defaults.capacity_margin, len(defaults.capacity_ratio))
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
    ratio = ClientConfig().capacity_ratio
    for v, expect in [(10, [4, 3, 2, 1]), (20, [8, 6, 4, 2]), (100, [40, 30, 20, 10])]:
        placed = assign_capacities(v, levels, ratio)
        got = [sum(1 for lvl, _ in placed if lvl == k) for k in (1, 2, 3, 4)]
        assert got == expect
    # leftovers from floor division land on the most constrained level
    placed = assign_capacities(1, levels, ratio)
    assert placed == [(1, 100)]
    placed = assign_capacities(7, levels, ratio)
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


def test_fedra_random_keeps_the_map_the_sequential_sampler_keeps():
    # the batched draw rests on numpy giving one (100, l) draw the same rows
    # as 100 draws of l; the reference makes the 100 draws one by one
    rng = np.random.default_rng(9)
    outcomes = set()
    zero_kept = False
    for l in (1, 4, 12, 96):
        for _ in range(3):
            p = make_random_profile(rng, min_blocks=l, max_blocks=l)
            b = int(rng.integers(1, 16))
            lo = total_memory(p, AllocationMap.empty(l), b).total_bytes
            hi = total_memory(p, AllocationMap.full(l), b).total_bytes
            caps = {lo - 1, lo, hi, *(int(c) for c in rng.integers(lo, hi + 1, size=6))}
            for cap in sorted(caps):
                for t in range(4):
                    ref, how = reference_fedra_random(cap, p, b, derive_rng(5, 3, t, l))
                    got = baseline_allocation("fedra_random", cap, p, b, derive_rng(5, 3, t, l))
                    assert got == ref, (l, cap, t, how)
                    outcomes.add(how)
                    zero_kept |= how in ("first", "late") and ref.count == 0
    assert outcomes == {"first", "late", "fallback", "none"}
    assert zero_kept


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
        n_ig = sum(len(rows) for rows in c.ig_rows)
        assert n_ig == min(cfg.ig_dataset_size, len(c.data))
        assert c.capacity_bytes == levels[c.level]
    # ratio (4, 3, 2, 1) over 4 clients floors to [1, 1, 0, 0] + 2 leftovers
    assert [c.level for c in clients] == [1, 1, 1, 2]


def test_run_round_metrics_are_consistent():
    cfg = tiny_config()
    clients, test, profile, _, _ = build_clients(cfg)
    net = ToyLoRANet(num_blocks=4, hidden_size=8, lora_rank=2, input_dim=10,
                     num_classes=5, lora_alpha=None, seed=cfg.seed)
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
    # a client row is its fields in order, as dataclasses.asdict gives them,
    # in a dict of its own
    rows = rm.as_jsonl_dict()["clients"]
    assert [list(r.items()) for r in rows] == [list(asdict(c).items()) for c in rm.clients]
    rows[0]["id"] = -1
    assert rm.as_jsonl_dict()["clients"][0]["id"] == rm.clients[0].id


def test_memory_safety_invariant_trips_on_oversized_map(monkeypatch):
    import fedlorasim.simulator as sim

    cfg = tiny_config(strategy="ms")
    clients, test, profile, _, _ = build_clients(cfg)
    net = ToyLoRANet(num_blocks=4, hidden_size=8, lora_rank=2, input_dim=10,
                     num_classes=5, lora_alpha=None, seed=cfg.seed)
    state = init_state(cfg, net)
    monkeypatch.setattr(sim, "_choose_allocation",
                        lambda *a, **k: naive_map(4, "full"))
    clients[0] = sim.ClientSpec(id=0, level=1, capacity_bytes=100,
                                data=clients[0].data, ig_rows=clients[0].ig_rows)
    with pytest.raises(InvariantViolation):
        run_round(state, clients, net, test, profile, cfg)


def test_run_experiment_is_byte_deterministic(tmp_path):
    cfg = tiny_config(rounds=2)
    t0 = time.perf_counter()
    s1 = run_experiment(cfg, tmp_path / "a", quiet=True)
    elapsed = time.perf_counter() - t0
    s2 = run_experiment(cfg, tmp_path / "b", quiet=True)
    m1 = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    m2 = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    assert m1 == m2
    assert (tmp_path / "a" / "summary.json").read_bytes() == (tmp_path / "b" / "summary.json").read_bytes()
    assert (tmp_path / "a" / "partition.json").read_bytes() == (tmp_path / "b" / "partition.json").read_bytes()
    assert s1 == s2
    # wall-clock numbers live outside the reproducible files: one line per
    # round, round 0 included, with the round total, five phase times and
    # the round's minor page faults
    timings = [json.loads(s) for s in (tmp_path / "a" / "timings.jsonl").read_text().splitlines()]
    assert [row["round"] for row in timings] == list(range(cfg.rounds + 1))
    phases = ("allocate_s", "score_s", "train_s", "aggregate_s", "evaluate_s")
    for row in timings:
        assert set(row) == {"round", "total_s", *phases, "minor_faults"}
        assert all(row[k] >= 0.0 for k in phases)
        assert type(row["minor_faults"]) is int and row["minor_faults"] >= 0
        assert sum(row[k] for k in phases) <= row["total_s"]
    assert sum(row["total_s"] for row in timings) <= elapsed
    assert not (tmp_path / "a" / "timings.txt").exists()
    payload = json.loads(m1.decode().splitlines()[1])
    assert "wall_time" not in json.dumps(payload)
    assert not any(k.endswith("_s") for k in payload)


def test_a_quick_run_with_a_lora_scale_is_byte_deterministic(tmp_path):
    # configs/quick.json leaves lora_alpha at r, a scale of 1 that the net
    # skips; alpha 3 at r = 2 runs the scaled path in every round
    d = json.loads(QUICK.read_text())
    unit = ExperimentConfig.from_dict(d)
    d["model"]["lora_alpha"] = 3.0
    cfg = ExperimentConfig.from_dict(d)
    assert cfg.model.lora_alpha / cfg.model.lora_rank == 1.5
    for name, config in (("a", cfg), ("b", cfg), ("unit", unit)):
        run_experiment(config, tmp_path / name, quiet=True)
    files = {name: [(tmp_path / name / f).read_bytes() for f in ("metrics.jsonl", "summary.json")]
             for name in ("a", "b", "unit")}
    assert files["a"] == files["b"]
    # the scale reaches training: the rows after round 0 differ from scale 1's
    rows, unit_rows = (files[name][0].splitlines() for name in ("a", "unit"))
    assert rows[0] == unit_rows[0] and rows[1:] != unit_rows[1:]


def test_non_finite_metrics_are_never_written(tmp_path, monkeypatch):
    # JSON has no NaN; writing one must fail instead of emitting a bare NaN
    monkeypatch.setattr(ToyLoRANet, "evaluate", lambda self, X, y: (float("nan"), 0.5))
    with pytest.raises(ValueError, match="not JSON compliant"):
        run_experiment(tiny_config(rounds=1), tmp_path, quiet=True)
    assert "NaN" not in (tmp_path / "metrics.jsonl").read_text()


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
                     num_classes=5, lora_alpha=None, seed=cfg.seed)
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
    assert state.params.N.dtype == np.float64 and state.params.M.dtype == np.float64
    assert state.params.N.shape == (cfg.model.num_blocks, cfg.model.hidden_size, cfg.model.lora_rank)


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


def test_fedpilot_infeasible_base_warns_and_skips(tmp_path, capsys):
    cfg = tiny_config(rounds=1,
                      clients={"num_clients": 4, "batch_size": 16, "sampling_rate": 1.0,
                               "capacity_levels": [50, 60, 70, 80]})
    run_experiment(cfg, tmp_path, quiet=True)
    assert "round 1: client 0 cannot hold the base model; excluded" in capsys.readouterr().err
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


# ---- frozen-prefix cache -------------------------------------------------------

def deep_config(**overrides) -> ExperimentConfig:
    """12 blocks under capacity tiers that afford the last 2..5 blocks, so the
    lowest block any client trains stays well above block 0."""
    base = {"rounds": 6, "strategy": "fedpilot",
            "model": {"num_blocks": 12, "hidden_size": 8, "input_dim": 10},
            "clients": {"num_clients": 6, "batch_size": 16, "sampling_rate": 0.5}}
    probe = tiny_config(**base)
    profile = toy_profile(probe)
    base["clients"]["capacity_levels"] = [
        int(1.02 * total_memory(profile, naive_map(12, "ms", u), 16).total_bytes)
        for u in (2, 3, 4, 5)]
    base.update(overrides)
    return tiny_config(**base)


def deep_net(cfg) -> ToyLoRANet:
    m = cfg.model
    return ToyLoRANet(num_blocks=m.num_blocks, hidden_size=m.hidden_size,
                      lora_rank=m.lora_rank, input_dim=m.input_dim,
                      num_classes=m.num_classes, lora_alpha=m.lora_alpha, seed=cfg.seed)


@pytest.mark.parametrize("strategy, aggregation, every", [
    *[(s, a, 1) for s in STRATEGIES for a in AGGREGATIONS], ("fedpilot", "comagg", 2)])
def test_checkpoint_read_back_reproduces_the_run(strategy, aggregation, every, tmp_path):
    # windows of 2 rounds, so both have evicted entries by the round-3 checkpoint
    cfg = deep_config(strategy=strategy, aggregation=aggregation, allocation_every=every,
                      t_ig=2, t_agg=2, checkpoint_every=3)
    run_experiment(cfg, tmp_path, quiet=True)
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    state = state_from_jsonable(json.loads((tmp_path / "checkpoints" / "round_0003.json").read_text()))
    clients, test, profile, _, _ = build_clients(cfg)
    net = deep_net(cfg)
    net.set_lora_state(state.params)
    prefixes = PrefixCache()
    rows = [json.dumps(run_round(state, clients, net, test, profile, cfg, prefixes=prefixes)
                       .as_jsonl_dict(), allow_nan=False) for _ in range(3)]
    assert rows == lines[4:7]


def test_failed_run_keeps_its_finished_rounds(tmp_path, monkeypatch):
    import fedlorasim.simulator as sim

    cfg = ExperimentConfig.from_dict(json.loads(QUICK.read_text()))
    run_experiment(cfg, tmp_path / "whole", quiet=True)
    whole = (tmp_path / "whole" / "metrics.jsonl").read_text().splitlines()

    def fail_at_round_4(state, *args, **kwargs):
        if state.round == 3:
            raise RuntimeError("round 4 failed")
        return run_round(state, *args, **kwargs)

    monkeypatch.setattr(sim, "run_round", fail_at_round_4)
    with pytest.raises(RuntimeError, match="round 4 failed"):
        run_experiment(cfg, tmp_path / "failed", quiet=True)
    out = tmp_path / "failed"
    assert (out / "metrics.jsonl").read_text().splitlines() == whole[:4]
    timings = [json.loads(s) for s in (out / "timings.jsonl").read_text().splitlines()]
    assert [row["round"] for row in timings] == [0, 1, 2, 3]
    assert not (out / "summary.json").exists()


def _pack(arr) -> dict:
    a = np.asarray(arr, dtype=np.float64)
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


# each a malformed field of a 4-block run's round-2 checkpoint (H = 8, r = 2),
# and its key
MALFORMED_CHECKPOINTS = {
    "nan-N-of-shape-2": (lambda s: s["params"].__setitem__(0, _pack([np.nan] * 2)), "params"),
    "nan-N": (lambda s: s["params"].__setitem__(0, _pack(np.full((4, 8, 2), np.nan))), "params"),
    "block-3-missing": (lambda s: s.__setitem__("params", [_pack(np.zeros((3, 8, 2))),
                                                          _pack(np.zeros((3, 2, 8)))]), "params"),
    "pair-of-one-array": (lambda s: s["params"].pop(), "params"),
    "pair-of-two-numbers": (lambda s: s.__setitem__("params", [1.0, 2.0]), "params"),
    "per-block-dict": (lambda s: s.__setitem__("prev_delta", dict(enumerate(s["prev_delta"]))),
                       "prev_delta"),
    "record-of-another-client": (lambda s: s["last_records"]["0"].__setitem__("client_id", 5),
                                 "last_records"),
    "record-of-a-later-round": (lambda s: s["last_records"]["0"].__setitem__("round", 99),
                                "last_records"),
    "one-block-allocation": (lambda s: s["last_allocations"].__setitem__("0", "1"),
                             "last_allocations"),
    "score-for-module-17": (lambda s: s["last_records"]["0"]["module_scores"].__setitem__(
        "17", 1.0), "last_records"),
    "round-past-the-windows": (lambda s: s.__setitem__("round", 7), "round"),
    "prev-delta-missing": (lambda s: s.pop("prev_delta"), "prev_delta"),
    "inf-delta": (lambda s: s["prev_delta"].__setitem__(1, _pack(np.full((4, 2, 8), np.inf))),
                  "prev_delta"),
    "delta-of-rank-3": (lambda s: s.__setitem__("prev_delta", [_pack(np.zeros((4, 8, 3))),
                                                              _pack(np.zeros((4, 3, 8)))]),
                        "prev_delta"),
    "client-key-00": (lambda s: s["last_records"].__setitem__("00", s["last_records"].pop("0")),
                      "last_records"),
    "unknown-field": (lambda s: s.__setitem__("extra", 1), "extra"),
    # a record must score exactly the blocks its client's allocation trains
    "record-without-allocation": (lambda s: s["last_allocations"].pop("0"), "last_records"),
    "record-of-another-map": (lambda s: s["last_allocations"].__setitem__("1", "1000"),
                              "last_records"),
    # 1.0 and True equal 1, so reading back as written cannot tell them apart
    "record-round-as-float": (lambda s: s["last_records"]["1"].__setitem__(
        "round", float(s["last_records"]["1"]["round"])), "last_records"),
    "record-client-id-as-float": (lambda s: s["last_records"]["1"].__setitem__("client_id", 1.0),
                                  "last_records"),
    "record-round-true": (lambda s: s["last_records"]["1"].__setitem__("round", True),
                          "last_records"),
    "score-true": (lambda s: s["last_records"]["1"]["module_scores"].__setitem__("3", True),
                   "last_records"),
}


@pytest.mark.parametrize("case", list(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_names_its_key(case, tmp_path):
    run_experiment(tiny_config(rounds=2, checkpoint_every=2), tmp_path, quiet=True)
    snap = json.loads((tmp_path / "checkpoints" / "round_0002.json").read_text())
    state_from_jsonable(json.loads(json.dumps(snap)))
    assert snap["last_allocations"]["1"] == "0001"  # the map the cases above edit
    assert list(snap["last_records"]["1"]["module_scores"]) == ["3"]
    corrupt, key = MALFORMED_CHECKPOINTS[case]
    corrupt(snap)
    with pytest.raises(ValueError, match=f"^{key}: "):
        state_from_jsonable(snap)


def test_malformed_checkpoint_window_names_its_key(tmp_path):
    run_experiment(tiny_config(rounds=2, checkpoint_every=2), tmp_path, quiet=True)
    snap = json.loads((tmp_path / "checkpoints" / "round_0002.json").read_text())
    for key in ("score_history", "contribution_history"):
        bad = json.loads(json.dumps(snap))
        bad[key]["entries"][0].append([2, -1.0])  # a negative value
        with pytest.raises(ValueError, match=f"^{key}: "):
            state_from_jsonable(bad)
    assert state_to_jsonable(state_from_jsonable(snap)) == snap


def test_prefix_cache_is_reused_until_its_boundary_is_too_high():
    cfg = deep_config()
    net = deep_net(cfg)
    X = np.random.default_rng(3).normal(size=(20, cfg.model.input_dim))
    cache = PrefixCache()
    a = cache.get("x", net, 9, X)
    assert a.block == 9 and a.data.tobytes() == net.prefix(X, 9).data.tobytes()
    assert cache.get("x", net, 10, X) is a  # a lower boundary still serves
    assert cache.get("x", net, None, X) is a
    b = cache.get("x", net, 7, X)  # an earliest block below it does not
    assert b.block == 7 and b.data.tobytes() == net.prefix(X, 7).data.tobytes()
    # a write above the boundary keeps it; one below lowers frozen_below
    write_blocks(net, {8: (net.N[8], net.M[8] + 0.1)})
    assert cache.get("x", net, 10, X) is b
    write_blocks(net, {5: (net.N[5], net.M[5] + 0.1)})
    c = cache.get("x", net, 10, X)
    assert c.block == 5 and c.data.tobytes() == net.prefix(X, 5).data.tobytes()
    assert cache.get("y", net, None, X).block == 5  # each input set has its own entry


def test_training_prefix_only_when_no_larger_than_features_and_no_one_row_batch():
    cfg = deep_config()
    clients, _, _, _, _ = build_clients(cfg)
    client = clients[0]
    amap = naive_map(12, "ms", 3)
    n = len(client.data)
    assert all(len(rows) >= 2 for rows in client.ig_rows)
    # (hidden, batch, whether the update starts at block 9); input_dim is 10
    for hidden, batch, boundary in ((8, 16, n % 16 != 1), (10, 16, n % 16 != 1),
                                    (12, 16, n % 16 != 1), (8, 1, False), (8, n, True),
                                    (8, n - 1, False)):
        net = ToyLoRANet(num_blocks=12, hidden_size=hidden, lora_rank=2, input_dim=10,
                         num_classes=5, lora_alpha=None, seed=0)
        write_blocks(net, {6: (net.N[6], net.M[6] + 0.1)})  # frozen_below 6
        cache = PrefixCache()
        X = cache.update_inputs(client, net, amap, batch)
        assert client.has_one_row_batch(batch) is not boundary
        if boundary:
            # the update runs from the client's earliest block, above frozen_below
            assert X.block == 9 and X.data.shape == (n, hidden)
            assert net.clone().accepts(X)
            assert X.data.tobytes() == net.prefix(client.data.X, 9).data.tobytes()
            # the training prefix is kept only when no larger than the features
            assert [e.block for e in cache._entries.values()] == ([6] if hidden <= 10 else [])
            # the IG batches are rows of the update input: each the prefix
            # of its own rows of the features
            for rows in client.ig_rows:
                assert X.data[rows].tobytes() == net.prefix(client.data.X[rows], 9).data.tobytes()
        else:
            assert X is client.data.X and not cache._entries
    # a one-row IG batch sends the whole update back to the features
    one_row = ClientSpec(id=0, level=1, capacity_bytes=1, data=client.data,
                         ig_rows=[client.ig_rows[0], client.ig_rows[0][:1]])
    assert one_row.has_one_row_batch(n) and not client.has_one_row_batch(n)
    cache = PrefixCache()
    assert cache.update_inputs(one_row, deep_net(cfg), amap, n) is one_row.data.X
    assert not cache._entries


def test_lockstep_groups_come_in_pass_order_with_ties_in_sampled_order():
    clients, _, _, _, _ = build_clients(deep_config())
    c0 = clients[0]
    same = [ClientSpec(id=i, level=1, capacity_bytes=1, data=c0.data, ig_rows=c0.ig_rows)
            for i in range(6)]
    # another IG batch shape: a group of its own
    other = ClientSpec(id=6, level=1, capacity_bytes=1, data=c0.data, ig_rows=c0.ig_rows[:1] * 2)
    earliest = [9, 7, 9, 8, 7, 10, 8]  # of the updates in sampled order, client 6 last
    updates = [(c, naive_map(12, "ms", 12 - e)) for c, e in zip([*same, other], earliest)]
    groups = lockstep_groups(updates, hidden_size=8)
    assert [[c.id for c, _ in g] for g in groups] == [[1, 4, 3, 0, 2, 5], [6]]
    assert all(amap.earliest == earliest[c.id] for g in groups for c, amap in g)
    # at H = 128 a group holds one update, in sampled order
    assert [[c.id for c, _ in g] for g in lockstep_groups(updates, hidden_size=128)] == [
        [0], [1], [2], [3], [4], [5], [6]]


class _FromFeatures(PrefixCache):
    """Every forward from the features: the run without the cache."""

    def update_inputs(self, client, net, amap, batch_size):
        return client.data.X

    def test_set(self, test, net):
        return test.X


# 16 IG rows make one IG batch; 17 end on a one-row batch, which sends every
# update back to the features
@pytest.mark.parametrize("aggregation, ig_size", [("comagg", 16), ("fedavg", 16), ("comagg", 17)],
                         ids=["comagg", "fedavg", "comagg-one-row-ig"])
def test_run_from_prefixes_matches_run_from_features(aggregation, ig_size, tmp_path,
                                                     monkeypatch):
    import fedlorasim.simulator as sim

    cfg = deep_config(aggregation=aggregation, checkpoint_every=6, ig_dataset_size=ig_size)
    clients = build_clients(cfg)[0]
    assert [c.has_one_row_batch(16) for c in clients] == [ig_size == 17] * len(clients)
    starts = []
    prefix = ToyLoRANet.prefix
    monkeypatch.setattr(ToyLoRANet, "prefix",
                        lambda net, X, k: starts.append(k) or prefix(net, X, k))
    run_experiment(cfg, tmp_path / "cached", quiet=True)
    assert max(starts) >= 6  # the cache did start mid-chain
    monkeypatch.setattr(sim, "PrefixCache", _FromFeatures)
    run_experiment(cfg, tmp_path / "plain", quiet=True)
    for name in ("metrics.jsonl", "summary.json", "checkpoints/round_0006.json"):
        assert (tmp_path / "cached" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_only_fedpilot_builds_ig_batches(tmp_path, monkeypatch):
    # a group's IG batches are (C, b) stacks of its clients' ig_rows, built
    # only where fedpilot scores them, one per IG batch of a client
    import fedlorasim.simulator as sim

    built = []
    score = sim.local_ig_scores

    def recording(net, group, y, batches, *args, **kw):
        built.append((len(group.maps), y.shape, [np.asarray(b).shape for b in batches]))
        return score(net, group, y, batches, *args, **kw)

    monkeypatch.setattr(sim, "local_ig_scores", recording)
    run_experiment(deep_config(strategy="ms", rounds=2), tmp_path / "ms", quiet=True)
    assert built == []
    cfg = deep_config(rounds=2)
    run_experiment(cfg, tmp_path / "fedpilot", quiet=True)
    assert built
    # a group's clients have one row count, and so one list of IG batch sizes
    sizes = {len(client.data): [len(rows) for rows in client.ig_rows]
             for client in build_clients(cfg)[0]}
    for c, (labels_c, n), shapes in built:
        assert labels_c == c and shapes == [(c, b) for b in sizes[n]]


def test_prefixes_are_built_in_rounds_and_never_checkpointed(tmp_path, monkeypatch):
    calls = []
    prefix = ToyLoRANet.prefix
    monkeypatch.setattr(ToyLoRANet, "prefix",
                        lambda net, X, k: calls.append(k) or prefix(net, X, k))
    run_experiment(deep_config(rounds=0), tmp_path / "setup", quiet=True)
    assert [k for k in calls if k > 0] == []  # set-up forwards from the features
    run_experiment(deep_config(rounds=2, checkpoint_every=1), tmp_path / "run", quiet=True)
    assert any(k > 0 for k in calls)
    snap = json.loads((tmp_path / "run" / "checkpoints" / "round_0002.json").read_text())
    assert set(snap) == {"round", "params", "prev_delta", "score_history",
                         "contribution_history", "last_records", "last_allocations"}
