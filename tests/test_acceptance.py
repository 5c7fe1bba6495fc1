"""End-to-end acceptance checks for the package.

One test per acceptance property, ordered from the memory model out to the
full federated loop. Each prints a single PASS line with the measured
numbers. The trend test runs 20 federated experiments of 60 rounds and is
the slow one (about half a minute); everything else is seconds or less.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np

from conftest import (
    all_maps,
    backward_one,
    central_difference,
    enumerate_costs,
    forward_one,
    make_random_profile,
    push_counts,
    score_one,
    split_batches,
    write_blocks,
)
from fedlorasim.aggregation import RoundWindow, com_agg, fed_avg, zero_delta_like
from fedlorasim.allocator import KnapsackInstance, optimize_allocation
from fedlorasim.config import ExperimentConfig
from fedlorasim.memory import (
    MB,
    VIT_CONTEXT_MB_BY_LEVEL,
    AllocationMap,
    marginal_weight,
    naive_map,
    reference_vit_profile,
    total_memory,
)
from fedlorasim.scoring import (
    IGScoreRecord,
    local_ig_scores,
    update_history,
    value_function,
)
from fedlorasim.simulator import build_clients, run_experiment, toy_profile
from fedlorasim.toymodel import Adapters, ToyLoRANet

# Shared scenario for the federated trend, determinism and round-zero checks.
# Capacity tiers are derived from the toy profile at runtime: tier u affords
# the last-u naive allocation plus a 2 percent margin, so every tier is
# binding and no client can train the full stack.
TREND_BASE = {
    "rounds": 60,
    "lr": 0.2,
    "model": {
        "num_blocks": 12,
        "hidden_size": 32,
        "lora_rank": 2,
        "input_dim": 32,
        "num_classes": 10,
    },
    "data": {"samples_per_class": 250, "noise_scale": 1.0, "center_scale": 3.0},
    "partition": {"scheme": "pathological", "classes_per_client": 2},
    "clients": {"num_clients": 20, "batch_size": 32, "sampling_rate": 0.5},
}
TREND_SEEDS = (0, 1, 2, 3, 4)
TREND_TIER_BLOCKS = (2, 3, 4, 6)
TREND_TIER_MARGIN = 1.02


def _trend_config(strategy: str, aggregation: str, seed: int) -> ExperimentConfig:
    base = json.loads(json.dumps(TREND_BASE))
    probe = ExperimentConfig.from_dict({**base, "seed": seed})
    profile = toy_profile(probe)
    l = probe.model.num_blocks
    b = probe.clients.batch_size
    levels = [
        int(round(TREND_TIER_MARGIN * total_memory(profile, naive_map(l, "ms", u), b).total_bytes))
        for u in TREND_TIER_BLOCKS
    ]
    base["clients"]["capacity_levels"] = levels
    base.update({"seed": seed, "strategy": strategy, "aggregation": aggregation})
    return ExperimentConfig.from_dict(base)


def _randomize_adapters(net: ToyLoRANet, rng: np.random.Generator) -> None:
    """Replace the zero-initialized factors so gradients flow through both."""
    write_blocks(net, {
        j: (rng.normal(0.0, 0.3, size=net.N[j].shape), rng.normal(0.0, 0.3, size=net.M[j].shape))
        for j in range(net.num_blocks)
    })


def test_01_reference_profile_totals():
    batch = 496
    level2 = VIT_CONTEXT_MB_BY_LEVEL[2] * MB
    cases = [
        ("full12", reference_vit_profile(), naive_map(12, "full"), 47.77),
        ("first6", reference_vit_profile(level2), naive_map(12, "mh", 6), 40.57),
        ("last6", reference_vit_profile(level2), naive_map(12, "ms", 6), 23.44),
    ]
    shown = []
    for name, profile, amap, expected_gb in cases:
        gb = total_memory(profile, amap, batch).total_gb
        assert abs(gb - expected_gb) <= 0.01, f"{name}: {gb:.4f} GB vs {expected_gb} GB"
        shown.append(f"{name}={gb:.4f}GB")
    print("criterion 1 (reference memory totals): PASS " + " ".join(shown))


def test_02_first_vs_last_gap_identity():
    rng = np.random.default_rng(20)
    t0 = time.monotonic()
    checked = 0
    for _ in range(1000):
        profile = make_random_profile(rng, max_blocks=24, min_blocks=2, uniform_dynamic=True)
        l = profile.num_blocks
        batch = int(rng.integers(1, 65))
        eta = profile.bytes_per_elem
        for u in range(1, l + 1):
            first_u = total_memory(profile, naive_map(l, "mh", u), batch).total_bytes
            last_u = total_memory(profile, naive_map(l, "ms", u), batch).total_bytes
            prefix = sum(profile.static_act_per_sample[: l - u])
            assert first_u - last_u == batch * eta * prefix, (l, u)
            checked += 1
    dt = time.monotonic() - t0
    assert dt < 1.0, f"took {dt:.2f} s"
    print(f"criterion 2 (first-u vs last-u gap identity): PASS {checked} (profile, u) pairs in {dt:.2f} s")


def test_03_marginal_weight_matches_total_difference():
    rng = np.random.default_rng(30)
    profile = make_random_profile(rng, max_blocks=12, min_blocks=12)
    l, batch = profile.num_blocks, 16
    t0 = time.monotonic()
    amaps = []
    totals = np.empty(1 << l, dtype=np.int64)
    for code in range(1 << l):
        amap = AllocationMap.from_bits((code >> j) & 1 for j in range(l))
        amaps.append(amap)
        totals[code] = total_memory(profile, amap, batch).total_bytes
    assert np.array_equal(totals, enumerate_costs(profile, batch))
    pairs = 0
    for code in range(1 << l):
        current = amaps[code]
        for j in range(l):
            if (code >> j) & 1:
                continue
            w = marginal_weight(profile, current, j, batch)
            if code == 0:
                # first pick pays the whole singleton footprint
                assert w == totals[1 << j]
            else:
                assert w == totals[code | (1 << j)] - totals[code], (code, j)
            pairs += 1
    dt = time.monotonic() - t0
    assert dt < 1.0, f"took {dt:.2f} s"
    print(f"criterion 3 (marginal weight consistency): PASS {pairs} (map, candidate) pairs in {dt:.2f} s")


def test_04_knapsack_feasible_maximal_near_optimal():
    rng = np.random.default_rng(40)
    t0 = time.monotonic()
    maps_by_l = {l: all_maps(l) for l in range(1, 13)}
    ratios = []
    exact = 0
    for _ in range(10_000):
        profile = make_random_profile(rng, max_blocks=12)
        l = profile.num_blocks
        batch = int(rng.integers(1, 33))
        values = rng.lognormal(0.0, 1.5, size=l)
        base = total_memory(profile, AllocationMap.empty(l), batch).total_bytes
        full_cost = total_memory(profile, AllocationMap.full(l), batch).total_bytes
        capacity = int(rng.integers(base, int(full_cost * 1.05) + 1))
        result = optimize_allocation([
            KnapsackInstance(profile=profile, capacity_bytes=capacity, batch=batch,
                             values=tuple(values))
        ])[0]
        assert result.memory.total_bytes <= capacity
        for j in range(l):
            if not result.map.bits[j]:
                grown = total_memory(profile, result.map.with_block(j), batch).total_bytes
                assert grown > capacity, f"block {j} still fits"

        maps = maps_by_l[l]
        costs = enumerate_costs(profile, batch, maps)
        feasible = costs <= capacity
        map_values = maps @ values
        optimal = float(map_values[feasible].max())
        got = float(result.total_value)
        assert got <= optimal + 1e-9

        single_codes = np.left_shift(1, np.arange(l))
        single_ok = feasible[single_codes]
        floor = float(values[single_ok].max()) if single_ok.any() else 0.0
        assert got >= floor - 1e-9 - 1e-12 * abs(floor), f"{got} below singleton floor {floor}"

        ratio = got / optimal if optimal > 0 else 1.0
        ratios.append(ratio)
        exact += ratio > 1 - 1e-12
    dt = time.monotonic() - t0
    r = np.array(ratios)
    assert dt < 30.0, f"took {dt:.1f} s"
    print(
        "criterion 4 (knapsack quality over 10000 instances): PASS "
        f"ratio min={r.min():.4f} p5={np.percentile(r, 5):.4f} "
        f"median={np.median(r):.4f} mean={r.mean():.4f} exact={exact / len(r):.1%} in {dt:.1f} s"
    )


def test_05_backward_matches_finite_differences():
    t0 = time.monotonic()
    l, h, r, d_in, classes, n = 4, 6, 2, 5, 3, 12
    eps = 1e-6
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        net = ToyLoRANet(num_blocks=l, hidden_size=h, lora_rank=r,
                         input_dim=d_in, num_classes=classes, lora_alpha=None, seed=seed)
        _randomize_adapters(net, rng)
        X = rng.normal(size=(n, d_in))
        y = rng.integers(0, classes, size=n)
        patterns = [
            AllocationMap.full(l),
            naive_map(l, "ms", l // 2),
            AllocationMap.from_indices(l, [1]),
        ]
        for amap in patterns:
            _, cache = forward_one(net, X, amap)
            grads = backward_one(net, cache, y)
            assert set(grads) == set(amap.trainable_indices)
            for j, (g_n, g_m) in grads.items():
                for k, grad in enumerate((g_n, g_m)):
                    it = np.nditer(grad, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        fd = central_difference(net, X, y, amap, j, k, idx, eps)
                        ana = float(grad[idx])
                        rel = abs(ana - fd) / max(abs(ana), abs(fd), 1e-8)
                        worst = max(worst, rel)
    dt = time.monotonic() - t0
    assert worst < 1e-4, f"worst relative error {worst:.3e}"
    assert dt < 10.0, f"took {dt:.1f} s"
    print(f"criterion 5 (finite-difference gradient check): PASS worst rel err {worst:.2e} in {dt:.1f} s")


def test_06_gradient_score_properties():
    rng = np.random.default_rng(60)
    l, h, r, d_in, classes = 4, 6, 2, 5, 3
    net = ToyLoRANet(num_blocks=l, hidden_size=h, lora_rank=r,
                     input_dim=d_in, num_classes=classes, lora_alpha=None, seed=6)
    _randomize_adapters(net, rng)
    X = rng.normal(size=(20, d_in))
    y = rng.integers(0, classes, size=20)
    batches = split_batches(X, y, 8)
    amap = AllocationMap.from_indices(l, [1, 3])

    scores = score_one(net, amap, batches)
    assert set(scores) == {1, 3}, "frozen modules must not be scored"
    c = 3.7
    scaled = score_one(net, amap, batches, loss_scale=c)
    worst = 0.0
    for j, s in scores.items():
        assert s > 0
        worst = max(worst, abs(scaled[j] - c * c * s) / (c * c * s))
    assert worst < 1e-10, f"scaling error {worst:.3e}"

    # cold start: no evidence at all puts every module on equal footing
    hist = RoundWindow(num_blocks=l, window=3)
    assert value_function(hist) == [1.0] * l

    # a fresh record against an empty history collapses to the local score
    rec = IGScoreRecord(round=1, client_id=0, module_scores=scores)
    vals = value_function(hist, client_record=rec)
    assert vals == [0.0, scores[1], 0.0, scores[3]]

    # with history but no local record the value is the temporal mean
    hist = update_history(hist, [rec], round=1)
    vals = value_function(hist)
    assert vals == [0.0, hist.means[1], 0.0, hist.means[3]]
    assert vals[1] == scores[1] and vals[3] == scores[3]

    # single client, trained last round: (s + s) / 2 gives s back exactly
    vals = value_function(hist, client_record=rec, prev_allocation=amap)
    assert vals[1] == scores[1] and vals[3] == scores[3]
    print(f"criterion 6 (gradient score properties): PASS scaling err {worst:.1e}, collapse cases exact")


def test_07_compensated_blend_properties():
    rng = np.random.default_rng(70)
    l = 6

    def rand_pair():
        return rng.normal(size=(3, 2)), rng.normal(size=(2, 3))

    def stacked(pairs):
        return Adapters(np.stack([n for n, _ in pairs]), np.stack([m for _, m in pairs]))

    template = stacked([rand_pair() for _ in range(l)])

    def rand_clients(k):
        out = []
        for cid in range(k):
            bits = rng.integers(0, 2, size=l)
            if not bits.any():
                bits[int(rng.integers(0, l))] = 1
            amap = AllocationMap.from_bits(bits)
            delta = zero_delta_like(template)
            for j in amap.trainable_indices:
                delta.N[j], delta.M[j] = rand_pair()
            out.append((cid, delta, amap))
        return out

    # (i) first round, empty history and zero previous delta: plain layer means
    cds = rand_clients(5)
    new = com_agg(zero_delta_like(template), cds, RoundWindow(l, window=4))
    ref = fed_avg(cds, zero_delta_like(template))
    for j in range(l):
        assert np.array_equal(new[j][0], ref[j][0])
        assert np.array_equal(new[j][1], ref[j][1])

    # (ii) hand-derived blend coefficients, exact float arithmetic
    one = AllocationMap.from_bits([1])
    prev = stacked([(np.array([[4.0]]), np.array([[8.0]]))])
    mk = lambda v: stacked([(np.array([[v]]), np.array([[2.0 * v]]))])

    h = RoundWindow(1, window=2)
    push_counts(h, [4])
    push_counts(h, [2])  # window mean beta = 3
    new = com_agg(prev, [(0, mk(1.0), one)], h)  # alpha = 1: 3/4 prev + 1/4 mean
    assert new[0][0][0, 0] == 3.25 and new[0][1][0, 0] == 6.5

    h = RoundWindow(1, window=2)
    push_counts(h, [2])  # beta = 2
    new = com_agg(prev, [(0, mk(1.0), one), (1, mk(3.0), one)], h)  # alpha = 2: half and half
    assert new[0][0][0, 0] == 3.0 and new[0][1][0, 0] == 6.0

    # beta is read before this round's count lands in the window
    h = RoundWindow(1, window=4)
    new = com_agg(prev, [(0, mk(2.0), one), (1, mk(4.0), one)], h)  # beta 0: pure mean
    assert new[0][0][0, 0] == 3.0 and new[0][1][0, 0] == 6.0
    new = com_agg(prev, [(0, mk(1.0), one)], h)  # now beta = 2: 2/3 prev + 1/3 mean
    assert new[0][0][0, 0] == (2.0 / 3.0) * 4.0 + (1.0 / 3.0) * 1.0

    # (iii) every blended element stays inside the prev/mean envelope
    checked = 0
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        h = RoundWindow(1, window=int(rng.integers(1, 5)))
        for _ in range(int(rng.integers(0, h.window + 1))):
            push_counts(h, [int(rng.integers(0, 6))])
        prev = stacked([(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))])
        cds = [(cid, stacked([(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))]), one)
               for cid in range(k)]
        new = com_agg(prev, cds, h)
        for comp in (0, 1):
            mean_c = np.mean([d[0][comp] for _, d, _ in cds], axis=0)
            lo = np.minimum(prev[0][comp], mean_c) - 1e-12
            hi = np.maximum(prev[0][comp], mean_c) + 1e-12
            assert np.all(new[0][comp] >= lo) and np.all(new[0][comp] <= hi)
        checked += 1
    print(f"criterion 7 (compensated blend): PASS first round exact, coefficients exact, {checked} envelopes")


def test_08_federated_trends_across_seeds(tmp_path):
    t0 = time.monotonic()
    conditions = {
        "fedpilot+comagg": ("fedpilot", "comagg"),
        "fedra+comagg": ("fedra_random", "comagg"),
        "mh+comagg": ("mh", "comagg"),
        "fedpilot+fedavg": ("fedpilot", "fedavg"),
    }
    acc: dict[str, float] = {}
    util: dict[str, float] = {}
    for name, (strategy, aggregation) in conditions.items():
        finals, utils = [], []
        for seed in TREND_SEEDS:
            cfg = _trend_config(strategy, aggregation, seed)
            summary = run_experiment(cfg, tmp_path / name.replace("+", "_") / f"s{seed}", quiet=True)
            finals.append(summary["final_accuracy"])
            utils.append(summary["mean_utilization"])
        acc[name] = float(np.mean(finals))
        util[name] = float(np.mean(utils))
    dt = time.monotonic() - t0

    detail = " ".join(f"{k}:acc={acc[k]:.3f},util={util[k]:.3f}" for k in conditions)
    assert acc["fedpilot+comagg"] >= acc["fedra+comagg"], detail
    assert acc["fedpilot+comagg"] >= acc["mh+comagg"], detail
    assert util["fedpilot+comagg"] >= util["fedra+comagg"], detail
    assert acc["fedpilot+comagg"] >= acc["fedpilot+fedavg"] - 0.005, detail
    assert dt < 600.0, f"took {dt:.0f} s"
    print(f"criterion 8 (federated trends, 5 seeds): PASS {detail} in {dt:.0f} s")


def test_09_metrics_log_byte_identical(tmp_path):
    cfg = _trend_config("fedpilot", "comagg", TREND_SEEDS[0])
    run_experiment(cfg, tmp_path / "a", quiet=True)
    run_experiment(cfg, tmp_path / "b", quiet=True)
    metrics_a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    metrics_b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    assert metrics_a == metrics_b
    assert (tmp_path / "a" / "summary.json").read_bytes() == (tmp_path / "b" / "summary.json").read_bytes()
    print(f"criterion 9 (rerun determinism): PASS {len(metrics_a)} metric bytes identical")


def test_10_round_zero_equals_base_model(tmp_path):
    cfg = dataclasses.replace(_trend_config("fedpilot", "comagg", 0), rounds=0)
    run_experiment(cfg, tmp_path / "run", quiet=True)
    lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])

    _, test, _, _, _ = build_clients(cfg)
    m = cfg.model
    net = ToyLoRANet(num_blocks=m.num_blocks, hidden_size=m.hidden_size,
                     lora_rank=m.lora_rank, input_dim=m.input_dim,
                     num_classes=m.num_classes, lora_alpha=m.lora_alpha, seed=cfg.seed)
    loss, accuracy = net.evaluate(test.X, test.y)

    assert row["round"] == 0
    assert row["participants"] == 0
    assert row["mean_utilization"] == 0.0
    assert row["layer_counts"] == [0] * m.num_blocks
    assert row["accuracy"] == accuracy
    assert row["loss"] == loss
    print(f"criterion 10 (round zero equals base model): PASS acc={accuracy:.4f} loss={loss:.4f}")
