"""Allocator: feasibility, maximality, determinism, oracle comparisons."""

from __future__ import annotations

import numpy as np
import pytest

import fedlorasim.allocator
from fedlorasim.allocator import (
    RATIO_EPS,
    AllocationResult,
    CostVectorMismatch,
    InfeasibleClientError,
    KnapsackInstance,
    optimize_allocation,
)
from fedlorasim.memory import (
    GB,
    AllocationMap,
    ModelProfile,
    marginal_weight,
    reference_vit_profile,
    total_memory,
)

from conftest import all_maps, enumerate_costs, make_random_profile, reference_allocation


def random_instance(rng, max_blocks=12) -> KnapsackInstance:
    p = make_random_profile(rng, max_blocks=max_blocks)
    batch = int(rng.integers(1, 32))
    lo = total_memory(p, AllocationMap.empty(p.num_blocks), batch).total_bytes
    hi = total_memory(p, AllocationMap.full(p.num_blocks), batch).total_bytes
    capacity = int(rng.integers(lo, hi + 2))
    values = rng.random(p.num_blocks)
    return KnapsackInstance(profile=p, capacity_bytes=capacity, batch=batch, values=tuple(values))


def test_everything_fits_selects_all():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = make_random_profile(rng)
        batch = int(rng.integers(1, 16))
        hi = total_memory(p, AllocationMap.full(p.num_blocks), batch).total_bytes
        inst = KnapsackInstance(p, hi, batch, tuple(rng.random(p.num_blocks)))
        res = optimize_allocation(inst)
        assert res.map.count == p.num_blocks
        assert res.memory.total_bytes == hi


def test_infeasible_base_raises():
    p = reference_vit_profile()
    base = total_memory(p, AllocationMap.empty(12), 496).total_bytes
    with pytest.raises(InfeasibleClientError):
        optimize_allocation(KnapsackInstance(p, base - 1, 496, (1.0,) * 12))
    # exactly the base is feasible: empty map comes back, no error
    res = optimize_allocation(KnapsackInstance(p, base, 496, (1.0,) * 12))
    assert res.map.count == 0
    assert res.total_value == 0.0
    assert res.selection_trace == ()


def test_feasibility_and_maximality_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        inst = random_instance(rng)
        res = optimize_allocation(inst)
        assert res.memory.total_bytes <= inst.capacity_bytes
        assert res.memory.total_bytes == total_memory(inst.profile, res.map, inst.batch).total_bytes
        residual = inst.capacity_bytes - res.memory.total_bytes
        for j in range(inst.profile.num_blocks):
            if not res.map.bits[j]:
                assert marginal_weight(inst.profile, res.map, j, inst.batch) > residual


def test_total_value_matches_map():
    rng = np.random.default_rng(4)
    for _ in range(50):
        inst = random_instance(rng)
        res = optimize_allocation(inst)
        assert res.total_value == pytest.approx(
            sum(inst.values[j] for j in res.map.trainable_indices)
        )


def test_trace_telescopes_to_total():
    rng = np.random.default_rng(5)
    for _ in range(50):
        inst = random_instance(rng)
        res = optimize_allocation(inst)
        raw_sum = sum(s.raw_weight_bytes for s in res.selection_trace)
        if res.map.count:
            assert raw_sum == res.memory.total_bytes
        assert [s.step for s in res.selection_trace] == list(range(res.map.count))
        assert sorted(s.block for s in res.selection_trace) == list(res.map.trainable_indices)
        for s in res.selection_trace:
            assert RATIO_EPS <= s.normalized_weight <= 1.0
            assert s.ratio == pytest.approx(inst.values[s.block] / s.normalized_weight)


def test_determinism():
    rng = np.random.default_rng(6)
    for _ in range(20):
        inst = random_instance(rng)
        assert optimize_allocation(inst) == optimize_allocation(inst)


def adversarial_profile() -> ModelProfile:
    # one expensive high-value shallow module vs a swarm of near-free
    # low-value deep ones whose epsilon weights dominate the ratio
    return ModelProfile(
        num_blocks=6,
        hidden_size=1,
        seq_len=1,
        lora_rank=1,
        bytes_per_elem=1,
        optimizer_states=0,
        frozen_param_bytes=0,
        lora_param_count_per_block=0,
        static_act_per_sample=(1000, 0, 0, 0, 0, 0),
        dynamic_act_per_sample=(0, 1, 1, 1, 1, 1),
        context_bytes=0,
    )


ADVERSARIAL_VALUES = (10.0, 0.001, 0.001, 0.001, 0.001, 0.001)


def test_never_worse_than_best_singleton_adversarial():
    res = optimize_allocation(KnapsackInstance(adversarial_profile(), 1000, 1, ADVERSARIAL_VALUES))
    assert res.total_value >= 10.0
    assert res.map.bits[0]
    assert res.memory.total_bytes <= 1000


def test_never_worse_than_best_singleton_random():
    rng = np.random.default_rng(8)
    for _ in range(200):
        inst = random_instance(rng)
        res = optimize_allocation(inst)
        best = 0.0
        empty = AllocationMap.empty(inst.profile.num_blocks)
        for j in range(inst.profile.num_blocks):
            w = marginal_weight(inst.profile, empty, j, inst.batch)
            if w <= inst.capacity_bytes:
                best = max(best, inst.values[j])
        assert res.total_value >= best - 1e-12


def test_greedy_never_beats_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(60):
        inst = random_instance(rng, max_blocks=10)
        res = optimize_allocation(inst)
        l = inst.profile.num_blocks
        maps = all_maps(l)
        costs = enumerate_costs(inst.profile, inst.batch, maps)
        vals = maps @ np.asarray(inst.values)
        feasible = costs <= inst.capacity_bytes
        assert feasible.any()
        optimal = vals[feasible].max()
        assert res.total_value <= optimal + 1e-9


def test_positive_values_selected_before_zero_values():
    p = ModelProfile(
        num_blocks=4,
        hidden_size=1,
        seq_len=1,
        lora_rank=1,
        bytes_per_elem=1,
        optimizer_states=1,
        frozen_param_bytes=0,
        lora_param_count_per_block=8,
        static_act_per_sample=(0, 0, 0, 0),
        dynamic_act_per_sample=(1, 1, 1, 1),
        context_bytes=0,
    )
    res = optimize_allocation(KnapsackInstance(p, 10**6, 1, (0.0, 0.0, 1.0, 1.0)))
    assert res.map.count == 4
    assert {s.block for s in res.selection_trace[:2]} == {2, 3}


def test_vit_uniform_values_picks_deep_suffix():
    # deep modules never extend the static range, so uniform values walk
    # the stack from the top down until the budget runs out
    p = reference_vit_profile()
    res = optimize_allocation(KnapsackInstance(p, 24 * GB, 496, (1.0,) * 12))
    assert res.map.trainable_indices == (7, 8, 9, 10, 11)
    assert [s.block for s in res.selection_trace] == [11, 10, 9, 8, 7]


def test_instance_validation():
    p = reference_vit_profile()
    with pytest.raises(ValueError):
        KnapsackInstance(p, 0, 1, (1.0,) * 12)
    with pytest.raises(ValueError):
        KnapsackInstance(p, 10**9, 1, (1.0,) * 11)
    with pytest.raises(ValueError):
        KnapsackInstance(p, 10**9, 1, (-1.0,) + (1.0,) * 11)
    with pytest.raises(ValueError):
        KnapsackInstance(p, 10**9, 1, (float("nan"),) + (1.0,) * 11)


def test_instance_rejects_non_int_capacity_and_batch_when_built():
    p = reference_vit_profile()
    values = (1.0,) * 12
    for capacity in (True, 24e9, 24.0 * GB, "24000000000", None, -5):
        with pytest.raises(ValueError, match="capacity_bytes must be a positive int"):
            KnapsackInstance(p, capacity, 496, values)
    for batch in (True, 496.0, "496", 0, np.int64(496)):
        with pytest.raises(ValueError, match="batch must be a positive int"):
            KnapsackInstance(p, 24 * GB, batch, values)


def test_instance_rejects_costs_from_2_to_the_53():
    # below 2**53 every cost converts to a float exactly, which is what makes
    # the array normalization equal the per-candidate one
    def profile(frozen):
        return ModelProfile(num_blocks=3, hidden_size=1, seq_len=1, lora_rank=1,
                            bytes_per_elem=1, optimizer_states=1, frozen_param_bytes=frozen,
                            lora_param_count_per_block=1, static_act_per_sample=(1, 1, 1),
                            dynamic_act_per_sample=(1, 1, 1), context_bytes=0)

    rest = total_memory(profile(0), AllocationMap.full(3), 1).total_bytes
    top = profile(2**53 - 1 - rest)
    assert total_memory(top, AllocationMap.full(3), 1).total_bytes == 2**53 - 1
    res = optimize_allocation(KnapsackInstance(top, 2**53 - 1, 1, (1.0, 2.0, 3.0)))
    assert res.as_dict() == reference_allocation(KnapsackInstance(top, 2**53 - 1, 1,
                                                                  (1.0, 2.0, 3.0))).as_dict()
    assert res.map.count == 3
    with pytest.raises(ValueError, match="below 2\\*\\*53"):
        KnapsackInstance(profile(2**53 - rest), 2**60, 1, (1.0, 2.0, 3.0))


def test_capacity_beyond_every_cost_fits_everything():
    p = reference_vit_profile()
    res = optimize_allocation(KnapsackInstance(p, 2**80, 496, (1.0,) * 12))
    assert res.map == AllocationMap.full(12)


def test_result_serializes():
    p = reference_vit_profile()
    res = optimize_allocation(KnapsackInstance(p, 24 * GB, 496, (1.0,) * 12))
    d = res.as_dict()
    assert d["map"] == "000000011111"
    assert d["memory"]["total_bytes"] == res.memory.total_bytes
    assert len(d["selection_trace"]) == 5


def varied_instance(rng, min_blocks=1, max_blocks=16) -> KnapsackInstance:
    """Random instance whose values mix continuous draws, ties and zeros, so
    shallow picks (which move the earliest block) happen often."""
    p = make_random_profile(rng, max_blocks=max_blocks, min_blocks=min_blocks)
    batch = int(rng.choice([1, 8, 32]))
    lo = total_memory(p, AllocationMap.empty(p.num_blocks), batch).total_bytes
    hi = total_memory(p, AllocationMap.full(p.num_blocks), batch).total_bytes
    capacity = int(rng.integers(lo, hi + 2))
    kind = int(rng.integers(3))
    if kind == 0:
        values = rng.random(p.num_blocks)
    elif kind == 1:
        values = rng.integers(0, 3, size=p.num_blocks).astype(float)
    else:
        values = 10.0 * rng.random(p.num_blocks) ** 4
    return KnapsackInstance(p, capacity, batch, tuple(values))


def test_matches_reference_greedy_random():
    rng = np.random.default_rng(21)
    for _ in range(300):
        inst = varied_instance(rng)
        assert optimize_allocation(inst).as_dict() == reference_allocation(inst).as_dict()


def test_matches_reference_greedy_deep():
    rng = np.random.default_rng(22)
    for l in (32, 32, 32, 96, 96):
        inst = varied_instance(rng, min_blocks=l, max_blocks=l)
        assert optimize_allocation(inst).as_dict() == reference_allocation(inst).as_dict()


def test_matches_reference_greedy_guard_pass():
    p = adversarial_profile()
    for capacity in (999, 1000, 1001, 1003, 1005, 2000):
        for values in (ADVERSARIAL_VALUES, ADVERSARIAL_VALUES[::-1], (0.0,) * 6):
            inst = KnapsackInstance(p, capacity, 1, values)
            assert optimize_allocation(inst).as_dict() == reference_allocation(inst).as_dict()


def test_cost_vector_checked_against_oracle(monkeypatch):
    real = fedlorasim.allocator.marginal_weights
    monkeypatch.setattr(fedlorasim.allocator, "marginal_weights", lambda p, b: real(p, b) + 1)
    inst = KnapsackInstance(reference_vit_profile(), 24 * GB, 496, (1.0,) * 12)
    with pytest.raises(CostVectorMismatch, match="block 11: .* marginal_weight gives"):
        optimize_allocation(inst)
