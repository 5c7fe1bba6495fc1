"""Memory model: frozen reference values, exact identities, validation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fedlorasim.memory import (
    GB,
    MB,
    AllocationMap,
    MapMismatchError,
    MemoryBreakdown,
    ProfileValidationError,
    VIT_CONTEXT_MB_BY_LEVEL,
    marginal_weight,
    marginal_weights,
    naive_map,
    profile_from_config,
    reference_vit_profile,
    total_memory,
    transformer_dynamic_elems,
    transformer_static_elems,
)

from conftest import make_random_profile


# Hand-computed element counts for the ViT-Base reference geometry
# (seq 197, hidden 768, rank 16): frozen into the suite as the oracle.
VIT_STATIC_ELEMS = 1_439_282
VIT_DYNAMIC_ELEMS = 308_896
VIT_LORA_COUNT = 49_152
VIT_FROZEN_BYTES = 345_556_992

# Exact totals for the three published operating points (batch 496, fp32).
FULL12_BYTES = 47_775_616_000       # all 12 blocks, level-4 context
FIRST6_BYTES = 40_574_979_072       # first 6 blocks, level-2 context
LAST6_BYTES = 23_441_766_144        # last 6 blocks, level-2 context


def test_transformer_elem_formulas():
    assert transformer_static_elems(197, 768) == VIT_STATIC_ELEMS
    assert transformer_dynamic_elems(197, 768, 16) == VIT_DYNAMIC_ELEMS


def test_reference_profile_constants():
    p = reference_vit_profile()
    assert p.num_blocks == 12
    assert p.lora_param_count_per_block == VIT_LORA_COUNT
    assert p.frozen_param_bytes == VIT_FROZEN_BYTES
    assert p.static_act_per_sample == (VIT_STATIC_ELEMS,) * 12
    assert p.dynamic_act_per_sample == (VIT_DYNAMIC_ELEMS,) * 12
    assert p.context_bytes == 5800 * MB
    assert p.param_bytes == VIT_FROZEN_BYTES + 12 * VIT_LORA_COUNT * 4


def test_reference_totals_match_published_measurements():
    batch = 496
    full = total_memory(reference_vit_profile(), AllocationMap.full(12), batch)
    assert full.total_bytes == FULL12_BYTES
    assert abs(full.total_gb - 47.77) < 0.01

    p2 = reference_vit_profile(context_bytes=VIT_CONTEXT_MB_BY_LEVEL[2] * MB)
    first6 = total_memory(p2, naive_map(12, "mh", 6), batch)
    assert first6.total_bytes == FIRST6_BYTES
    assert abs(first6.total_gb - 40.57) < 0.01

    last6 = total_memory(p2, naive_map(12, "ms", 6), batch)
    assert last6.total_bytes == LAST6_BYTES
    assert abs(last6.total_gb - 23.44) < 0.01


def test_breakdown_parts_sum_to_total():
    bd = total_memory(reference_vit_profile(), AllocationMap.from_indices(12, [3, 7]), 8)
    assert bd.total_bytes == (
        bd.params_bytes
        + bd.optimizer_bytes
        + bd.activation_dynamic_bytes
        + bd.activation_static_bytes
        + bd.context_bytes
    )
    assert bd.activation_bytes == bd.activation_dynamic_bytes + bd.activation_static_bytes
    assert bd.as_dict()["total_bytes"] == bd.total_bytes
    assert bd.total_gb == bd.total_bytes / GB


def test_empty_map_costs_params_plus_context_only():
    p = reference_vit_profile()
    bd = total_memory(p, AllocationMap.empty(12), 496)
    assert bd.optimizer_bytes == 0
    assert bd.activation_dynamic_bytes == 0
    assert bd.activation_static_bytes == 0
    assert bd.total_bytes == p.param_bytes + p.context_bytes


def test_ms_mh_gap_identity_random_profiles():
    # training the first u blocks costs exactly the static bill of the
    # skipped prefix more than training the last u (dynamic bills cancel
    # when blocks share a dynamic footprint, as transformer stacks do)
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = make_random_profile(rng, min_blocks=2, uniform_dynamic=True)
        batch = int(rng.integers(1, 64))
        u = int(rng.integers(1, p.num_blocks))
        mh = total_memory(p, naive_map(p.num_blocks, "mh", u), batch).total_bytes
        ms = total_memory(p, naive_map(p.num_blocks, "ms", u), batch).total_bytes
        prefix = sum(p.static_act_per_sample[: p.num_blocks - u])
        assert mh - ms == batch * p.bytes_per_elem * prefix


def test_marginal_weight_matches_total_difference_exhaustive_small():
    # the difference holds for non-empty maps only: the very first pick
    # deliberately bills the fixed parameter and context costs on top of it.
    # The cost vector for the map's earliest block matches the oracle on
    # every map, the empty one included.
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = make_random_profile(rng, max_blocks=8)
        batch = int(rng.integers(1, 32))
        l = p.num_blocks
        vectors = {first: marginal_weights(p, batch, first) for first in [None, *range(l)]}
        for code in range(1 << l):
            bits = [(code >> j) & 1 for j in range(l)]
            amap = AllocationMap.from_bits(bits)
            base = total_memory(p, amap, batch).total_bytes
            for j in range(l):
                if bits[j]:
                    continue
                weight = marginal_weight(p, amap, j, batch)
                assert vectors[amap.earliest][j] == weight
                if code:
                    grown = total_memory(p, amap.with_block(j), batch).total_bytes
                    assert weight == grown - base


def test_first_pick_pays_params_and_context():
    p = reference_vit_profile()
    w = marginal_weight(p, AllocationMap.empty(12), 11, 496)
    assert w == total_memory(p, AllocationMap.from_indices(12, [11]), 496).total_bytes
    assert w > p.param_bytes + p.context_bytes


def test_optimizer_increment_for_reference_block():
    # adding one more block behind the current earliest costs the optimizer
    # slice plus that block's dynamic activations, nothing static
    p = reference_vit_profile()
    amap = AllocationMap.from_indices(12, [5])
    w = marginal_weight(p, amap, 9, 496)
    assert w == 3 * 4 * VIT_LORA_COUNT + 496 * 4 * VIT_DYNAMIC_ELEMS
    assert 3 * 4 * VIT_LORA_COUNT == 589_824


def test_adding_block_is_monotone():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p = make_random_profile(rng)
        batch = int(rng.integers(1, 32))
        bits = rng.integers(0, 2, size=p.num_blocks).astype(bool)
        amap = AllocationMap.from_bits(bits)
        total = total_memory(p, amap, batch).total_bytes
        for j in range(p.num_blocks):
            if not bits[j]:
                grown = total_memory(p, amap.with_block(j), batch).total_bytes
                assert grown >= total


def test_static_bill_depends_only_on_earliest_block():
    p = reference_vit_profile()
    a = total_memory(p, AllocationMap.from_indices(12, [4]), 16)
    b = total_memory(p, AllocationMap.from_indices(12, [4, 9, 11]), 16)
    assert a.activation_static_bytes == b.activation_static_bytes


def test_naive_map_shapes():
    assert naive_map(12, "ms", 3).trainable_indices == (9, 10, 11)
    assert naive_map(12, "mh", 3).trainable_indices == (0, 1, 2)
    assert naive_map(12, "full").count == 12
    assert naive_map(12, "el").count == 12
    assert naive_map(5, "MS", 0).count == 0
    with pytest.raises(ValueError):
        naive_map(12, "ms")
    with pytest.raises(ValueError):
        naive_map(12, "ms", 13)
    with pytest.raises(ValueError):
        naive_map(12, "banana", 1)


def test_allocation_map_basics():
    m = AllocationMap.from_bitstring("010010")
    assert m.trainable_indices == (1, 4)
    assert m.earliest == 1
    assert m.count == 2
    assert m.to_bitstring() == "010010"
    assert AllocationMap.empty(4).earliest is None
    assert len(AllocationMap.full(7)) == 7
    grown = m.with_block(0)
    assert grown.earliest == 0 and m.earliest == 1
    with pytest.raises(ValueError):
        AllocationMap.from_indices(4, [4])
    with pytest.raises(ValueError):
        AllocationMap.from_bitstring("10a1")
    with pytest.raises(ValueError):
        AllocationMap.from_bitstring("")


def test_profile_validation():
    good = dataclasses.asdict(reference_vit_profile())
    assert profile_from_config(good) == reference_vit_profile()

    bad = dict(good)
    bad["static_act_per_sample"] = [1, 2, 3]
    with pytest.raises(ProfileValidationError):
        profile_from_config(bad)

    bad = dict(good)
    bad["num_blocks"] = 0
    with pytest.raises(ProfileValidationError):
        profile_from_config(bad)

    bad = dict(good)
    bad["context_bytes"] = -1
    with pytest.raises(ProfileValidationError):
        profile_from_config(bad)

    bad = dict(good)
    del bad["seq_len"]
    with pytest.raises(ProfileValidationError):
        profile_from_config(bad)

    bad = dict(good)
    bad["surprise"] = 1
    with pytest.raises(ProfileValidationError):
        profile_from_config(bad)


def test_usage_errors():
    p = reference_vit_profile()
    with pytest.raises(MapMismatchError):
        total_memory(p, AllocationMap.empty(6), 1)
    with pytest.raises(ValueError):
        total_memory(p, AllocationMap.empty(12), 0)
    amap = AllocationMap.from_indices(12, [2])
    with pytest.raises(ValueError):
        marginal_weight(p, amap, 2, 1)
    with pytest.raises(ValueError):
        marginal_weight(p, amap, 12, 1)
    for batch in (0, -1, 2.0, True):
        with pytest.raises(ValueError, match="batch"):
            marginal_weights(p, batch, None)
    for first in (-1, 12, 1.0, True):
        with pytest.raises(ValueError, match="first"):
            marginal_weights(p, 1, first)
