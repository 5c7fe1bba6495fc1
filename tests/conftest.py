"""Shared helpers for the test suite.

Random profile generation, a vectorized exhaustive cost enumerator used as
an independent oracle by the allocator tests, and a reference greedy that
prices every candidate through ``marginal_weight``.
"""

from __future__ import annotations

import numpy as np

from fedlorasim.allocator import (
    AllocationResult,
    InfeasibleClientError,
    KnapsackInstance,
    SelectionStep,
    _normalize,
)
from fedlorasim.memory import AllocationMap, ModelProfile, marginal_weight, total_memory


def make_random_profile(
    rng: np.random.Generator,
    max_blocks: int = 16,
    min_blocks: int = 1,
    uniform_dynamic: bool = False,
) -> ModelProfile:
    """Draw a structurally valid profile with varied per-block footprints.

    ``uniform_dynamic`` replicates one dynamic footprint across blocks, the
    shape real transformer stacks have; the first/last-u gap identity only
    holds in that regime because the dynamic bills then cancel.
    """
    l = int(rng.integers(min_blocks, max_blocks + 1))
    if uniform_dynamic:
        dynamic = (int(rng.integers(0, 5000)),) * l
    else:
        dynamic = tuple(int(x) for x in rng.integers(0, 5000, size=l))
    return ModelProfile(
        num_blocks=l,
        hidden_size=int(rng.integers(1, 64)),
        seq_len=int(rng.integers(1, 64)),
        lora_rank=int(rng.integers(1, 8)),
        bytes_per_elem=int(rng.choice([1, 2, 4, 8])),
        optimizer_states=int(rng.integers(0, 4)),
        frozen_param_bytes=int(rng.integers(0, 10**7)),
        lora_param_count_per_block=int(rng.integers(0, 10**4)),
        static_act_per_sample=tuple(int(x) for x in rng.integers(0, 5000, size=l)),
        dynamic_act_per_sample=dynamic,
        context_bytes=int(rng.integers(0, 10**7)),
    )


def all_maps(num_blocks: int) -> np.ndarray:
    """All 2^l allocation maps as a (2^l, l) boolean array, index = bit pattern."""
    n = 1 << num_blocks
    codes = np.arange(n, dtype=np.uint32)
    return (codes[:, None] >> np.arange(num_blocks, dtype=np.uint32)[None, :]) & 1 == 1


def enumerate_costs(profile: ModelProfile, batch: int, maps: np.ndarray | None = None) -> np.ndarray:
    """Total memory in bytes for every map, computed in one vectorized pass.

    Independent re-derivation of the cost rule (no incremental bookkeeping):
    params + context + optimizer per trainable block + batch-scaled dynamic
    activations of trainable blocks + batch-scaled static activations from the
    earliest trainable block onward.
    """
    l = profile.num_blocks
    if maps is None:
        maps = all_maps(l)
    eta = profile.bytes_per_elem
    base = profile.param_bytes + profile.context_bytes
    opt_per_block = profile.optimizer_states * eta * profile.lora_param_count_per_block
    dyn = np.asarray(profile.dynamic_act_per_sample, dtype=np.int64)
    static_tail = np.asarray(profile.static_tail_elems, dtype=np.int64)
    counts = maps.sum(axis=1)
    dyn_cost = batch * eta * (maps @ dyn)
    first = np.where(maps.any(axis=1), maps.argmax(axis=1), l)
    static_cost = batch * eta * static_tail[first]
    return base + opt_per_block * counts + dyn_cost + static_cost


def cost_of(profile: ModelProfile, bits, batch: int) -> int:
    """Scalar convenience wrapper over total_memory for tests."""
    return total_memory(profile, AllocationMap.from_bits(bits), batch).total_bytes


def _reference_greedy(instance: KnapsackInstance, forced_first: int | None = None):
    profile = instance.profile
    amap = AllocationMap.empty(profile.num_blocks)
    residual = instance.capacity_bytes
    trace: list[SelectionStep] = []
    for step in range(profile.num_blocks):
        candidates = [j for j in range(profile.num_blocks) if not amap.bits[j]]
        raw = {j: marginal_weight(profile, amap, j, instance.batch) for j in candidates}
        norm = _normalize(raw)
        feasible = [j for j in candidates if raw[j] <= residual]
        if not feasible:
            break
        if step == 0 and forced_first is not None:
            pick = forced_first
        else:
            pick = max(feasible, key=lambda j: (instance.values[j] / norm[j], j))
        trace.append(
            SelectionStep(
                step=step,
                block=pick,
                raw_weight_bytes=raw[pick],
                normalized_weight=norm[pick],
                ratio=instance.values[pick] / norm[pick],
            )
        )
        residual -= raw[pick]
        amap = amap.with_block(pick)
    return amap, tuple(trace)


def reference_allocation(instance: KnapsackInstance) -> AllocationResult:
    """The O(L^2) greedy that asks ``marginal_weight`` for every candidate at
    every step, with the best-singleton guard pass over L oracle calls.

    ``optimize_allocation`` must return exactly this result, trace included.
    """
    profile = instance.profile
    base = total_memory(profile, AllocationMap.empty(profile.num_blocks), instance.batch)
    if base.total_bytes > instance.capacity_bytes:
        raise InfeasibleClientError(
            f"fixed footprint {base.total_bytes} B exceeds capacity {instance.capacity_bytes} B"
        )

    amap, trace = _reference_greedy(instance)
    total_value = sum(instance.values[j] for j in amap.trainable_indices)

    best_j, best_v = None, 0.0
    empty = AllocationMap.empty(profile.num_blocks)
    for j in range(profile.num_blocks):
        w = marginal_weight(profile, empty, j, instance.batch)
        v = instance.values[j]
        if w <= instance.capacity_bytes and (best_j is None or (v, j) > (best_v, best_j)):
            best_j, best_v = j, v
    if best_j is not None and best_v > total_value:
        amap, trace = _reference_greedy(instance, forced_first=best_j)
        total_value = sum(instance.values[j] for j in amap.trainable_indices)

    memory = total_memory(profile, amap, instance.batch)
    return AllocationResult(map=amap, total_value=total_value, memory=memory, selection_trace=trace)
