"""Shared helpers for the test suite.

Random profile generation, a vectorized exhaustive cost enumerator used as
an independent oracle by the allocator tests, a reference greedy that
prices every candidate through ``marginal_weight`` and normalizes one Python
float at a time, a reference toy-model
forward/backward/SGD loop that rebuilds every effective weight where it is
used and recomputes tanh in backward, a central difference that perturbs
one adapter entry through ``set_lora_state``, and the sequential
``fedra_random`` sampler that prices one random map at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedlorasim.allocator import (
    RATIO_EPS,
    AllocationResult,
    InfeasibleClientError,
    KnapsackInstance,
    SelectionStep,
)
from fedlorasim.memory import (
    AllocationMap,
    ModelProfile,
    marginal_weight,
    naive_map,
    total_memory,
)


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


def _normalize(raw: dict[int, int]) -> dict[int, float]:
    """Min-max scale raw weights into [RATIO_EPS, 1] across the candidate set,
    one Python float per candidate; equal weights all map to 1."""
    lo = min(raw.values())
    hi = max(raw.values())
    if hi == lo:
        return {j: 1.0 for j in raw}
    span = hi - lo
    return {j: RATIO_EPS + (1.0 - RATIO_EPS) * (w - lo) / span for j, w in raw.items()}


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


def reference_fedra_random(capacity_bytes: int, profile: ModelProfile, batch: int,
                            rng: np.random.Generator) -> tuple[AllocationMap | None, str]:
    """Up to 100 draws of one random map each, priced one at a time through
    ``total_memory``; the first that fits wins, else the deepest ``ms`` map
    that fits, else None.

    Returns the map and how it was reached: ``"first"`` (draw 1 fits),
    ``"late"`` (a later draw fits), ``"fallback"`` or ``"none"``.
    """
    l = profile.num_blocks
    for i in range(100):
        amap = AllocationMap.from_bits(rng.integers(0, 2, size=l))
        if total_memory(profile, amap, batch).total_bytes <= capacity_bytes:
            return amap, "first" if i == 0 else "late"
    for u in range(l, -1, -1):
        amap = naive_map(l, "ms", u)
        if total_memory(profile, amap, batch).total_bytes <= capacity_bytes:
            return amap, "fallback"
    return None, "none"


@dataclass
class ReferenceCache:
    logits: np.ndarray
    preacts: dict[int, np.ndarray]
    block_inputs: dict[int, np.ndarray]
    allocation: AllocationMap
    batch_size: int
    stamp: tuple[int, ...]


def rebuilding_forward(net, X: np.ndarray, allocation: AllocationMap):
    """``ToyLoRANet.forward`` as it was before weight reuse: every effective
    weight is rebuilt per call and the pre-tanh values are cached."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValueError(f"expected features of shape (n, {net.input_dim}), got {X.shape}")
    if len(allocation) != net.num_blocks:
        raise ValueError(
            f"allocation has {len(allocation)} blocks, net has {net.num_blocks}"
        )
    first = allocation.earliest
    trainable = set(allocation.trainable_indices)
    preacts: dict[int, np.ndarray] = {}
    block_inputs: dict[int, np.ndarray] = {}
    a = X @ net.embed
    for j in range(net.num_blocks):
        if j in trainable:
            block_inputs[j] = a
        z = a @ net.effective_weight(j) + net.b[j]
        if first is not None and j >= first:
            preacts[j] = z
        a = np.tanh(z)
    logits = a @ net.head
    return logits, ReferenceCache(
        logits=logits,
        preacts=preacts,
        block_inputs=block_inputs,
        allocation=allocation,
        batch_size=X.shape[0],
        stamp=net._changed_at,
    )


def rebuilding_backward(net, cache: ReferenceCache, y: np.ndarray, loss_scale: float = 1.0):
    """``ToyLoRANet.backward`` as it was before weight reuse: tanh' from the
    cached pre-tanh values, and the effective weights rebuilt on the way down."""
    assert cache.stamp == net._changed_at
    allocation = cache.allocation
    first = allocation.earliest
    if first is None:
        return {}
    y = np.asarray(y)
    logits = cache.logits
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    dlogits = probs.copy()
    dlogits[np.arange(len(y)), y] -= 1.0
    dlogits *= loss_scale / cache.batch_size

    grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    da = dlogits @ net.head.T
    trainable = set(allocation.trainable_indices)
    for j in range(net.num_blocks - 1, first - 1, -1):
        z = cache.preacts[j]
        dz = da * (1.0 - np.tanh(z) ** 2)
        if j in trainable:
            a_in = cache.block_inputs[j]
            dW = a_in.T @ dz
            grads[j] = (net.scale * (dW @ net.M[j].T), net.scale * (net.N[j].T @ dW))
        if j > first:
            da = dz @ net.effective_weight(j).T
    return grads


def rebuilding_local_train(net, X, y, allocation: AllocationMap, epochs=1, batch_size=32,
                          lr=0.1, rng=None):
    """``local_train``'s SGD loop over ``rebuilding_forward``/``rebuilding_backward``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    before = {j: (net.N[j], net.M[j]) for j in allocation.trainable_indices}
    n = len(X)
    for epoch in range(epochs):
        order = rng.permutation(n) if rng is not None else np.arange(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            logits, cache = rebuilding_forward(net, X[idx], allocation)
            loss = net.loss(logits, y[idx])
            assert np.isfinite(loss)
            grads = rebuilding_backward(net, cache, y[idx])
            net.set_lora_state({
                j: (net.N[j] - lr * gn, net.M[j] - lr * gm) for j, (gn, gm) in grads.items()
            })
    return {
        j: (net.N[j] - before[j][0], net.M[j] - before[j][1])
        for j in allocation.trainable_indices
    }


def central_difference(net, X, y, allocation: AllocationMap, j: int, k: int, idx, h: float):
    """d loss / d entry ``idx`` of block j's factor k (0: N, 1: M), by
    central differences written through ``set_lora_state``; the original
    factors are restored afterwards."""
    orig = (net.N[j], net.M[j])
    losses = []
    for step in (h, -h):
        factors = [orig[0].copy(), orig[1].copy()]
        factors[k][idx] += step
        net.set_lora_state({j: tuple(factors)})
        losses.append(net.loss(net.forward(X, allocation)[0], y))
    net.set_lora_state({j: orig})
    return (losses[0] - losses[1]) / (2 * h)
