"""Shared helpers for the test suite.

Random profile generation, a vectorized exhaustive cost enumerator used as
an independent oracle by the allocator tests, a reference greedy that
prices every candidate through ``marginal_weight`` and normalizes one Python
float at a time, a reference toy-model
forward/backward/SGD loop that rebuilds every effective weight where it is
used and recomputes tanh in backward, a reference cross-entropy, group and
one-client calls of the lockstep ``forward``, ``backward``, ``local_train``
and ``local_ig_scores`` that build the group input, rows of
``Activations``, sequential mini-batches, a write of some blocks' adapters
through ``set_lora_state``, a central difference that perturbs one adapter entry
that way, the sequential ``fedra_random`` sampler that prices one random
map at a time, the two windows ``RoundWindow`` replaced (the IG score
buffers evicted by round cutoff and the ``maxlen`` deques of contributor
counts), and the per-layer aggregation loop over ``{block: (dN, dM)}`` dicts
that the stacked blend replaced.
"""

from __future__ import annotations

import dataclasses
from collections import deque
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
from fedlorasim.scoring import local_ig_scores
from fedlorasim.toymodel import Activations, Adapters, local_train


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


def reference_cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    """Mean softmax cross-entropy of (B, K) logits, as ``ToyLoRANet.loss``
    computed it before ``ForwardCache.losses``."""
    y = np.asarray(y)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(y)), y].mean())


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
    """``local_train``'s SGD loop over ``rebuilding_forward``/``rebuilding_backward``;
    the deltas are zero rows on the blocks ``allocation`` does not train."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    before = net.get_lora_state()
    n = len(X)
    for epoch in range(epochs):
        order = rng.permutation(n) if rng is not None else np.arange(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            logits, cache = rebuilding_forward(net, X[idx], allocation)
            assert np.isfinite(reference_cross_entropy(logits, y[idx]))
            grads = rebuilding_backward(net, cache, y[idx])
            write_blocks(net, {
                j: (net.N[j] - lr * gn, net.M[j] - lr * gm) for j, (gn, gm) in grads.items()
            })
    after = net.get_lora_state()
    return Adapters(after.N - before.N, after.M - before.M)


def write_blocks(net, blocks) -> None:
    """Write the (N, M) factors of the blocks in ``blocks`` through
    ``set_lora_state``, keeping every other block's."""
    state = net.get_lora_state()
    for j, (n, m) in blocks.items():
        state.N[j], state.M[j] = n, m
    net.set_lora_state(state)


def same_bytes(a: Adapters, b: Adapters) -> bool:
    """Whether two ``Adapters`` hold the same shapes and bytes."""
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in ((a.N, b.N), (a.M, b.M)))


def split_batches(X: np.ndarray, y: np.ndarray, batch_size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sequential mini-batches covering the data once (last one may be short)."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if len(X) == 0:
        raise ValueError("cannot batch an empty dataset")
    return [(X[s : s + batch_size], y[s : s + batch_size]) for s in range(0, len(X), batch_size)]


def all_rows(group):
    """The (C, n) row index that takes every row of a group's input."""
    c, n = group.data.shape[:2]
    return np.broadcast_to(np.arange(n), (c, n))


def own_arrays(cache):
    """``cache`` with copies of the arrays it views in the net's scratch,
    for a test that compares them with those of a later pass."""
    copy = lambda d: {j: a.copy() for j, a in d.items()}  # noqa: E731
    return dataclasses.replace(cache, acts=copy(cache.acts), block_inputs=copy(cache.block_inputs))


def forward_group(net, inputs, maps):
    """``ToyLoRANet.forward`` over every row of one input per map: the
    (C, B, K) logits and the cache, whose arrays are copies (``own_arrays``)."""
    group = net.group_input(inputs, maps)
    logits, cache = net.forward(group, all_rows(group))
    return logits, own_arrays(cache)


def forward_one(net, X, allocation: AllocationMap):
    """``forward_group`` for a group of one client: its (B, K) logits and
    the cache."""
    logits, cache = forward_group(net, [X], [allocation])
    return logits[0], cache


def backward_one(net, cache, y, loss_scale=1.0):
    """``ToyLoRANet.backward`` for a group of one client: its gradients."""
    grads = net.backward(cache, np.asarray(y)[None], loss_scale=loss_scale)
    return {j: (gn[0], gm[0]) for j, (gn, gm) in grads.items()}


def train_group(net, inputs, labels, maps, **kw):
    """``local_train`` of one input, label array and map per client."""
    return local_train(net, net.group_input(inputs, maps), np.stack(labels), **kw)


def train_one(net, X, y, allocation: AllocationMap, rng=None, **kw):
    """``local_train`` for a group of one client: its deltas."""
    return train_group(net, [X], [y], [allocation], rng=[rng], **kw)[0]


def score_group(net, maps, batches, loss_scale=1.0):
    """``local_ig_scores`` of a group given one list of (input, labels)
    batches per client, batch i of one row count for every client: a
    client's batches, joined, are its input, and batch i takes its rows. An
    ``Activations`` input is one client's only batch."""
    inputs, labels = [], []
    for client in batches:
        xs, ys = zip(*client)
        if len(xs) > 1 and any(isinstance(x, Activations) for x in xs):
            raise TypeError("activations make a client's only scoring batch")
        inputs.append(xs[0] if len(xs) == 1 else np.concatenate(xs))
        labels.append(np.concatenate([np.asarray(y) for y in ys]))
    cuts = np.cumsum([0, *(len(y) for _, y in batches[0])])
    rows = [np.broadcast_to(np.arange(lo, hi), (len(maps), hi - lo))
            for lo, hi in zip(cuts, cuts[1:])]
    return local_ig_scores(net, net.group_input(inputs, maps), np.stack(labels), rows,
                           loss_scale=loss_scale)


def score_one(net, allocation: AllocationMap, batches, loss_scale=1.0):
    """``score_group`` for a group of one client: its scores."""
    return score_group(net, [allocation], [batches], loss_scale=loss_scale)[0]


def rows_of(acts, rows):
    """Rows ``rows`` of ``Activations``, with their block, base and stamp."""
    data = acts.data[rows]
    data.setflags(write=False)
    return Activations(acts.block, data, acts.base, acts.stamp)


class ReferenceScoreHistory:
    """The IG score window as it was kept before ``RoundWindow``: per-module
    (round, cross-client mean) buffers, evicted by a round cutoff after
    every update and averaged left to right."""

    def __init__(self, num_blocks: int, window: int):
        self.window = window
        self.buffers = [deque() for _ in range(num_blocks)]

    def update(self, records, round: int) -> None:
        means = {}
        for j in range(len(self.buffers)):
            reported = [rec.module_scores[j] for rec in records if j in rec.module_scores]
            if reported:
                means[j] = sum(reported) / len(reported)
        self.push(round, means)

    def push(self, round: int, values: dict) -> None:
        """Append each given module's value, then evict by the round cutoff."""
        for j, v in values.items():
            self.buffers[j].append((round, v))
        for buf in self.buffers:
            while buf and buf[0][0] <= round - self.window:
                buf.popleft()

    def means(self) -> tuple[float, ...]:
        return tuple(sum(m for _, m in buf) / len(buf) if buf else 0.0 for buf in self.buffers)


class ReferenceContributionHistory:
    """Contributor counts as they were kept before ``RoundWindow``: one
    ``maxlen`` deque per layer, beta re-summed on every read."""

    def __init__(self, num_blocks: int, window: int):
        self.counts = [deque(maxlen=window) for _ in range(num_blocks)]

    def append(self, counts) -> None:
        for buf, c in zip(self.counts, counts):
            buf.append(int(c))

    def beta(self, j: int) -> float:
        buf = self.counts[j]
        return sum(buf) / len(buf) if buf else 0.0


def push_counts(window, counts) -> None:
    """Push one round of per-layer contributor counts, as ``com_agg`` does."""
    window.push(window.round + 1, dict(enumerate(counts)))


def central_difference(net, X, y, allocation: AllocationMap, j: int, k: int, idx, h: float):
    """d loss / d entry ``idx`` of block j's factor k (0: N, 1: M), by
    central differences written through ``set_lora_state``; the original
    factors are restored afterwards."""
    orig = (net.N[j], net.M[j])
    losses = []
    for step in (h, -h):
        factors = [orig[0].copy(), orig[1].copy()]
        factors[k][idx] += step
        write_blocks(net, {j: factors})
        losses.append(reference_cross_entropy(forward_one(net, X, allocation)[0], y))
    write_blocks(net, {j: orig})
    return (losses[0] - losses[1]) / (2 * h)


def _reference_layer_mean(contributions: list[tuple[np.ndarray, np.ndarray]]):
    sn = contributions[0][0].copy()
    sm = contributions[0][1].copy()
    for dn, dm in contributions[1:]:
        sn += dn
        sm += dm
    k = len(contributions)
    return sn / k, sm / k


def _reference_blend(prev_delta: dict, client_deltas, weights):
    """The per-layer blend loop the stacked ``_blend`` replaced, on
    ``{block: (dN, dM)}`` dicts: a client's dict holds exactly the blocks
    its map trains. ``weights(j, alpha)`` gives layer j's (w_prev, w_mean)
    when alpha clients trained it. Returns the new delta and the counts."""
    new_delta: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    counts = []
    for j in sorted(prev_delta):
        contributions = [deltas[j] for _, deltas, amap in client_deltas if amap.bits[j]]
        alpha = len(contributions)
        counts.append(alpha)
        wp, wc = weights(j, alpha)
        pn, pm = prev_delta[j]
        if alpha == 0:
            new_delta[j] = (pn.copy(), pm.copy()) if wp else (np.zeros_like(pn), np.zeros_like(pm))
        elif wp == 0:
            new_delta[j] = _reference_layer_mean(contributions)
        else:
            mn, mm = _reference_layer_mean(contributions)
            new_delta[j] = (wp * pn + wc * mn, wp * pm + wc * mm)
    return new_delta, counts


def reference_com_agg(prev_delta: dict, client_deltas, history, carry_forward=True) -> dict:
    """``com_agg`` on dicts, one layer at a time; pushes the counts to ``history``."""
    def weights(j, alpha):
        beta = history.means[j]
        if alpha == 0:
            return (1.0 if carry_forward and beta > 0 else 0.0), 0.0
        return beta / (alpha + beta), alpha / (alpha + beta)

    new_delta, counts = _reference_blend(prev_delta, client_deltas, weights)
    history.push(history.round + 1, dict(enumerate(counts)))
    return new_delta


def reference_com_agg_fixed(prev_delta: dict, client_deltas) -> dict:
    """``com_agg_fixed`` on dicts, one layer at a time."""
    return _reference_blend(prev_delta, client_deltas,
                            lambda j, alpha: (0.5, 0.5) if alpha else (1.0, 0.0))[0]


def reference_fed_avg(client_deltas, template: dict) -> dict:
    """``fed_avg`` on dicts, one layer at a time."""
    return _reference_blend(template, client_deltas, lambda j, alpha: (0.0, 1.0))[0]


def as_blocks(a: Adapters, amap: AllocationMap | None = None) -> dict:
    """``{block: (N, M)}`` of ``a``: every block, or the blocks ``amap`` trains."""
    blocks = range(len(a.N)) if amap is None else amap.trainable_indices
    return {j: (a.N[j], a.M[j]) for j in blocks}
