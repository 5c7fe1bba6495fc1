"""Toy net: reference-forward oracle, finite-difference gradients, caching."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from conftest import (
    backward_one,
    central_difference,
    forward_one,
    rebuilding_backward,
    rebuilding_forward,
    rebuilding_local_train,
    reference_cross_entropy,
    same_bytes,
    score_one,
    train_one,
    write_blocks,
)
from fedlorasim.aggregation import RoundWindow, apply_delta, zero_delta_like
from fedlorasim.memory import AllocationMap
from fedlorasim.scoring import local_ig_scores
from fedlorasim.simulator import GlobalState, state_from_jsonable, state_to_jsonable
from fedlorasim.toymodel import (
    ROW_CHUNK_BYTES,
    Activations,
    Adapters,
    Gradients,
    MapStack,
    NonFiniteLossError,
    StaleCacheError,
    ToyLoRANet,
    _row_chunks,
    local_train,
)


def small_net(seed=0, **kw):
    kw.setdefault("num_blocks", 4)
    kw.setdefault("hidden_size", 6)
    kw.setdefault("lora_rank", 2)
    kw.setdefault("input_dim", 5)
    kw.setdefault("num_classes", 3)
    kw.setdefault("lora_alpha", None)
    return ToyLoRANet(seed=seed, **kw)


def randomize_adapters(net, rng, scale=0.3, blocks=None):
    state = {
        j: (
            rng.normal(0, scale, net.N[j].shape),
            rng.normal(0, scale, net.M[j].shape),
        )
        for j in (range(net.num_blocks) if blocks is None else blocks)
    }
    write_blocks(net, state)


def applied(net, deltas):
    """A clone of ``net`` with ``local_train``'s deltas added to its adapters."""
    out = net.clone()
    out.set_lora_state(apply_delta(net.get_lora_state(), deltas))
    return out


def reference_forward(net, X):
    """Independent recomputation: per-sample loop, rank-wise outer products."""
    outs = []
    for x in np.asarray(X, dtype=np.float64):
        a = x @ net.embed
        for j in range(net.num_blocks):
            w = net.W0[j].copy()
            for k in range(net.lora_rank):
                w = w + net.scale * np.outer(net.N[j][:, k], net.M[j][k, :])
            a = np.tanh(a @ w + net.b[j])
        outs.append(a @ net.head)
    return np.array(outs)


def test_fresh_net_equals_frozen_base():
    # zero-initialized M makes the adapters invisible at round 0
    net = small_net(seed=3)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, net.input_dim))
    logits, _ = forward_one(net, X, AllocationMap.full(net.num_blocks))
    base = X @ net.embed
    for j in range(net.num_blocks):
        base = np.tanh(base @ net.W0[j] + net.b[j])
    np.testing.assert_array_equal(logits, base @ net.head)


def test_forward_matches_reference_implementation():
    rng = np.random.default_rng(5)
    for seed in range(3):
        net = small_net(seed=seed)
        randomize_adapters(net, rng)
        X = rng.normal(size=(6, net.input_dim))
        logits, _ = forward_one(net, X, AllocationMap.empty(net.num_blocks))
        np.testing.assert_allclose(logits, reference_forward(net, X), rtol=1e-12, atol=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    patterns = ["1111", "0101", "1000"]
    for seed in range(3):
        net = small_net(seed=seed)
        randomize_adapters(net, rng)
        X = rng.normal(size=(8, net.input_dim))
        y = rng.integers(0, net.num_classes, size=8)
        for bits in patterns:
            amap = AllocationMap.from_bitstring(bits)
            logits, cache = forward_one(net, X, amap)
            grads = backward_one(net, cache, y)
            assert set(grads) == set(amap.trainable_indices)
            for j, (gn, gm) in grads.items():
                for k, g in enumerate((gn, gm)):
                    flat = [tuple(ix) for ix in np.ndindex(*g.shape)]
                    for idx in [flat[0], flat[len(flat) // 2], flat[-1]]:
                        num = central_difference(net, X, y, amap, j, k, idx, 1e-6)
                        ana = g[idx]
                        rel = abs(ana - num) / max(1e-8, abs(ana) + abs(num))
                        assert rel < 1e-4, (j, idx, ana, num)


def test_gradient_flows_through_frozen_blocks():
    rng = np.random.default_rng(13)
    net = small_net(seed=1)
    randomize_adapters(net, rng)
    X = rng.normal(size=(5, net.input_dim))
    y = rng.integers(0, net.num_classes, size=5)
    amap = AllocationMap.from_indices(net.num_blocks, [0])
    logits, cache = forward_one(net, X, amap)
    grads = backward_one(net, cache, y)
    assert set(grads) == {0}
    gn, gm = grads[0]
    assert np.abs(gn).max() > 0
    assert np.abs(gm).max() > 0


def test_empty_allocation_backward_is_empty():
    net = small_net()
    X = np.zeros((2, net.input_dim))
    logits, cache = forward_one(net, X, AllocationMap.empty(net.num_blocks))
    assert backward_one(net, cache, np.zeros(2, dtype=int)) == {}


def test_cache_economy_mirrors_memory_split():
    net = small_net(num_blocks=6)
    X = np.zeros((3, net.input_dim))
    for indices in ([2, 4], [0], [5], []):
        amap = AllocationMap.from_indices(6, indices)
        _, cache = forward_one(net, X, amap)
        if indices:
            assert cache.static_count == 6 - min(indices)
            assert cache.dynamic_count == len(indices)
            assert sorted(cache.block_inputs) == sorted(indices)
            assert sorted(cache.acts) == list(range(min(indices), 6))
        else:
            assert cache.static_count == 0
            assert cache.dynamic_count == 0


def test_loss_scale_scales_gradients_linearly():
    rng = np.random.default_rng(17)
    net = small_net(seed=2)
    randomize_adapters(net, rng)
    X = rng.normal(size=(4, net.input_dim))
    y = rng.integers(0, net.num_classes, size=4)
    amap = AllocationMap.full(net.num_blocks)
    _, cache = forward_one(net, X, amap)
    g1 = backward_one(net, cache, y, loss_scale=1.0)
    g3 = backward_one(net, cache, y, loss_scale=3.0)
    for j in g1:
        np.testing.assert_allclose(g3[j][0], 3.0 * g1[j][0], rtol=1e-12)
        np.testing.assert_allclose(g3[j][1], 3.0 * g1[j][1], rtol=1e-12)


def test_stale_cache_rejected():
    net = small_net()
    X = np.zeros((2, net.input_dim))
    y = np.zeros(2, dtype=int)
    _, cache = forward_one(net, X, AllocationMap.full(net.num_blocks))
    net.set_lora_state(net.get_lora_state())  # byte-equal: the cache still holds
    assert backward_one(net, cache, y).keys() == set(range(net.num_blocks))
    write_blocks(net, {1: (net.N[1], net.M[1] + 0.1)})
    with pytest.raises(StaleCacheError):
        backward_one(net, cache, y)


def test_foreign_cache_rejected():
    X = np.random.default_rng(3).normal(size=(4, 5))
    y = np.array([0, 1, 2, 0])
    full = AllocationMap.full(3)
    # two nets with equal (zero) write ticks but different frozen weights
    nets = [small_net(seed=s, num_blocks=3) for s in (0, 1)]
    caches = [forward_one(net, X, full)[1] for net in nets]
    for net, cache in zip(nets, caches[::-1]):
        with pytest.raises(StaleCacheError):
            backward_one(net, cache, y)
    # a clone made before its source's forward holds the same weights, so it
    # accepts the source's cache and builds the weights it has not built yet
    source = small_net(seed=2, num_blocks=3)
    clone = source.clone()
    _, cache = forward_one(source, X, full)
    assert clone._weights == [None] * 3
    want = backward_one(source, cache, y)
    got = backward_one(clone, cache, y)
    assert all(got[j][k].tobytes() == want[j][k].tobytes() for j in want for k in (0, 1))
    # once the clone changes block 2, neither takes the other's cache
    write_blocks(clone, {2: (clone.N[2], clone.M[2] + 0.1)})
    with pytest.raises(StaleCacheError):
        backward_one(clone, cache, y)
    _, clone_cache = forward_one(clone, X, full)
    with pytest.raises(StaleCacheError):
        backward_one(source, clone_cache, y)


def test_backward_follows_the_cached_allocation():
    # backward takes no map: it differentiates the blocks the cache's map trains
    net = small_net()
    X = np.random.default_rng(47).normal(size=(2, net.input_dim))
    y = np.zeros(2, dtype=int)
    for blocks in ([1], [0, 2], []):
        _, cache = forward_one(net, X, AllocationMap.from_indices(net.num_blocks, blocks))
        assert backward_one(net, cache, y).keys() == set(blocks)


def test_local_train_zero_lr_gives_zero_deltas():
    rng = np.random.default_rng(19)
    net = small_net()
    X = rng.normal(size=(10, net.input_dim))
    y = rng.integers(0, net.num_classes, size=10)
    deltas = train_one(net, X, y, AllocationMap.full(net.num_blocks), epochs=1, batch_size=32, lr=0.0)
    assert deltas.N.shape == (net.num_blocks, net.hidden_size, net.lora_rank)
    assert np.abs(deltas.N).max() == 0.0
    assert np.abs(deltas.M).max() == 0.0


def test_single_step_delta_is_minus_lr_grad():
    rng = np.random.default_rng(23)
    net = small_net(seed=4)
    randomize_adapters(net, rng)
    X = rng.normal(size=(1, net.input_dim))
    y = rng.integers(0, net.num_classes, size=1)
    amap = AllocationMap.from_indices(net.num_blocks, [1, 3])
    _, cache = forward_one(net, X, amap)
    grads = backward_one(net, cache, y)
    deltas = train_one(net, X, y, amap, epochs=1, batch_size=1, lr=0.05)
    for j in amap.trainable_indices:
        # (N - lr*g) - N carries one rounding step, so compare numerically
        np.testing.assert_allclose(deltas[j][0], -0.05 * grads[j][0], rtol=1e-9, atol=1e-18)
        np.testing.assert_allclose(deltas[j][1], -0.05 * grads[j][1], rtol=1e-9, atol=1e-18)


def test_local_train_is_deterministic_and_decreases_loss():
    rng = np.random.default_rng(29)
    centers = np.eye(3, 5) * 4.0
    y = np.repeat(np.arange(3), 30)
    X = centers[y] + rng.normal(0, 0.3, size=(90, 5))
    net = small_net(seed=5)
    before_loss, _ = net.evaluate(X, y)

    d1 = train_one(net, X, y, AllocationMap.full(4), epochs=3, batch_size=16, lr=0.5,
                   rng=np.random.default_rng(77))
    d2 = train_one(net, X, y, AllocationMap.full(4), epochs=3, batch_size=16, lr=0.5,
                   rng=np.random.default_rng(77))
    for j in d1:
        np.testing.assert_array_equal(d1[j][0], d2[j][0])
        np.testing.assert_array_equal(d1[j][1], d2[j][1])
    after_loss, _ = applied(net, d1).evaluate(X, y)
    assert after_loss < before_loss

    # a partial allocation learns too: gradients reach early blocks
    d3 = train_one(net, X, y, AllocationMap.from_indices(4, [0]), epochs=3, batch_size=16, lr=0.5)
    partial_loss, _ = applied(net, d3).evaluate(X, y)
    assert partial_loss < before_loss


EQUIVALENCE_MAPS = {
    "empty": [],
    "full": list(range(7)),
    "single": [3],
    "gapped": [1, 3, 5],
    "deepest": [6],
}


@pytest.mark.parametrize("shuffle", [False, True], ids=["sequential", "shuffled"])
@pytest.mark.parametrize("kind", list(EQUIVALENCE_MAPS))
def test_local_train_matches_reference_bytes(kind, shuffle):
    # reused weights must give the bytes of rebuilding every weight where it
    # is used; a list not refreshed after an SGD step moves them
    rng = np.random.default_rng(31)
    amap = AllocationMap.from_indices(7, EQUIVALENCE_MAPS[kind])
    for trial in range(3):
        net = small_net(seed=trial, num_blocks=7)
        randomize_adapters(net, rng)
        X = rng.normal(size=(37, net.input_dim))
        y = rng.integers(0, net.num_classes, size=37)
        ref, new = net.clone(), net.clone()
        kw = dict(epochs=2, batch_size=8, lr=0.3)
        d_ref = rebuilding_local_train(
            ref, X, y, amap, rng=np.random.default_rng(trial) if shuffle else None, **kw)
        d_new = train_one(
            new, X, y, amap, rng=np.random.default_rng(trial) if shuffle else None, **kw)
        # the reference's rows of untrained blocks are theta - theta, +0.0
        assert same_bytes(d_new, d_ref)
        # the clients train a clone: the net given keeps its adapters
        assert new.N == net.N and new.M == net.M and new._changed_at == net._changed_at


def test_local_ig_scores_match_reference():
    rng = np.random.default_rng(37)
    net = small_net(seed=3, num_blocks=7)
    randomize_adapters(net, rng)
    batches = [
        (rng.normal(size=(n, net.input_dim)), rng.integers(0, net.num_classes, size=n))
        for n in (5, 8, 3)
    ]
    for indices in EQUIVALENCE_MAPS.values():
        amap = AllocationMap.from_indices(7, indices)
        expected = {j: 0.0 for j in indices}
        for X, y in batches:
            _, cache = rebuilding_forward(net, X, amap)
            for j, (gn, gm) in rebuilding_backward(net, cache, y, loss_scale=2.5).items():
                expected[j] += float((gn * gn).sum() + (gm * gm).sum())
        assert score_one(net, amap, batches, loss_scale=2.5) == expected


@pytest.mark.parametrize("alpha", [3.0, 4.0])
def test_a_lora_scale_other_than_one_matches_the_references(alpha):
    # every config leaves lora_alpha at r, a scale of 1 that the net skips;
    # at r = 2 these give 1.5 and 2.0, so the scaled path runs: the effective
    # weights, the forward, the gradients, the SGD steps and the scores must
    # be the bytes of the references, which scale every weight and gradient
    rng = np.random.default_rng(int(alpha))
    net = small_net(seed=int(alpha), num_blocks=7, lora_alpha=alpha)
    assert net.scale == alpha / 2
    randomize_adapters(net, rng, blocks=range(2, 7))
    for j in range(7):
        formula = net.W0[j] + net.scale * (net.N[j] @ net.M[j])
        assert net.effective_weight(j).tobytes() == formula.tobytes()
    X = rng.normal(size=(9, net.input_dim))
    y = rng.integers(0, net.num_classes, size=9)
    batches = [(X[:5], y[:5]), (X[5:], y[5:])]
    for indices in EQUIVALENCE_MAPS.values():
        amap = AllocationMap.from_indices(7, indices)
        ref_logits, ref_cache = rebuilding_forward(net, X, amap)
        logits, cache = forward_one(net, X, amap)
        assert logits.tobytes() == ref_logits.tobytes()
        grads = backward_one(net, cache, y)
        ref_grads = rebuilding_backward(net, ref_cache, y)
        assert list(grads) == list(ref_grads)
        for j, (gn, gm) in ref_grads.items():
            assert grads[j][0].tobytes() == gn.tobytes()
            assert grads[j][1].tobytes() == gm.tobytes()
        kw = dict(epochs=2, batch_size=4, lr=0.3)
        assert same_bytes(train_one(net, X, y, amap, rng=np.random.default_rng(1), **kw),
                          rebuilding_local_train(net.clone(), X, y, amap,
                                                 rng=np.random.default_rng(1), **kw))
        expected = {j: 0.0 for j in indices}
        for Xb, yb in batches:
            _, ref_cache = rebuilding_forward(net, Xb, amap)
            for j, (gn, gm) in rebuilding_backward(net, ref_cache, yb).items():
                expected[j] += float((gn * gn).sum() + (gm * gm).sum())
        assert score_one(net, amap, batches) == expected


def test_non_finite_lr_and_bad_lora_alpha_are_refused():
    net = small_net()
    X = np.ones((4, net.input_dim))
    y = np.zeros(4, dtype=int)
    full = AllocationMap.full(net.num_blocks)
    for lr in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError, match=f"finite and nonnegative, got lr={lr}"):
            train_one(net, X, y, full, epochs=1, batch_size=4, lr=lr)
    # the config refuses these too; a net built without one must as well
    for alpha in (float("nan"), float("inf"), 0.0, -2.0):
        with pytest.raises(ValueError, match=f"lora_alpha must be finite and above 0, got {alpha}"):
            small_net(lora_alpha=alpha)
    assert small_net(lora_alpha=None).scale == 1.0
    assert small_net(lora_alpha=0.5).scale == 0.25


def test_the_bias_is_frozen_at_zero_on_every_net():
    # the block passes skip adding b, which is only sound while every b is
    # +0.0 everywhere and no one can write it
    net = small_net(num_blocks=5)
    nets = [net]
    randomize_adapters(net, np.random.default_rng(3), blocks=[1, 4])
    nets.append(net.clone())
    group = net.clone()
    stack = MapStack((AllocationMap.from_indices(5, [1]), AllocationMap.from_indices(5, [2, 4])))
    p = len(stack.pair_block)
    group._descend(Gradients(np.ones((p, 6, 2)), np.ones((p, 2, 6)), stack), 0.1)
    assert group.clients == 2
    nets.append(group)
    zero = np.zeros(net.hidden_size).tobytes()
    for n in nets:
        assert isinstance(n.b, tuple) and len(n.b) == n.num_blocks
        for b in n.b:
            assert b.shape == (n.hidden_size,) and b.dtype == np.float64
            assert b.tobytes() == zero and not b.flags.writeable
            with pytest.raises(ValueError):
                b[0] = 1.0
        with pytest.raises(TypeError):
            n.b[0] = np.ones(n.hidden_size)


def test_block_passes_give_the_bytes_of_adding_the_bias():
    # a product accumulates from +0.0, so an all-zero row's pre-activations
    # are +0.0, never -0.0, and adding b (+0.0) changed no byte of them or
    # of any other row: forward, prefix and evaluate match the ``+ b[j]``
    # references, from the features and from a prefix
    net = prefix_net(seed=4, lowest=2)
    rng = np.random.default_rng(59)
    X = rng.normal(size=(8, net.input_dim))
    X[[0, 5]] = 0.0
    y = rng.integers(0, net.num_classes, size=8)
    a = X @ net.embed
    for j in range(net.num_blocks):
        z = a @ net.effective_weight(j)
        assert not np.signbit(z[[0, 5]]).any() and not z[[0, 5]].any()
        a = np.tanh(z + net.b[j])
        assert net.prefix(X, j + 1).data.tobytes() == a.tobytes()
    for indices in EQUIVALENCE_MAPS.values():
        amap = AllocationMap.from_indices(7, indices)
        ref_logits, _ = rebuilding_forward(net, X, amap)
        assert forward_one(net, X, amap)[0].tobytes() == ref_logits.tobytes()
        start = min(net.frozen_below, amap.earliest if indices else 7)
        assert forward_one(net, net.prefix(X, start), amap)[0].tobytes() == ref_logits.tobytes()
    ref_logits, _ = rebuilding_forward(net, X, AllocationMap.empty(7))
    want = reference_cross_entropy(ref_logits, y)
    for inputs in (X, net.prefix(X, 2)):
        loss, acc = net.evaluate(inputs, y)
        assert np.float64(loss).tobytes() == np.float64(want).tobytes()
        assert acc == float((ref_logits.argmax(axis=1) == y).mean())


def test_forward_with_weights_is_bitwise_equal():
    rng = np.random.default_rng(41)
    net = small_net(seed=6, num_blocks=7)
    randomize_adapters(net, rng)
    X = rng.normal(size=(9, net.input_dim))
    y = rng.integers(0, net.num_classes, size=9)
    # the first map builds the net's weights, the others reuse them
    for indices in EQUIVALENCE_MAPS.values():
        amap = AllocationMap.from_indices(7, indices)
        ref_logits, ref_cache = rebuilding_forward(net, X, amap)
        logits, cache = forward_one(net, X, amap)
        assert logits.tobytes() == ref_logits.tobytes()
        assert list(cache.acts) == list(ref_cache.preacts)
        assert list(cache.block_inputs) == list(ref_cache.block_inputs)
        for j, z in ref_cache.preacts.items():
            assert cache.acts[j].tobytes() == np.tanh(z).tobytes()
        ref_grads = rebuilding_backward(net, ref_cache, y)
        grads = backward_one(net, cache, y)
        assert list(grads) == list(ref_grads)
        for j, (gn, gm) in ref_grads.items():
            assert grads[j][0].tobytes() == gn.tobytes()
            assert grads[j][1].tobytes() == gm.tobytes()


def test_non_finite_loss_aborts_with_diagnostics():
    net = small_net()
    X = np.full((4, net.input_dim), np.nan)
    y = np.zeros(4, dtype=int)
    with pytest.raises(NonFiniteLossError, match="epoch 0"):
        train_one(net, X, y, AllocationMap.full(net.num_blocks), epochs=1, batch_size=32,
                  lr=0.1)


def test_snapshot_roundtrip():
    # frozen weights are a function of the seed, so a checkpoint holds only
    # the adapters: rebuilding from the seed and loading them gives the same net
    rng = np.random.default_rng(31)
    net = small_net(seed=6)
    randomize_adapters(net, rng)
    l = net.num_blocks
    state = GlobalState(
        round=0,
        params=net.get_lora_state(),
        prev_delta=zero_delta_like(net.get_lora_state()),
        score_history=RoundWindow(l, 2),
        contribution_history=RoundWindow(l, 2),
    )
    ckpt = json.loads(json.dumps(state_to_jsonable(state)))
    back = small_net(seed=6)
    back.set_lora_state(state_from_jsonable(ckpt).params)
    X = rng.normal(size=(5, net.input_dim))
    a, _ = forward_one(net, X, AllocationMap.full(l))
    b, _ = forward_one(back, X, AllocationMap.full(l))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(net.head, back.head)


def test_clone_is_independent():
    net = small_net()
    X = np.random.default_rng(43).normal(size=(3, net.input_dim))
    full = AllocationMap.full(net.num_blocks)
    before, _ = forward_one(net, X, full)
    twin = net.clone()
    write_blocks(twin, {0: (twin.N[0] + 1.0, twin.M[0] + 1.0)})
    assert np.abs(net.N[0] - twin.N[0]).max() > 0
    # the twin's rebuilt weight never reaches the source's built weights
    moved, _ = forward_one(twin, X, full)
    after, _ = forward_one(net, X, full)
    assert np.abs(moved - before).max() > 0
    assert after.tobytes() == before.tobytes()
    # adapters are written only through set_lora_state, which keeps no
    # reference to its inputs; get_lora_state hands out a copy
    with pytest.raises(TypeError):
        twin.N[0] = np.zeros_like(twin.N[0])
    for arr in (twin.N[0], twin.M[1]):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    state = net.get_lora_state()
    state.N[2][0, 0] += 1.0
    assert state.N[2][0, 0] != net.N[2][0, 0]
    n = np.ones_like(net.N[3])
    write_blocks(net, {3: (n, net.M[3])})
    n[0, 0] = 5.0
    assert (net.N[3] == 1.0).all()
    # frozen arrays are shared and locked
    assert net.W0[0] is twin.W0[0]
    with pytest.raises(ValueError):
        twin.W0[0][0, 0] = 1.0


def test_w0_cannot_be_replaced_on_a_net_or_its_clone():
    # a clone shares W0 with its source, so a write through either one
    # would change the other's frozen weights: both forms of it raise
    net = small_net()
    twin = net.clone()
    for target in (net, twin):
        with pytest.raises(TypeError):
            target.W0[1] = np.zeros_like(target.W0[1])
        with pytest.raises(ValueError):
            target.W0[1][0, 0] = 1.0
    assert all(a is b for a, b in zip(net.W0, twin.W0))
    assert not np.any(net.W0[1] == 0.0)


def test_input_validation():
    net = small_net()
    with pytest.raises(ValueError):
        forward_one(net, np.zeros((2, net.input_dim + 1)), AllocationMap.full(net.num_blocks))
    with pytest.raises(ValueError):
        forward_one(net, np.zeros((2, net.input_dim)), AllocationMap.full(net.num_blocks + 1))
    with pytest.raises(ValueError):
        train_one(net, np.zeros((0, net.input_dim)), np.zeros(0, dtype=int),
                  AllocationMap.full(net.num_blocks), epochs=1, batch_size=32, lr=0.1)


# ---- frozen-prefix starts ----------------------------------------------------

def prefix_net(seed=0, lowest=3, num_blocks=7):
    """A net whose writes have changed blocks ``lowest`` and up only."""
    net = small_net(seed=seed, num_blocks=num_blocks)
    randomize_adapters(net, np.random.default_rng(seed + 100), blocks=range(lowest, num_blocks))
    assert net.frozen_below == lowest
    return net


def boundaries(net, amap):
    """Block 0, a block mid-way, ``frozen_below`` if the map allows it, and
    the highest start the map allows."""
    top = amap.earliest if amap.earliest is not None else net.num_blocks
    return sorted({0, top // 2, min(net.frozen_below, top), top})


PREFIX_MAPS = {"earliest-at-frozen": [3, 5], "earliest-above": [4, 6], "deepest": [6],
               "empty": []}


@pytest.mark.parametrize("kind", list(PREFIX_MAPS))
def test_forward_from_prefix_is_bitwise_equal(kind):
    rng = np.random.default_rng(47)
    net = prefix_net(seed=1)
    amap = AllocationMap.from_indices(7, PREFIX_MAPS[kind])
    X = rng.normal(size=(9, net.input_dim))
    y = rng.integers(0, net.num_classes, size=9)
    logits, cache = forward_one(net, X, amap)
    grads = backward_one(net, cache, y)
    for k in boundaries(net, amap):
        acts = net.prefix(X, k)
        assert acts.block == k
        p_logits, p_cache = forward_one(net, acts, amap)
        assert p_logits.tobytes() == logits.tobytes()
        assert list(p_cache.acts) == list(cache.acts)
        assert all(p_cache.acts[j].tobytes() == a.tobytes() for j, a in cache.acts.items())
        assert list(p_cache.block_inputs) == list(cache.block_inputs)
        assert all(p_cache.block_inputs[j].tobytes() == a.tobytes()
                   for j, a in cache.block_inputs.items())
        p_grads = backward_one(net, p_cache, y)
        assert list(p_grads) == list(grads)
        for j, (gn, gm) in grads.items():
            assert p_grads[j][0].tobytes() == gn.tobytes()
            assert p_grads[j][1].tobytes() == gm.tobytes()
        assert net.evaluate(acts, y) == net.evaluate(X, y)


def test_prefix_zero_is_the_embedding_and_prefix_l_feeds_the_head():
    net = small_net(num_blocks=4)
    X = np.random.default_rng(53).normal(size=(5, net.input_dim))
    assert net.prefix(X, 0).data.tobytes() == (X @ net.embed).tobytes()
    logits, _ = forward_one(net, X, AllocationMap.empty(4))
    assert (net.prefix(X, 4).data @ net.head).tobytes() == logits.tobytes()
    # a prefix continued from a lower one is the prefix from the features
    assert net.prefix(net.prefix(X, 1), 3).data.tobytes() == net.prefix(X, 3).data.tobytes()
    acts = net.prefix(X, 2)
    assert isinstance(acts, Activations) and len(acts) == 5 and not acts.data.flags.writeable
    rows = acts[[4, 0]]
    assert (rows.block, rows.base, rows.stamp) == (acts.block, acts.base, acts.stamp)
    assert rows.data.tobytes() == acts.data[[4, 0]].tobytes() and not rows.data.flags.writeable


@pytest.mark.parametrize("shuffle", [False, True], ids=["sequential", "shuffled"])
@pytest.mark.parametrize("kind", ["earliest-at-frozen", "earliest-above", "deepest"])
def test_local_train_from_prefix_is_bitwise_equal(kind, shuffle):
    # 37 rows in batches of 8: each epoch ends on a short batch of 5; the
    # batches take their rows of the prefix computed over all 37 (batches of
    # one row are never sliced from a prefix, see the row-subset test below)
    rng = np.random.default_rng(59)
    amap = AllocationMap.from_indices(7, PREFIX_MAPS[kind])
    for trial in range(2):
        net = prefix_net(seed=trial)
        X = rng.normal(size=(37, net.input_dim))
        y = rng.integers(0, net.num_classes, size=37)
        order = lambda: np.random.default_rng(trial) if shuffle else None
        kw = dict(epochs=2, batch_size=8, lr=0.3)
        d_ref = train_one(net, X, y, amap, rng=order(), **kw)
        for k in boundaries(net, amap):
            d_new = train_one(net, net.prefix(X, k), y, amap, rng=order(), **kw)
            assert list(d_new) == list(d_ref)
            for j in d_ref:
                assert d_new[j][0].tobytes() == d_ref[j][0].tobytes()
                assert d_new[j][1].tobytes() == d_ref[j][1].tobytes()
            assert net.frozen_below == 3


def test_local_ig_scores_from_prefix_match():
    rng = np.random.default_rng(61)
    net = prefix_net(seed=2)
    batches = [
        (rng.normal(size=(n, net.input_dim)), rng.integers(0, net.num_classes, size=n))
        for n in (8, 8, 3)
    ]
    for kind in ("earliest-at-frozen", "earliest-above", "deepest"):
        amap = AllocationMap.from_indices(7, PREFIX_MAPS[kind])
        expected = score_one(net, amap, batches, loss_scale=1.5)
        for k in boundaries(net, amap):
            started = [(net.prefix(X, k), y) for X, y in batches]
            assert score_one(net, amap, started, loss_scale=1.5) == expected


def test_activations_above_the_earliest_block_are_rejected():
    net = prefix_net(seed=3)  # frozen_below 3
    rng = np.random.default_rng(67)
    X = rng.normal(size=(4, net.input_dim))
    y = rng.integers(0, net.num_classes, size=4)
    high = AllocationMap.from_indices(7, [5, 6])
    low = AllocationMap.from_indices(7, [2, 6])
    a3, a4 = net.prefix(X, 3), net.prefix(X, 4)
    forward_one(net, a4, high)  # above frozen_below is fine for the net that computed it
    assert net.evaluate(net.prefix(X, 7), y) == net.evaluate(X, y)  # nothing trains
    with pytest.raises(ValueError, match="block 3 cannot start a pass .* block 2"):
        forward_one(net, a3, low)
    with pytest.raises(ValueError, match="block 3"):
        score_one(net, low, [(a3, y)])
    ticks = net._changed_at
    with pytest.raises(ValueError, match="block 3"):
        train_one(net, a3, y, low, epochs=1, batch_size=2, lr=0.1)
    assert net._changed_at == ticks  # rejected before any write
    with pytest.raises(ValueError, match="block 4"):
        net.prefix(a4, 3)  # a prefix never runs backwards
    for k in (-1, 8):
        with pytest.raises(ValueError, match="outside 0..7"):
            net.prefix(X, k)
    with pytest.raises(ValueError, match="features"):
        forward_one(net, a4.data, high)  # a bare array is read as features


def assert_rejected_everywhere(net, acts, y, amap):
    """Every entry point refuses ``acts`` and leaves ``net`` unwritten."""
    ticks = net._changed_at
    y = y[:len(acts)]
    calls = (
        lambda: forward_one(net, acts, amap),
        lambda: net.evaluate(acts, y),
        lambda: net.prefix(acts, amap.earliest),
        lambda: score_one(net, amap, [(acts, y)]),
        lambda: train_one(net, acts, y, amap, epochs=1, batch_size=2, lr=0.1),
    )
    assert not net.accepts(acts)
    for call in calls:
        with pytest.raises(ValueError, match="not computed through"):
            call()
    assert net._changed_at == ticks


def test_stale_or_foreign_activations_are_rejected_at_every_entry_point():
    net = small_net(seed=5, num_blocks=7)
    rng = np.random.default_rng(79)
    X = rng.normal(size=(4, net.input_dim))
    y = rng.integers(0, net.num_classes, size=4)
    amap = AllocationMap.from_indices(7, [5, 6])
    # computed before a write below their block: stale for the net and every
    # later clone, rows included, while activations below the write still serve
    stale, below = net.prefix(X, 4), net.prefix(X, 2)
    write_blocks(net, {2: (net.N[2], net.M[2] + 0.1)})
    assert_rejected_everywhere(net, stale, y, amap)
    assert_rejected_everywhere(net.clone(), stale, y, amap)
    assert_rejected_everywhere(net, stale[[0, 1]], y, amap)
    logits, _ = forward_one(net, X, amap)
    assert forward_one(net, below, amap)[0].tobytes() == logits.tobytes()
    # from a net built separately on the same seed: the same bytes, another base
    twin = small_net(seed=5, num_blocks=7)
    foreign = twin.prefix(X, 2)
    assert foreign.data.tobytes() == below.data.tobytes()
    assert_rejected_everywhere(net, foreign, y, amap)
    # a clone and its source part ways at their first write below a block
    local = net.clone()
    write_blocks(local, {1: (local.N[1], local.M[1] + 0.1)})
    assert_rejected_everywhere(net, local.prefix(X, 4), y, amap)
    ahead = net.prefix(X, 4)
    assert local.accepts(local.prefix(X, 4)) and net.accepts(ahead)
    assert_rejected_everywhere(local, ahead, y, amap)


def test_clone_accepts_its_source_activations_until_a_write_below_them():
    net = prefix_net(seed=4)  # frozen_below 3
    rng = np.random.default_rng(73)
    X = rng.normal(size=(6, net.input_dim))
    y = rng.integers(0, net.num_classes, size=6)
    amap = AllocationMap.from_indices(7, [5, 6])
    a5 = net.prefix(net.prefix(X, 3), 5)  # continues from a kept prefix
    assert a5.data.tobytes() == net.prefix(X, 5).data.tobytes()
    local = net.clone()
    logits, cache = forward_one(net, X, amap)
    p_logits, p_cache = forward_one(local, a5, amap)
    assert p_logits.tobytes() == logits.tobytes()
    grads, p_grads = backward_one(net, cache, y), backward_one(local, p_cache, y)
    assert all(p_grads[j][i].tobytes() == g[i].tobytes() for j, g in grads.items() for i in (0, 1))
    # the clone's own training writes blocks 5 and up and keeps accepting them
    deltas = train_one(local, a5, y, amap, epochs=2, batch_size=3, lr=0.2)
    ref_deltas = train_one(net, X, y, amap, epochs=2, batch_size=3, lr=0.2)
    assert same_bytes(deltas, ref_deltas)
    local = applied(local, deltas)
    assert local.frozen_below == 3 and local.accepts(a5)
    trained, _ = forward_one(local, X, amap)
    assert forward_one(local, a5, amap)[0].tobytes() == trained.tobytes()
    with pytest.raises(ValueError, match="block 5 cannot start"):
        forward_one(local, a5, AllocationMap.from_indices(7, [4]))
    # a clone of the clone shares every write below block 5
    twin = local.clone()
    assert twin.accepts(a5)
    # a write below block 5 on the source leaves the clones' blocks as they were
    write_blocks(net, {4: (net.N[4], net.M[4] + 0.1)})
    assert not net.accepts(a5) and local.accepts(a5)
    # and one on the clone makes them stale for it, not for its own clone
    write_blocks(local, {4: (local.N[4], local.M[4] + 0.1)})
    assert (local.frozen_below, twin.frozen_below) == (3, 3)
    assert_rejected_everywhere(local, a5, y, amap)
    assert twin.accepts(a5)


def test_frozen_below_only_falls_and_byte_equal_writes_keep_everything():
    net = small_net(num_blocks=6)
    X = np.random.default_rng(71).normal(size=(3, net.input_dim))
    full = AllocationMap.full(6)
    assert net.frozen_below == 6
    forward_one(net, X, full)  # builds every weight
    built = list(net._weights)
    arrays = (net.N, net.M)
    ticks = net._changed_at
    # byte-equal factors, passed as fresh arrays: nothing moves
    write_blocks(net, {j: (net.N[j].copy(), net.M[j].copy()) for j in range(6)})
    assert net._changed_at == ticks
    assert net.frozen_below == 6
    assert all(w is b for w, b in zip(net._weights, built))
    assert all(a is b for a, b in zip(net.N + net.M, arrays[0] + arrays[1]))
    # a change lowers frozen_below to the lowest changed block and drops only
    # the changed blocks' weights
    write_blocks(net, {4: (net.N[4], net.M[4] + 0.5), 5: (net.N[5], net.M[5])})
    assert net.frozen_below == 4
    assert net._weights[4] is None
    assert all(net._weights[j] is built[j] for j in (0, 1, 2, 3, 5))
    assert net.N[5] is arrays[0][5] and net.M[5] is arrays[1][5]
    write_blocks(net, {5: (net.N[5] + 1.0, net.M[5])})
    assert net.frozen_below == 4  # a higher change never raises it
    write_blocks(net, {2: (net.N[2], net.M[2] - 0.25)})
    assert net.frozen_below == 2
    # a clone inherits it and lowers its own
    twin = net.clone()
    assert twin.frozen_below == 2
    write_blocks(twin, {0: (twin.N[0], twin.M[0] + 0.1)})
    assert (twin.frozen_below, net.frozen_below) == (0, 2)
    # training at lr 0 moves nothing, and the net given is never written
    ticks = net._changed_at
    deltas = train_one(net, X, np.zeros(3, dtype=int), AllocationMap.from_indices(6, [1]),
                       epochs=1, batch_size=2, lr=0.0)
    assert not np.abs(deltas[1][1]).any() and net._changed_at == ticks
    # adapters of another block count or width are refused
    for l, h in ((5, 6), (7, 6), (6, 5)):
        with pytest.raises(ValueError, match="do not fit"):
            net.set_lora_state(Adapters(np.zeros((l, h, 2)), np.zeros((l, 2, h))))
    with pytest.raises(ValueError, match="are not"):
        Adapters(np.zeros((6, 6, 2)), np.zeros((6, 6, 2)))


@pytest.mark.parametrize("hidden", [16, 32, 128])
def test_row_subset_products_are_bitwise_equal(hidden):
    # a cached training prefix over all of a client's rows is sliced into
    # shuffled batches of two rows or more, so ``(A @ W)[idx]`` must equal
    # ``A[idx] @ W`` byte for byte, through the tanh that follows too. This
    # holds on the numpy/BLAS build the pinned digests were recorded with.
    # A one-row batch is multiplied as a vector and may round differently,
    # which is why the simulator never slices one from a prefix.
    # ``evaluate`` runs a test set through the embedding and the blocks in
    # row chunks (256 of wide-train's 2000 rows at H = 128), so those
    # products must hold for chunk-sized subsets too. The head's (n, H) @
    # (H, 10) does not: at H = 128 chunks of 32 to 500 rows give other bytes
    # than the whole set's product, so evaluate runs the head once over all
    # rows.
    rng = np.random.default_rng(hidden)
    embed = rng.normal(0, 1 / np.sqrt(32), (32, hidden))
    W = rng.normal(0, 1 / np.sqrt(hidden), (hidden, hidden))
    b = rng.normal(0, 0.1, hidden)
    chunk = ROW_CHUNK_BYTES // (8 * hidden)
    for n in [64 + r for r in range(2, 33)] + [250, 1000, 2000]:  # last batch of 2..32 rows
        X = rng.normal(size=(n, 32))
        A = np.tanh(X @ embed)
        full_embed, full_act = X @ embed, np.tanh(A @ W + b)
        subsets = np.array_split(rng.permutation(n), range(32, n, 32))
        if n == 2000:
            subsets = [np.arange(lo, hi) for lo, hi in _row_chunks(n, chunk)]
        for idx in subsets:
            assert (X[idx] @ embed).tobytes() == full_embed[idx].tobytes()
            assert np.tanh(A[idx] @ W + b).tobytes() == full_act[idx].tobytes()


# ---- lockstep groups -----------------------------------------------------------

GROUP_MAPS = ([1, 3], [2, 6], [4], [5, 6], [6])  # earliest blocks 1, 2, 4, 5, 6


def test_a_zero_sign_flip_is_a_change_and_a_byte_equal_write_is_none():
    # set_lora_state compares bytes: +0.0 and -0.0 are equal numbers with
    # other bytes, so flipping one zero of block 2's M changes block 2 alone
    net = small_net(num_blocks=6)
    X = np.random.default_rng(83).normal(size=(3, net.input_dim))
    full = AllocationMap.full(6)
    randomize_adapters(net, np.random.default_rng(84), blocks=[4])
    forward_one(net, X, full)  # builds every weight
    below, above = net.prefix(X, 2), net.prefix(X, 3)
    built, ticks = list(net._weights), net._changed_at
    assert np.signbit(net.M[2]).sum() == 0  # M starts at +0.0
    state = net.get_lora_state()
    state.M[2][1, 3] = -0.0
    net.set_lora_state(state)
    assert [j for j in range(6) if net._changed_at[j] != ticks[j]] == [2]
    assert net._weights[2] is None
    assert all(net._weights[j] is built[j] for j in (0, 1, 3, 4, 5))
    assert np.signbit(net.M[2]).sum() == 1
    assert net.accepts(below) and not net.accepts(above)
    forward_one(net, X, full)
    assert net._weights[2] is not None and net._weights[2] is not built[2]
    # writing the same bytes again, as fresh arrays, keeps every tick and weight
    ticks, built = net._changed_at, list(net._weights)
    write_blocks(net, {j: (net.N[j].copy(), net.M[j].copy()) for j in range(6)})
    assert net._changed_at == ticks
    assert all(w is b for w, b in zip(net._weights, built))
    # and flipping it back is a change of block 2 again
    state.M[2][1, 3] = 0.0
    net.set_lora_state(state)
    assert [j for j in range(6) if net._changed_at[j] != ticks[j]] == [2]


def group_case(hidden, n, seed, num_blocks=7):
    """A net whose writes changed blocks 3 and up, and one dataset per map."""
    net = ToyLoRANet(num_blocks=num_blocks, hidden_size=hidden, lora_rank=2, input_dim=32,
                     num_classes=10, lora_alpha=None, seed=seed)
    rng = np.random.default_rng(seed)
    randomize_adapters(net, rng, blocks=range(3, num_blocks))
    data = [(rng.normal(size=(n, 32)), rng.integers(0, 10, size=n)) for _ in GROUP_MAPS]
    maps = [AllocationMap.from_indices(num_blocks, m) for m in GROUP_MAPS]
    return net, data, maps


def moved_blocks(delta) -> list[int]:
    """The blocks whose rows of a client's delta are nonzero."""
    return np.flatnonzero(delta.N.any(axis=(1, 2)) | delta.M.any(axis=(1, 2))).tolist()


@pytest.mark.parametrize("shuffle", [False, True], ids=["sequential", "shuffled"])
@pytest.mark.parametrize("hidden", [16, 32, 128])
def test_group_pass_matches_per_client_reference(hidden, shuffle):
    # 37 rows in batches of 8 end each epoch on a short batch of 5. Each
    # client joins the stack at its own earliest block from the net's
    # prefix; every client's deltas and scores must be the bytes of the
    # rebuilding per-client loop from the features
    net, data, maps = group_case(hidden, 37, seed=hidden)
    order = lambda c: np.random.default_rng(c) if shuffle else None
    kw = dict(epochs=2, batch_size=8, lr=0.3)
    inputs = [net.prefix(X, m.earliest) for (X, _), m in zip(data, maps)]
    ig = [[(a[:8], y[:8]), (a[8:13], y[8:13])] for a, (_, y) in zip(inputs, data)]
    got = local_train(net, inputs, [y for _, y in data], maps,
                      rng=[order(c) for c in range(len(maps))], **kw)
    scores = local_ig_scores(net, maps, ig)
    for c, ((X, y), amap) in enumerate(zip(data, maps)):
        assert same_bytes(got[c], rebuilding_local_train(net.clone(), X, y, amap,
                                                         rng=order(c), **kw))
        want = {j: 0.0 for j in amap.trainable_indices}
        for rows in (slice(0, 8), slice(8, 13)):
            _, cache = rebuilding_forward(net, X[rows], amap)
            for j, (gn, gm) in rebuilding_backward(net, cache, y[rows]).items():
                want[j] += float((gn * gn).sum() + (gm * gm).sum())
        assert scores[c] == want


def test_group_of_one_and_one_row_batches_from_the_features():
    # 33 rows in batches of 8 end each epoch on one row, which a client
    # takes from the features; a group of one is the per-client loop
    net, data, maps = group_case(16, 33, seed=5)
    kw = dict(epochs=2, batch_size=8, lr=0.3)
    got = local_train(net, [X for X, _ in data], [y for _, y in data], maps,
                      rng=[np.random.default_rng(c) for c in range(len(maps))], **kw)
    for c, ((X, y), amap) in enumerate(zip(data, maps)):
        want = rebuilding_local_train(net.clone(), X, y, amap, rng=np.random.default_rng(c), **kw)
        assert same_bytes(got[c], want)
        assert same_bytes(train_one(net, X, y, amap, rng=np.random.default_rng(c), **kw), want)
    one_row = [(X[:1], y[:1]) for X, y in data]
    got = local_ig_scores(net, maps, [[b] for b in one_row])
    assert got == [score_one(net, m, [b]) for m, b in zip(maps, one_row)]


def test_group_forward_takes_a_client_axis():
    net, data, maps = group_case(16, 6, seed=7)
    stack = MapStack(tuple(maps))
    inputs = [net.prefix(X, m.earliest) for (X, _), m in zip(data, maps)]
    logits, cache = net.forward(inputs, stack)
    assert logits.shape == (len(maps), 6, 10)
    for c, ((X, _), m) in enumerate(zip(data, maps)):
        assert logits[c].tobytes() == forward_one(net, X, m)[0].tobytes()
    # at block j the stack holds the clients whose input entered by then
    assert [len(cache.acts[j]) for j in range(1, 7)] == [1, 2, 2, 3, 4, 5]
    grads = net.backward(cache, np.stack([y for _, y in data]))
    assert {j: len(g[0]) for j, g in grads.items()} == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 3}
    with pytest.raises(ValueError, match="ordered by earliest"):
        MapStack(tuple(maps[::-1]))
    with pytest.raises(TypeError, match="MapStack"):
        net.forward(inputs, maps)  # a list of maps is not a group
    with pytest.raises(TypeError, match="one input per client"):
        net.forward(data[0][0], MapStack(tuple(maps[:1])))  # nor is one bare input
    with pytest.raises(ValueError, match="not in the order"):
        net.forward([inputs[0], data[1][0]], MapStack(tuple(maps[:2])))
    with pytest.raises(ValueError, match="one row count"):
        net.forward([inputs[0], inputs[1][:3]], MapStack(tuple(maps[:2])))
    with pytest.raises(ValueError, match="datasets of one size"):
        local_train(net, [data[0][0], data[1][0][:3]], [data[0][1], data[1][1][:3]], maps[:2],
                    epochs=1, batch_size=2, lr=0.1)


def test_a_group_out_of_pass_order_is_refused():
    # the caller gives the pass order (``simulator.lockstep_groups``); a group
    # in any other order fails before any forward, with no write
    net, data, maps = group_case(16, 6, seed=8)
    ticks = net._changed_at
    pair = [1, 0]  # earliest blocks 2, 1
    with pytest.raises(ValueError, match=r"ordered by earliest trainable block, got \(2, 1\)"):
        local_train(net, [data[c][0] for c in pair], [data[c][1] for c in pair],
                    [maps[c] for c in pair], epochs=1, batch_size=2, lr=0.1)
    with pytest.raises(ValueError, match=r"ordered by earliest trainable block, got \(2, 1\)"):
        local_ig_scores(net, [maps[c] for c in pair], [[data[c]] for c in pair])
    assert net._changed_at == ticks
    # ties in earliest block take either order
    tied = [AllocationMap.from_indices(7, [4]), AllocationMap.from_indices(7, [4, 6])]
    for pair in ([0, 1], [1, 0]):
        deltas = local_train(net, [data[c][0] for c in pair], [data[c][1] for c in pair],
                             [tied[c] for c in pair], epochs=1, batch_size=2, lr=0.1)
        assert [moved_blocks(d) for d in deltas] == [list(tied[c].trainable_indices) for c in pair]


def test_evaluate_loss_is_the_reference_cross_entropy():
    # evaluate's loss and a cache's (``ForwardCache.losses``) are one
    # function of the logits' softmax, with the bytes of the cross-entropy
    # computed on its own, over a test-set sized batch and from a prefix too
    net = prefix_net(seed=6)
    rng = np.random.default_rng(83)
    for n in (1, 7, 2000):
        X = rng.normal(size=(n, net.input_dim))
        y = rng.integers(0, net.num_classes, size=n)
        logits, _ = rebuilding_forward(net, X, AllocationMap.empty(7))
        want = reference_cross_entropy(logits, y)
        for inputs in (X, net.prefix(X, 3)):
            loss, acc = net.evaluate(inputs, y)
            assert np.float64(loss).tobytes() == np.float64(want).tobytes()
            assert acc == float((logits.argmax(axis=1) == y).mean())
    # a group's losses are each client's, and labels must fit the batch
    group_net, data, maps = group_case(16, 9, seed=4)
    inputs = [group_net.prefix(X, m.earliest) for (X, _), m in zip(data, maps)]
    logits, cache = group_net.forward(inputs, MapStack(tuple(maps)))
    losses = cache.losses(np.stack([y for _, y in data]))
    assert losses.tolist() == [reference_cross_entropy(logits[c], y)
                               for c, (_, y) in enumerate(data)]
    with pytest.raises(ValueError, match="labels do not match"):
        cache.losses(data[0][1])


def whole_set_evaluate(net, X, y) -> tuple[float, float]:
    """``evaluate`` as one forward of a client that trains nothing, over
    all rows at once."""
    y = np.asarray(y)[None]
    logits, cache = net.forward([X], MapStack((AllocationMap.empty(net.num_blocks),)))
    return float(cache.losses(y)[0]), float((logits.argmax(axis=-1) == y).mean())


def test_row_chunks_cover_the_rows_with_no_one_row_chunk():
    for rows in (2, 3, 256):
        for n in range(1, 3 * rows + 3):
            chunks = _row_chunks(n, rows)
            assert [lo for lo, _ in chunks] == [0, *[hi for _, hi in chunks[:-1]]]
            assert chunks[-1][1] == n
            assert all(rows <= hi - lo <= rows + 1 for lo, hi in chunks[:-1])
            # one row only where the whole set is one row
            assert all(hi - lo >= 2 for lo, hi in chunks) or n == 1


@pytest.mark.parametrize("hidden", [16, 128])
def test_evaluate_in_row_chunks_gives_the_bytes_of_one_pass(hidden):
    # the embedding and blocks run in chunks of ``rows`` rows; a set of k * rows rows ends
    # on a full chunk, k * rows + 1 on a chunk of rows + 1 (never one row),
    # and k * rows + 2 on a chunk of two
    rows = ROW_CHUNK_BYTES // (8 * hidden)
    net = ToyLoRANet(num_blocks=5, hidden_size=hidden, lora_rank=2, input_dim=32,
                     num_classes=10, lora_alpha=None, seed=hidden)
    rng = np.random.default_rng(hidden)
    randomize_adapters(net, rng, blocks=range(2, 5))
    k = 1 if rows > 1000 else 2
    for n in (k * rows, k * rows + 1, k * rows + 2):
        X = rng.normal(size=(n, 32))
        y = rng.integers(0, 10, size=n)
        want = whole_set_evaluate(net, X, y)
        # ``prefix`` runs the same chunks
        a = X @ net.embed
        assert net.prefix(X, 0).data.tobytes() == a.tobytes()
        for j in range(5):
            a = np.tanh(a @ (net.W0[j] + net.scale * net.N[j] @ net.M[j]) + net.b[j])
        assert net.prefix(X, 5).data.tobytes() == a.tobytes()
        for inputs in (X, net.prefix(X, 0), net.prefix(X, 2), net.prefix(X, 5)):
            loss, acc = net.evaluate(inputs, y)
            assert np.float64(loss).tobytes() == np.float64(want[0]).tobytes()
            assert acc == want[1]
    with pytest.raises(ValueError, match="labels for"):
        net.evaluate(X, y[:-1])


def test_a_never_written_block_weighs_w0_itself():
    # M is zero until a write changes a block, so W0 + scale * N @ M is W0
    # byte for byte, and the net uses W0 itself: no copy per block
    net = prefix_net(seed=2, lowest=3)
    for j in range(net.num_blocks):
        formula = net.W0[j] + net.scale * (net.N[j] @ net.M[j])
        w = net.effective_weight(j)
        assert w.tobytes() == formula.tobytes()
        assert (w is net.W0[j]) == (j < 3)
    assert not net.effective_weight(0).flags.writeable
    # a group's SGD step writes block 1 of its clone only
    group = net.clone()
    stack = MapStack((AllocationMap.from_indices(7, [1]),))
    group._descend(Gradients(np.ones((1, 6, 2)), np.ones((1, 2, 6)), stack), 0.1)
    assert group.effective_weight(1).shape == (1, 6, 6)
    assert group.effective_weight(0) is net.W0[0] and group.effective_weight(2) is net.W0[2]
    assert net.effective_weight(1) is net.W0[1]


def test_group_training_keeps_its_clients_inputs_accepted():
    # the clients' SGD steps write per-client rows of a clone; a client's rows
    # below its earliest block keep the shared factors, so the inputs of the
    # other clients stay accepted while the net given is never written
    net, data, maps = group_case(16, 10, seed=9)
    ticks = net._changed_at
    inputs = [net.prefix(X, m.earliest) for (X, _), m in zip(data, maps)]
    held = (net.N, net.M, list(net._weights))
    deltas = local_train(net, inputs, [y for _, y in data], maps, epochs=2, batch_size=4, lr=0.2)
    assert net._changed_at == ticks and net.clients is None
    assert [moved_blocks(d) for d in deltas] == [list(m.trainable_indices) for m in maps]
    group = net.clone()
    stack = MapStack(tuple(maps))
    p = len(stack.pair_block)
    group._descend(Gradients(np.zeros((p, 16, 2)), np.zeros((p, 2, 16)), stack), 0.1)
    assert group.clients == len(maps) and group.N[6].shape == (len(maps), 16, 2)
    assert group._changed_at[6] != ticks[6] and all(group.accepts(a) for a in inputs)
    # the step's per-block factors are read-only views, and the net given
    # keeps its arrays, ticks and built weights
    assert not any(x.flags.writeable for j in stack.trained.tolist()
                   for x in (group.N[j], group.M[j]))
    assert all(x is y for x, y in zip((*net.N, *net.M, *net._weights),
                                      (*held[0], *held[1], *held[2])))
    assert net._changed_at == ticks and net.clients is None
    with pytest.raises(ValueError, match="client axis"):
        group.prefix(data[0][0], 2)
    with pytest.raises(ValueError, match="client axis"):
        group.evaluate(data[0][0], data[0][1])
    # its per-client factors make no single adapter state, and it trains no
    # other group than its own
    with pytest.raises(ValueError, match="client axis"):
        group.get_lora_state()
    with pytest.raises(ValueError, match="client axis"):
        group.set_lora_state(net.get_lora_state())
    with pytest.raises(ValueError, match="client axis"):
        group._pair_factors(MapStack(tuple(maps)))


def test_non_finite_loss_text_is_unchanged():
    # one shifted exponential gives the loss check and the gradient; the
    # error names the same loss, epoch, batch and lr as before, here for a
    # NaN feature and for an lr whose second step overflows the adapters
    net = small_net()
    rng = np.random.default_rng(11)
    X = rng.normal(size=(8, net.input_dim))
    y = rng.integers(0, net.num_classes, size=8)
    full = AllocationMap.full(net.num_blocks)
    bad = X.copy()
    bad[5, 2] = np.nan
    with pytest.raises(NonFiniteLossError) as e:
        train_one(net, bad, y, full, epochs=1, batch_size=4, lr=0.1)
    assert str(e.value) == "non-finite loss nan at epoch 0, batch start 4, lr 0.1"
    randomize_adapters(net, rng, scale=3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLossError) as e:
            train_one(net, X * 0.01, y, full, epochs=4, batch_size=4, lr=1e200)
    assert str(e.value) == "non-finite loss nan at epoch 0, batch start 4, lr 1e+200"
    # in a group, the first client given whose loss is not finite is named
    with pytest.raises(NonFiniteLossError, match="batch start 4, lr 0.1$"):
        local_train(net, [X, bad], [y, y], [full, full], epochs=1, batch_size=4, lr=0.1)


#: ten maps of a 7-block net in pass order, earliest blocks 0, 0, 1, 2, 2, 3, 4, 4, 5, 6
SCRATCH_MAPS = ([0, 3], [0, 6], [1, 2, 5], [2], [2, 4, 6], [3, 6], [4], [4, 5], [5, 6], [6])


def test_a_cache_on_the_scratch_goes_stale_at_the_next_scratch_pass():
    # a cache made on the scratch views buffers the net and its clones
    # share: once a later forward on the scratch reuses them, on the net or
    # on a clone, backward refuses it. A cache of a forward without the
    # scratch holds arrays of its own and stays valid through any later passes
    net, data, maps = group_case(16, 6, seed=12)
    stack = MapStack(tuple(maps))
    inputs, y = [X for X, _ in data], np.stack([labels for _, labels in data])
    _, own = net.forward(inputs, stack)
    want = net.backward(own, y)
    for runner in (net, net.clone()):
        _, cache = net.forward(inputs, stack, scratch=True)
        got = net.backward(cache, y)
        assert got.N.tobytes() == want.N.tobytes() and got.M.tobytes() == want.M.tobytes()
        runner.forward(inputs, stack, scratch=True)
        with pytest.raises(StaleCacheError, match="later pass on the net's scratch"):
            net.backward(cache, y)
    for _ in range(3):
        local_train(net, inputs, list(y), maps, epochs=1, batch_size=4, lr=0.1)
        local_ig_scores(net, maps, [[(X[:3], labels[:3])] for X, labels in data])
        net.forward(inputs, stack)
    got = net.backward(own, y)
    assert got.N.tobytes() == want.N.tobytes() and got.M.tobytes() == want.M.tobytes()


@pytest.mark.parametrize("hidden", [16, 32, 128])
def test_a_reused_poisoned_scratch_gives_the_reference_bytes(hidden, monkeypatch):
    # every forward starts on a scratch full of NaN, and every backward on
    # NaN chain buffers, so a slot row a pass reads before it writes shows.
    # One net runs groups of 1, 10 and 3 clients, the last two with clients
    # joining mid-stack from the net's prefix, and IG batches of 32 then 18
    # rows: every client's deltas and scores are the bytes of the rebuilding
    # per-client loop from the features
    forward, backward = ToyLoRANet.forward, ToyLoRANet.backward

    def poisoned_forward(self, *args, **kw):
        for buf in self._scratch.buffers.values():
            buf.fill(np.nan)
        return forward(self, *args, **kw)

    def poisoned_backward(self, *args, **kw):
        for name in ("dz", "da", "dW"):
            self._scratch.buffers[name].fill(np.nan)
        return backward(self, *args, **kw)

    monkeypatch.setattr(ToyLoRANet, "forward", poisoned_forward)
    monkeypatch.setattr(ToyLoRANet, "backward", poisoned_backward)
    net = ToyLoRANet(num_blocks=7, hidden_size=hidden, lora_rank=2, input_dim=32,
                     num_classes=10, lora_alpha=None, seed=hidden + 1)
    rng = np.random.default_rng(hidden)
    randomize_adapters(net, rng, blocks=range(3, 7))
    data = [(rng.normal(size=(50, 32)), rng.integers(0, 10, size=50)) for _ in SCRATCH_MAPS]
    maps = [AllocationMap.from_indices(7, m) for m in SCRATCH_MAPS]
    kw = dict(epochs=2, batch_size=16, lr=0.3)
    # (clients, how many of them start from the features; the rest from the prefix)
    for group, from_features in (([3], 1), (range(10), 5), ([4, 7, 9], 0)):
        group = list(group)
        inputs = [data[c][0] if i < from_features else net.prefix(data[c][0], maps[c].earliest)
                  for i, c in enumerate(group)]
        got = local_train(net, inputs, [data[c][1] for c in group], [maps[c] for c in group],
                          rng=[np.random.default_rng(c) for c in group], **kw)
        ig = [[(x[:32], data[c][1][:32]), (x[32:], data[c][1][32:])]
              for x, c in zip(inputs, group)]
        scores = local_ig_scores(net, [maps[c] for c in group], ig)
        for c, delta, score in zip(group, got, scores):
            (X, y), amap = data[c], maps[c]
            assert same_bytes(delta, rebuilding_local_train(net.clone(), X, y, amap,
                                                            rng=np.random.default_rng(c), **kw))
            want = {j: 0.0 for j in amap.trainable_indices}
            for rows in (slice(0, 32), slice(32, 50)):
                _, cache = rebuilding_forward(net, X[rows], amap)
                for j, (gn, gm) in rebuilding_backward(net, cache, y[rows]).items():
                    want[j] += float((gn * gn).sum() + (gm * gm).sum())
            assert score == want


def scratch_need(net, maps, rows) -> int:
    """Bytes a one-step pass of the group ``maps`` from the features, ``rows``
    rows a client, takes from the scratch: the slab, dz, da and dW."""
    c, h = len(maps), net.hidden_size
    pairs = len(MapStack(tuple(maps)).pair_block)
    return 8 * ((net.num_blocks + 1) * c * rows * h + 2 * c * rows * h + pairs * h * h)


def test_the_scratch_grows_to_the_largest_pass_and_clones_share_it():
    # each buffer grows to the largest pass seen and is sliced for smaller
    # ones: passes of shapes A, B and A leave B's bytes, in the same arrays
    net, data, maps = group_case(16, 24, seed=13)
    clone = net.clone()
    assert clone._scratch is net._scratch
    passes = [(2, 8), (5, 24), (2, 8)]  # (clients, rows): A, B, A
    held = []
    for c, rows in passes:
        local_train(net, [X[:rows] for X, _ in data[:c]], [y[:rows] for _, y in data[:c]],
                    maps[:c], epochs=1, batch_size=rows, lr=0.1)
        held.append(dict(net._scratch.buffers))
        assert sum(b.nbytes for b in held[-1].values()) == max(scratch_need(net, maps[:c], rows)
                                          for c, rows in passes[:len(held)])
    assert all(held[2][k] is held[1][k] for k in held[1])
    # a clone's passes use the one scratch: no copy, no growth
    local_ig_scores(clone, maps[:2], [[(X[:8], y[:8])] for X, y in data[:2]])
    assert clone._scratch is net._scratch
    assert all(net._scratch.buffers[k] is held[1][k] for k in held[1])


def test_a_warm_local_train_allocates_less_than_one_slab():
    # after a first call has grown the scratch, a second of the same shapes
    # keeps its block outputs and chain arrays there: what it allocates at
    # its peak is less than one (blocks + 1, C, B, H) slab (0.68 of one,
    # against 2.5 when each block's output is a fresh array)
    net, data, maps = group_case(16, 128, seed=14, num_blocks=12)
    X, y = [x for x, _ in data], [labels for _, labels in data]
    kw = dict(epochs=1, batch_size=64, lr=0.1)
    local_train(net, X, y, maps, **kw)
    slab = 8 * (net.num_blocks + 1) * len(maps) * 64 * net.hidden_size
    tracemalloc.start()
    try:
        local_train(net, X, y, maps, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < slab
