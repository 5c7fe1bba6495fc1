"""Toy net: reference-forward oracle, finite-difference gradients, caching."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import (
    central_difference,
    rebuilding_backward,
    rebuilding_forward,
    rebuilding_local_train,
)
from fedlorasim.aggregation import ContributionHistory, zero_delta_like
from fedlorasim.memory import AllocationMap
from fedlorasim.scoring import ScoreHistory, local_ig_scores
from fedlorasim.simulator import GlobalState, state_from_jsonable, state_to_jsonable
from fedlorasim.toymodel import (
    Activations,
    NonFiniteLossError,
    StaleCacheError,
    ToyLoRANet,
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
    net.set_lora_state(state)


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
    logits, _ = net.forward(X, AllocationMap.full(net.num_blocks))
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
        logits, _ = net.forward(X, AllocationMap.empty(net.num_blocks))
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
            logits, cache = net.forward(X, amap)
            grads = net.backward(cache, y)
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
    logits, cache = net.forward(X, amap)
    grads = net.backward(cache, y)
    assert set(grads) == {0}
    gn, gm = grads[0]
    assert np.abs(gn).max() > 0
    assert np.abs(gm).max() > 0


def test_empty_allocation_backward_is_empty():
    net = small_net()
    X = np.zeros((2, net.input_dim))
    logits, cache = net.forward(X, AllocationMap.empty(net.num_blocks))
    assert net.backward(cache, np.zeros(2, dtype=int)) == {}


def test_cache_economy_mirrors_memory_split():
    net = small_net(num_blocks=6)
    X = np.zeros((3, net.input_dim))
    for indices in ([2, 4], [0], [5], []):
        amap = AllocationMap.from_indices(6, indices)
        _, cache = net.forward(X, amap)
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
    _, cache = net.forward(X, amap)
    g1 = net.backward(cache, y, loss_scale=1.0)
    g3 = net.backward(cache, y, loss_scale=3.0)
    for j in g1:
        np.testing.assert_allclose(g3[j][0], 3.0 * g1[j][0], rtol=1e-12)
        np.testing.assert_allclose(g3[j][1], 3.0 * g1[j][1], rtol=1e-12)


def test_stale_cache_rejected():
    net = small_net()
    X = np.zeros((2, net.input_dim))
    y = np.zeros(2, dtype=int)
    _, cache = net.forward(X, AllocationMap.full(net.num_blocks))
    net.set_lora_state(net.get_lora_state())  # byte-equal: the cache still holds
    assert net.backward(cache, y).keys() == set(range(net.num_blocks))
    net.set_lora_state({1: (net.N[1], net.M[1] + 0.1)})
    with pytest.raises(StaleCacheError):
        net.backward(cache, y)


def test_foreign_cache_rejected():
    X = np.random.default_rng(3).normal(size=(4, 5))
    y = np.array([0, 1, 2, 0])
    full = AllocationMap.full(3)
    # two nets with equal (zero) write ticks but different frozen weights
    nets = [small_net(seed=s, num_blocks=3) for s in (0, 1)]
    caches = [net.forward(X, full)[1] for net in nets]
    for net, cache in zip(nets, caches[::-1]):
        with pytest.raises(StaleCacheError):
            net.backward(cache, y)
    # a clone made before its source's forward holds the same weights, so it
    # accepts the source's cache and builds the weights it has not built yet
    source = small_net(seed=2, num_blocks=3)
    clone = source.clone()
    _, cache = source.forward(X, full)
    assert clone._weights == [None] * 3
    want = source.backward(cache, y)
    got = clone.backward(cache, y)
    assert all(got[j][k].tobytes() == want[j][k].tobytes() for j in want for k in (0, 1))
    # once the clone changes block 2, neither takes the other's cache
    clone.set_lora_state({2: (clone.N[2], clone.M[2] + 0.1)})
    with pytest.raises(StaleCacheError):
        clone.backward(cache, y)
    _, clone_cache = clone.forward(X, full)
    with pytest.raises(StaleCacheError):
        source.backward(clone_cache, y)


def test_allocation_mismatch_rejected():
    net = small_net()
    X = np.zeros((2, net.input_dim))
    _, cache = net.forward(X, AllocationMap.full(net.num_blocks))
    with pytest.raises(ValueError):
        net.backward(cache, np.zeros(2, dtype=int), AllocationMap.empty(net.num_blocks))


def test_local_train_zero_lr_gives_zero_deltas():
    rng = np.random.default_rng(19)
    net = small_net()
    X = rng.normal(size=(10, net.input_dim))
    y = rng.integers(0, net.num_classes, size=10)
    deltas = local_train(net, X, y, AllocationMap.full(net.num_blocks), epochs=1, batch_size=32, lr=0.0)
    assert set(deltas) == set(range(net.num_blocks))
    for dn, dm in deltas.values():
        assert np.abs(dn).max() == 0.0
        assert np.abs(dm).max() == 0.0


def test_single_step_delta_is_minus_lr_grad():
    rng = np.random.default_rng(23)
    net = small_net(seed=4)
    randomize_adapters(net, rng)
    X = rng.normal(size=(1, net.input_dim))
    y = rng.integers(0, net.num_classes, size=1)
    amap = AllocationMap.from_indices(net.num_blocks, [1, 3])
    _, cache = net.forward(X, amap)
    grads = net.backward(cache, y)
    deltas = local_train(net.clone(), X, y, amap, epochs=1, batch_size=1, lr=0.05)
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

    n1, n2 = net.clone(), net.clone()
    d1 = local_train(n1, X, y, AllocationMap.full(4), epochs=3, batch_size=16, lr=0.5,
                     rng=np.random.default_rng(77))
    d2 = local_train(n2, X, y, AllocationMap.full(4), epochs=3, batch_size=16, lr=0.5,
                     rng=np.random.default_rng(77))
    for j in d1:
        np.testing.assert_array_equal(d1[j][0], d2[j][0])
        np.testing.assert_array_equal(d1[j][1], d2[j][1])
    after_loss, _ = n1.evaluate(X, y)
    assert after_loss < before_loss

    # a partial allocation learns too: gradients reach early blocks
    n3 = net.clone()
    local_train(n3, X, y, AllocationMap.from_indices(4, [0]), epochs=3, batch_size=16, lr=0.5)
    partial_loss, _ = n3.evaluate(X, y)
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
        d_new = local_train(
            new, X, y, amap, rng=np.random.default_rng(trial) if shuffle else None, **kw)
        assert list(d_new) == list(d_ref) == list(amap.trainable_indices)
        for j in d_ref:
            assert d_new[j][0].tobytes() == d_ref[j][0].tobytes()
            assert d_new[j][1].tobytes() == d_ref[j][1].tobytes()
        for j in range(7):
            assert new.N[j].tobytes() == ref.N[j].tobytes()
            assert new.M[j].tobytes() == ref.M[j].tobytes()


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
        assert local_ig_scores(net, amap, batches, loss_scale=2.5) == expected


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
        logits, cache = net.forward(X, amap)
        assert logits.tobytes() == ref_logits.tobytes()
        assert list(cache.acts) == list(ref_cache.preacts)
        assert list(cache.block_inputs) == list(ref_cache.block_inputs)
        for j, z in ref_cache.preacts.items():
            assert cache.acts[j].tobytes() == np.tanh(z).tobytes()
        ref_grads = rebuilding_backward(net, ref_cache, y)
        grads = net.backward(cache, y)
        assert list(grads) == list(ref_grads)
        for j, (gn, gm) in ref_grads.items():
            assert grads[j][0].tobytes() == gn.tobytes()
            assert grads[j][1].tobytes() == gm.tobytes()


def test_non_finite_loss_aborts_with_diagnostics():
    net = small_net()
    X = np.full((4, net.input_dim), np.nan)
    y = np.zeros(4, dtype=int)
    with pytest.raises(NonFiniteLossError, match="epoch 0"):
        local_train(net, X, y, AllocationMap.full(net.num_blocks), epochs=1, batch_size=32,
                    lr=0.1)


def test_snapshot_roundtrip():
    # frozen weights are a function of the seed, so a checkpoint holds only
    # the adapters: rebuilding from the seed and loading them gives the same net
    rng = np.random.default_rng(31)
    net = small_net(seed=6)
    randomize_adapters(net, rng)
    l = net.num_blocks
    state = GlobalState(
        round=3,
        params=net.get_lora_state(),
        prev_delta=zero_delta_like(net.get_lora_state()),
        score_history=ScoreHistory(l, 2),
        contribution_history=ContributionHistory(l, 2),
    )
    ckpt = json.loads(json.dumps(state_to_jsonable(state)))
    back = small_net(seed=6)
    back.set_lora_state(state_from_jsonable(ckpt).params)
    X = rng.normal(size=(5, net.input_dim))
    a, _ = net.forward(X, AllocationMap.full(l))
    b, _ = back.forward(X, AllocationMap.full(l))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(net.head, back.head)


def test_clone_is_independent():
    net = small_net()
    X = np.random.default_rng(43).normal(size=(3, net.input_dim))
    full = AllocationMap.full(net.num_blocks)
    before, _ = net.forward(X, full)
    twin = net.clone()
    twin.set_lora_state({0: (twin.N[0] + 1.0, twin.M[0] + 1.0)})
    assert np.abs(net.N[0] - twin.N[0]).max() > 0
    # the twin's rebuilt weight never reaches the source's built weights
    moved, _ = twin.forward(X, full)
    after, _ = net.forward(X, full)
    assert np.abs(moved - before).max() > 0
    assert after.tobytes() == before.tobytes()
    # adapters are written only through set_lora_state, which keeps no
    # reference to its inputs
    with pytest.raises(TypeError):
        twin.N[0] = np.zeros_like(twin.N[0])
    for arr in (twin.N[0], twin.M[1], net.get_lora_state()[2][0]):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    n = np.ones_like(net.N[3])
    net.set_lora_state({3: (n, net.M[3])})
    n[0, 0] = 5.0
    assert (net.N[3] == 1.0).all()
    # frozen arrays are shared and locked
    assert net.W0[0] is twin.W0[0]
    with pytest.raises(ValueError):
        twin.W0[0][0, 0] = 1.0


def test_input_validation():
    net = small_net()
    with pytest.raises(ValueError):
        net.forward(np.zeros((2, net.input_dim + 1)), AllocationMap.full(net.num_blocks))
    with pytest.raises(ValueError):
        net.forward(np.zeros((2, net.input_dim)), AllocationMap.full(net.num_blocks + 1))
    with pytest.raises(ValueError):
        local_train(net, np.zeros((0, net.input_dim)), np.zeros(0, dtype=int),
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
    logits, cache = net.forward(X, amap)
    grads = net.backward(cache, y)
    for k in boundaries(net, amap):
        acts = net.prefix(X, k)
        assert acts.block == k
        p_logits, p_cache = net.forward(acts, amap)
        assert p_logits.tobytes() == logits.tobytes()
        assert list(p_cache.acts) == list(cache.acts)
        assert all(p_cache.acts[j].tobytes() == a.tobytes() for j, a in cache.acts.items())
        assert list(p_cache.block_inputs) == list(cache.block_inputs)
        assert all(p_cache.block_inputs[j].tobytes() == a.tobytes()
                   for j, a in cache.block_inputs.items())
        p_grads = net.backward(p_cache, y)
        assert list(p_grads) == list(grads)
        for j, (gn, gm) in grads.items():
            assert p_grads[j][0].tobytes() == gn.tobytes()
            assert p_grads[j][1].tobytes() == gm.tobytes()
        assert net.evaluate(acts, y) == net.evaluate(X, y)


def test_prefix_zero_is_the_embedding_and_prefix_l_feeds_the_head():
    net = small_net(num_blocks=4)
    X = np.random.default_rng(53).normal(size=(5, net.input_dim))
    assert net.prefix(X, 0).data.tobytes() == (X @ net.embed).tobytes()
    logits, _ = net.forward(X, AllocationMap.empty(4))
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
        ref = net.clone()
        d_ref = local_train(ref, X, y, amap, rng=order(), **kw)
        for k in boundaries(net, amap):
            new = net.clone()
            d_new = local_train(new, net.prefix(X, k), y, amap, rng=order(), **kw)
            assert list(d_new) == list(d_ref)
            for j in d_ref:
                assert d_new[j][0].tobytes() == d_ref[j][0].tobytes()
                assert d_new[j][1].tobytes() == d_ref[j][1].tobytes()
            assert new.frozen_below == ref.frozen_below == min(3, amap.earliest)


def test_local_ig_scores_from_prefix_match():
    rng = np.random.default_rng(61)
    net = prefix_net(seed=2)
    batches = [
        (rng.normal(size=(n, net.input_dim)), rng.integers(0, net.num_classes, size=n))
        for n in (8, 8, 3)
    ]
    for kind in ("earliest-at-frozen", "earliest-above", "deepest"):
        amap = AllocationMap.from_indices(7, PREFIX_MAPS[kind])
        expected = local_ig_scores(net, amap, batches, loss_scale=1.5)
        for k in boundaries(net, amap):
            started = [(net.prefix(X, k), y) for X, y in batches]
            assert local_ig_scores(net, amap, started, loss_scale=1.5) == expected


def test_activations_above_the_earliest_block_are_rejected():
    net = prefix_net(seed=3)  # frozen_below 3
    rng = np.random.default_rng(67)
    X = rng.normal(size=(4, net.input_dim))
    y = rng.integers(0, net.num_classes, size=4)
    high = AllocationMap.from_indices(7, [5, 6])
    low = AllocationMap.from_indices(7, [2, 6])
    a3, a4 = net.prefix(X, 3), net.prefix(X, 4)
    net.forward(a4, high)  # above frozen_below is fine for the net that computed it
    assert net.evaluate(net.prefix(X, 7), y) == net.evaluate(X, y)  # nothing trains
    with pytest.raises(ValueError, match="block 3 cannot start a pass .* block 2"):
        net.forward(a3, low)
    with pytest.raises(ValueError, match="block 3"):
        local_ig_scores(net, low, [(a3, y)])
    ticks = net._changed_at
    with pytest.raises(ValueError, match="block 3"):
        local_train(net, a3, y, low, epochs=1, batch_size=2, lr=0.1)
    assert net._changed_at == ticks  # rejected before any write
    with pytest.raises(ValueError, match="block 4"):
        net.prefix(a4, 3)  # a prefix never runs backwards
    for k in (-1, 8):
        with pytest.raises(ValueError, match="outside 0..7"):
            net.prefix(X, k)
    with pytest.raises(ValueError, match="features"):
        net.forward(a4.data, high)  # a bare array is read as features


def assert_rejected_everywhere(net, acts, y, amap):
    """Every entry point refuses ``acts`` and leaves ``net`` unwritten."""
    ticks = net._changed_at
    y = y[:len(acts)]
    calls = (
        lambda: net.forward(acts, amap),
        lambda: net.evaluate(acts, y),
        lambda: net.prefix(acts, amap.earliest),
        lambda: local_ig_scores(net, amap, [(acts, y)]),
        lambda: local_train(net, acts, y, amap, epochs=1, batch_size=2, lr=0.1),
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
    net.set_lora_state({2: (net.N[2], net.M[2] + 0.1)})
    assert_rejected_everywhere(net, stale, y, amap)
    assert_rejected_everywhere(net.clone(), stale, y, amap)
    assert_rejected_everywhere(net, stale[[0, 1]], y, amap)
    logits, _ = net.forward(X, amap)
    assert net.forward(below, amap)[0].tobytes() == logits.tobytes()
    # from a net built separately on the same seed: the same bytes, another base
    twin = small_net(seed=5, num_blocks=7)
    foreign = twin.prefix(X, 2)
    assert foreign.data.tobytes() == below.data.tobytes()
    assert_rejected_everywhere(net, foreign, y, amap)
    # a clone and its source part ways at their first write below a block
    local = net.clone()
    local.set_lora_state({1: (local.N[1], local.M[1] + 0.1)})
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
    logits, cache = net.forward(X, amap)
    p_logits, p_cache = local.forward(a5, amap)
    assert p_logits.tobytes() == logits.tobytes()
    grads, p_grads = net.backward(cache, y), local.backward(p_cache, y)
    assert all(p_grads[j][i].tobytes() == g[i].tobytes() for j, g in grads.items() for i in (0, 1))
    # the clone's own training writes blocks 5 and up and keeps accepting them
    deltas = local_train(local, a5, y, amap, epochs=2, batch_size=3, lr=0.2)
    ref = net.clone()
    ref_deltas = local_train(ref, X, y, amap, epochs=2, batch_size=3, lr=0.2)
    assert all(deltas[j][i].tobytes() == d[i].tobytes() for j, d in ref_deltas.items()
               for i in (0, 1))
    assert local.frozen_below == 3 and local.accepts(a5)
    trained, _ = local.forward(X, amap)
    assert local.forward(a5, amap)[0].tobytes() == trained.tobytes()
    with pytest.raises(ValueError, match="block 5 cannot start"):
        local.forward(a5, AllocationMap.from_indices(7, [4]))
    # a clone of the clone shares every write below block 5
    twin = local.clone()
    assert twin.accepts(a5)
    # a write below block 5 on the source leaves the clones' blocks as they were
    net.set_lora_state({4: (net.N[4], net.M[4] + 0.1)})
    assert not net.accepts(a5) and local.accepts(a5)
    # and one on the clone makes them stale for it, not for its own clone
    local.set_lora_state({4: (local.N[4], local.M[4] + 0.1)})
    assert (local.frozen_below, twin.frozen_below) == (3, 3)
    assert_rejected_everywhere(local, a5, y, amap)
    assert twin.accepts(a5)


def test_frozen_below_only_falls_and_byte_equal_writes_keep_everything():
    net = small_net(num_blocks=6)
    X = np.random.default_rng(71).normal(size=(3, net.input_dim))
    full = AllocationMap.full(6)
    assert net.frozen_below == 6
    net.forward(X, full)  # builds every weight
    built = list(net._weights)
    arrays = (net.N, net.M)
    ticks = net._changed_at
    # byte-equal factors, passed as fresh arrays: nothing moves
    net.set_lora_state({j: (net.N[j].copy(), net.M[j].copy()) for j in range(6)})
    assert net._changed_at == ticks
    assert net.frozen_below == 6
    assert all(w is b for w, b in zip(net._weights, built))
    assert all(a is b for a, b in zip(net.N + net.M, arrays[0] + arrays[1]))
    # a change lowers frozen_below to the lowest changed block and drops only
    # the changed blocks' weights
    net.set_lora_state({4: (net.N[4], net.M[4] + 0.5), 5: (net.N[5], net.M[5])})
    assert net.frozen_below == 4
    assert net._weights[4] is None
    assert all(net._weights[j] is built[j] for j in (0, 1, 2, 3, 5))
    assert net.N[5] is arrays[0][5] and net.M[5] is arrays[1][5]
    net.set_lora_state({5: (net.N[5] + 1.0, net.M[5])})
    assert net.frozen_below == 4  # a higher change never raises it
    net.set_lora_state({2: (net.N[2], net.M[2] - 0.25)})
    assert net.frozen_below == 2
    # a clone inherits it and lowers its own
    twin = net.clone()
    assert twin.frozen_below == 2
    twin.set_lora_state({0: (twin.N[0], twin.M[0] + 0.1)})
    assert (twin.frozen_below, net.frozen_below) == (0, 2)
    # an SGD step at lr 0 writes byte-equal factors
    before = net.frozen_below
    local_train(net, X, np.zeros(3, dtype=int), AllocationMap.from_indices(6, [1]),
                epochs=1, batch_size=2, lr=0.0)
    assert net.frozen_below == before
    with pytest.raises(ValueError, match="out of range"):
        net.set_lora_state({-1: (net.N[5], net.M[5])})


@pytest.mark.parametrize("hidden", [16, 32, 128])
def test_row_subset_products_are_bitwise_equal(hidden):
    # a cached training prefix over all of a client's rows is sliced into
    # shuffled batches of two rows or more, so ``(A @ W)[idx]`` must equal
    # ``A[idx] @ W`` byte for byte, through the tanh that follows too. This
    # holds on the numpy/BLAS build the pinned digests were recorded with.
    # A one-row batch is multiplied as a vector and may round differently,
    # which is why the simulator never slices one from a prefix.
    rng = np.random.default_rng(hidden)
    embed = rng.normal(0, 1 / np.sqrt(32), (32, hidden))
    W = rng.normal(0, 1 / np.sqrt(hidden), (hidden, hidden))
    b = rng.normal(0, 0.1, hidden)
    for n in [64 + r for r in range(2, 33)] + [250, 1000]:  # last batch of 2..32 rows
        X = rng.normal(size=(n, 32))
        A = np.tanh(X @ embed)
        full_embed, full_act = X @ embed, np.tanh(A @ W + b)
        for idx in np.array_split(rng.permutation(n), range(32, n, 32)):
            assert (X[idx] @ embed).tobytes() == full_embed[idx].tobytes()
            assert np.tanh(A[idx] @ W + b).tobytes() == full_act[idx].tobytes()
