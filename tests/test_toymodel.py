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


def randomize_adapters(net, rng, scale=0.3):
    state = {
        j: (
            rng.normal(0, scale, net.N[j].shape),
            rng.normal(0, scale, net.M[j].shape),
        )
        for j in range(net.num_blocks)
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
    _, cache = net.forward(X, AllocationMap.full(net.num_blocks))
    net.set_lora_state(net.get_lora_state())
    with pytest.raises(StaleCacheError):
        net.backward(cache, np.zeros(2, dtype=int))


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
