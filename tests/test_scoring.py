"""Scoring: gradient-norm scores, history window, value blending."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import central_difference, score_one, write_blocks
from fedlorasim.aggregation import RoundWindow
from fedlorasim.memory import AllocationMap
from fedlorasim.scoring import (
    IGScoreRecord,
    local_ig_scores,
    update_history,
    value_function,
)
from fedlorasim.toymodel import NonFiniteLossError, ToyLoRANet


def scoring_net(seed=0, num_blocks=2):
    net = ToyLoRANet(num_blocks=num_blocks, hidden_size=5, lora_rank=2,
                     input_dim=4, num_classes=3, lora_alpha=None, seed=seed)
    rng = np.random.default_rng(seed + 100)
    write_blocks(net, {
        j: (rng.normal(0, 0.3, net.N[j].shape), rng.normal(0, 0.3, net.M[j].shape))
        for j in range(net.num_blocks)
    })
    return net


def batch(rng, net, n=6):
    return rng.normal(size=(n, net.input_dim)), rng.integers(0, net.num_classes, size=n)


def test_all_frozen_allocation_gives_empty_scores():
    net = scoring_net()
    rng = np.random.default_rng(1)
    assert score_one(net, AllocationMap.empty(net.num_blocks), [batch(rng, net)]) == {}


def test_scores_only_for_trained_modules_and_nonnegative():
    net = scoring_net(num_blocks=4)
    rng = np.random.default_rng(2)
    amap = AllocationMap.from_indices(4, [1, 3])
    scores = score_one(net, amap, [batch(rng, net), batch(rng, net)])
    assert set(scores) == {1, 3}
    assert all(s >= 0 for s in scores.values())
    assert any(s > 0 for s in scores.values())


def test_loss_scaling_squares_into_scores():
    net = scoring_net(num_blocks=3)
    rng = np.random.default_rng(3)
    batches = [batch(rng, net) for _ in range(3)]
    amap = AllocationMap.full(3)
    base = score_one(net, amap, batches)
    scaled = score_one(net, amap, batches, loss_scale=2.5)
    for j in base:
        assert abs(scaled[j] - 2.5**2 * base[j]) <= 1e-10 * max(1.0, abs(scaled[j]))


def test_score_matches_finite_difference_gradient_norm():
    # independent oracle: central differences entry by entry, then sum of squares
    net = scoring_net(seed=7, num_blocks=2)
    rng = np.random.default_rng(4)
    X, y = batch(rng, net, n=5)
    amap = AllocationMap.full(2)
    scores = score_one(net, amap, [(X, y)])
    for j in range(2):
        total = 0.0
        for k, arr in enumerate((net.N[j], net.M[j])):
            for idx in np.ndindex(*arr.shape):
                total += central_difference(net, X, y, amap, j, k, idx, 1e-6) ** 2
        assert abs(scores[j] - total) / max(1e-12, abs(total)) < 1e-4


def test_scores_add_over_batches():
    net = scoring_net(num_blocks=3)
    rng = np.random.default_rng(5)
    b1, b2 = batch(rng, net), batch(rng, net)
    amap = AllocationMap.full(3)
    both = score_one(net, amap, [b1, b2])
    one = score_one(net, amap, [b1])
    two = score_one(net, amap, [b2])
    for j in both:
        assert both[j] == pytest.approx(one[j] + two[j], rel=1e-12)


def test_scoring_errors():
    net = scoring_net()
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        score_one(net, AllocationMap.full(2), [])
    X, y = batch(rng, net)
    with pytest.raises(ValueError):
        score_one(net, AllocationMap.full(2), [(X[:0], y[:0])])
    bad = np.full_like(X, np.nan)
    with pytest.raises(NonFiniteLossError, match="module"):
        score_one(net, AllocationMap.full(2), [(bad, y)])
    # in a group the first non-finite (block, client) pair in backward's
    # order is named: block 2 of the first client is finite, then block 1 of
    # the second, whose second batch is all NaN
    net = scoring_net(num_blocks=3)
    maps = [AllocationMap.from_indices(3, [0, 2]), AllocationMap.from_indices(3, [1])]
    good = [batch(rng, net) for _ in range(2)]
    (X0, y0), (X1, y1) = (batch(rng, net) for _ in range(2))
    with pytest.raises(NonFiniteLossError) as e:
        local_ig_scores(net, maps, [good, [(X0, y0), (np.full_like(X1, np.nan), y1)]])
    assert str(e.value) == "non-finite gradient for module 1 in batch 1"


def test_record_validation():
    IGScoreRecord(round=1, client_id=0, module_scores={0: 0.0, 3: 2.5})
    with pytest.raises(ValueError):
        IGScoreRecord(round=1, client_id=0, module_scores={0: -1.0})
    with pytest.raises(ValueError):
        IGScoreRecord(round=1, client_id=0, module_scores={0: float("inf")})
    with pytest.raises(ValueError):
        IGScoreRecord(round=1, client_id=0, module_scores={-1: 1.0})


def test_update_history_means_and_unreported_modules():
    h = RoundWindow(num_blocks=4, window=5)
    recs = [
        IGScoreRecord(round=2, client_id=0, module_scores={3: 2.0}),
        IGScoreRecord(round=2, client_id=1, module_scores={3: 4.0, 1: 5.0}),
    ]
    update_history(h, recs, round=2)
    assert h.means[3] == pytest.approx(3.0)
    assert h.means[1] == pytest.approx(5.0)
    assert h.means[0] == 0.0
    assert h.means[2] == 0.0


def test_update_history_round_mismatch_and_range():
    h = RoundWindow(num_blocks=2, window=3)
    with pytest.raises(ValueError):
        update_history(h, [IGScoreRecord(round=1, client_id=0, module_scores={0: 1.0})], round=2)
    with pytest.raises(ValueError):
        update_history(h, [IGScoreRecord(round=1, client_id=0, module_scores={2: 1.0})], round=1)


def test_window_eviction():
    h = RoundWindow(num_blocks=1, window=2)
    for t in range(1, 5):
        update_history(h, [IGScoreRecord(round=t, client_id=0, module_scores={0: float(t)})], round=t)
    # only rounds 3 and 4 survive a window of 2
    assert h.means[0] == pytest.approx(3.5)


def test_stale_scores_stop_influencing_values():
    h = RoundWindow(num_blocks=1, window=3)
    update_history(h, [IGScoreRecord(round=1, client_id=0, module_scores={0: 1e9})], round=1)
    assert value_function(h)[0] == pytest.approx(1e9)
    for t in range(2, 5):
        update_history(h, [IGScoreRecord(round=t, client_id=0, module_scores={0: 1.0})], round=t)
    assert value_function(h)[0] == pytest.approx(1.0)


def test_cold_start_uniform():
    h = RoundWindow(num_blocks=5, window=3)
    assert value_function(h) == [1.0] * 5
    assert value_function(h, None, None) == [1.0] * 5


def test_value_function_collapse_single_client():
    # one client, window 1: local score and cross-client mean coincide, and
    # the trained-bit divisor halves their sum back to the score itself
    h = RoundWindow(num_blocks=2, window=1)
    rec = IGScoreRecord(round=1, client_id=0, module_scores={1: 6.0})
    update_history(h, [rec], round=1)
    vals = value_function(h, rec, AllocationMap.from_indices(2, [1]))
    assert vals[1] == pytest.approx(6.0)
    assert vals[0] == 0.0


def test_value_function_untrained_module_takes_buffer_mean():
    h = RoundWindow(num_blocks=2, window=4)
    rec = IGScoreRecord(round=1, client_id=3, module_scores={1: 2.0})
    other = IGScoreRecord(round=1, client_id=7, module_scores={0: 8.0})
    update_history(h, [other, rec], round=1)
    vals = value_function(h, rec, AllocationMap.from_indices(2, [1]))
    assert vals[0] == pytest.approx(8.0)      # untouched locally: buffer mean, divisor 1
    assert vals[1] == pytest.approx((2.0 + 2.0) / 2)


def test_never_trained_module_scores_zero_after_cold_start():
    h = RoundWindow(num_blocks=3, window=4)
    update_history(h, [IGScoreRecord(round=1, client_id=0, module_scores={0: 5.0})], round=1)
    rec = IGScoreRecord(round=1, client_id=0, module_scores={0: 5.0})
    vals = value_function(h, rec, AllocationMap.from_indices(3, [0]))
    assert vals[2] == 0.0


def test_permutation_equivariance():
    recs = [
        IGScoreRecord(round=1, client_id=i, module_scores={0: float(i + 1)})
        for i in range(4)
    ]
    h1 = RoundWindow(num_blocks=1, window=3)
    h2 = RoundWindow(num_blocks=1, window=3)
    update_history(h1, recs, round=1)
    update_history(h2, list(reversed(recs)), round=1)
    assert h1.means[0] == h2.means[0]


def test_history_serialization_roundtrip():
    h = RoundWindow(num_blocks=2, window=3)
    update_history(h, [IGScoreRecord(round=1, client_id=0, module_scores={0: 2.0})], round=1)
    update_history(h, [IGScoreRecord(round=2, client_id=1, module_scores={1: 4.0})], round=2)
    back = RoundWindow.from_jsonable(h.to_jsonable())
    assert back.means[0] == h.means[0]
    assert back.means[1] == h.means[1]
    assert back.window == h.window
