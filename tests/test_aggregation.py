"""Aggregation rules: hand-derived coefficients, envelopes, equivalences."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import push_counts
from fedlorasim.aggregation import (
    InvariantViolation,
    RoundWindow,
    apply_delta,
    com_agg,
    com_agg_fixed,
    fed_avg,
    zero_delta_like,
)
from fedlorasim.memory import AllocationMap
from fedlorasim.toymodel import Adapters


def make_delta(rng, num_blocks, layers=None, shape=(3, 2)) -> Adapters:
    """Adapters of ``num_blocks`` layers: normal draws on ``layers`` (every
    layer by default), zero rows on the others."""
    N, M = np.zeros((num_blocks, *shape)), np.zeros((num_blocks, *shape[::-1]))
    for j in range(num_blocks) if layers is None else layers:
        N[j], M[j] = rng.normal(size=shape), rng.normal(size=shape[::-1])
    return Adapters(N, M)


def client(cid, rng, layers, num_blocks=4, shape=(3, 2)):
    return (cid, make_delta(rng, num_blocks, layers, shape),
            AllocationMap.from_indices(num_blocks, layers))


def test_first_round_equals_fed_avg_on_contributed_layers():
    rng = np.random.default_rng(1)
    prev = zero_delta_like(make_delta(rng, 4))
    clients = [client(0, rng, [0, 2]), client(1, rng, [2, 3])]
    hist = RoundWindow(num_blocks=4, window=5)
    merged = com_agg(prev, clients, hist)
    plain = fed_avg(clients, prev)
    for j in range(4):
        np.testing.assert_allclose(merged[j][0], plain[j][0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(merged[j][1], plain[j][1], rtol=1e-12, atol=0)
    # layer 1 had no contributor and no history: exact zero
    assert np.abs(merged[1][0]).max() == 0.0


def test_hand_derived_coefficients_one_of_three():
    # window holds counts [2, 2] so beta = 2; one contributor now, so the
    # blend is 2/3 previous and 1/3 fresh
    rng = np.random.default_rng(2)
    prev = make_delta(rng, 4)
    hist = RoundWindow(num_blocks=4, window=5)
    push_counts(hist, [2] * 4)
    push_counts(hist, [2] * 4)
    cl = client(9, rng, [1])
    merged = com_agg(prev, [cl], hist)
    expect_n = (2 / 3) * prev[1][0] + (1 / 3) * cl[1][1][0]
    expect_m = (2 / 3) * prev[1][1] + (1 / 3) * cl[1][1][1]
    np.testing.assert_allclose(merged[1][0], expect_n, rtol=1e-12)
    np.testing.assert_allclose(merged[1][1], expect_m, rtol=1e-12)


def test_alpha_equals_beta_is_even_blend():
    rng = np.random.default_rng(3)
    prev = make_delta(rng, 2)
    hist = RoundWindow(num_blocks=2, window=3)
    push_counts(hist, [2, 2])
    clients = [client(0, rng, [0, 1], num_blocks=2), client(1, rng, [0, 1], num_blocks=2)]
    merged = com_agg(prev, clients, hist)
    for j in range(2):
        mean_n = (clients[0][1][j][0] + clients[1][1][j][0]) / 2
        np.testing.assert_allclose(merged[j][0], 0.5 * prev[j][0] + 0.5 * mean_n, rtol=1e-12)


def test_beta_window_excludes_current_round():
    rng = np.random.default_rng(4)
    prev = make_delta(rng, 2)
    hist = RoundWindow(num_blocks=2, window=3)
    clients = [client(i, rng, [0, 1], num_blocks=2) for i in range(5)]
    merged = com_agg(prev, clients, hist)
    # beta was 0 during the call, so the result is the plain mean...
    mean_n = sum(c[1][0][0] for c in clients) / 5
    np.testing.assert_allclose(merged[0][0], mean_n, rtol=1e-12)
    # ...and the call recorded alpha=5 in the caller's history for the next round
    assert hist.means[0] == 5.0


def test_carry_forward_variants():
    rng = np.random.default_rng(5)
    prev = make_delta(rng, 2)
    hist = RoundWindow(num_blocks=2, window=3)
    push_counts(hist, [1, 0])
    merged = com_agg(prev, [], hist)
    # layer 0 was trained before: carried; layer 1 never: zero
    np.testing.assert_array_equal(merged[0][0], prev[0][0])
    assert np.abs(merged[1][0]).max() == 0.0

    hist2 = RoundWindow(num_blocks=2, window=3)
    push_counts(hist2, [1, 1])
    frozen = com_agg(prev, [], hist2, carry_forward=False)
    assert np.abs(frozen[0][0]).max() == 0.0
    assert np.abs(frozen[1][0]).max() == 0.0


def test_convex_envelope_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(100):
        l = int(rng.integers(1, 5))
        prev = make_delta(rng, l)
        hist = RoundWindow(num_blocks=l, window=4)
        for _ in range(int(rng.integers(0, 4))):
            push_counts(hist, list(rng.integers(0, 5, size=l)))
        n_cl = int(rng.integers(1, 5))
        clients = []
        for cid in range(n_cl):
            layers = [j for j in range(l) if rng.random() < 0.6]
            clients.append(client(cid, rng, layers, num_blocks=l))
        merged = com_agg(prev, clients, hist)
        for j in range(l):
            contribs = [d[j] for _, d, m in clients if m.bits[j]]
            if not contribs:
                continue
            mean_n = sum(c[0] for c in contribs) / len(contribs)
            lo = np.minimum(prev[j][0], mean_n) - 1e-12
            hi = np.maximum(prev[j][0], mean_n) + 1e-12
            assert (merged[j][0] >= lo).all() and (merged[j][0] <= hi).all()


def test_linearity_in_inputs():
    rng = np.random.default_rng(7)
    prev = make_delta(rng, 3)
    clients = [client(0, rng, [0, 1], num_blocks=3), client(1, rng, [1, 2], num_blocks=3)]
    hist1 = RoundWindow(num_blocks=3, window=3)
    push_counts(hist1, [1, 2, 1])
    hist2 = RoundWindow(num_blocks=3, window=3)
    push_counts(hist2, [1, 2, 1])
    c = 3.7
    scaled_prev = Adapters(c * prev.N, c * prev.M)
    scaled_clients = [(cid, Adapters(c * d.N, c * d.M), m) for cid, d, m in clients]
    a = com_agg(prev, clients, hist1)
    b = com_agg(scaled_prev, scaled_clients, hist2)
    for j in range(3):
        np.testing.assert_allclose(b[j][0], c * a[j][0], rtol=1e-12)
        np.testing.assert_allclose(b[j][1], c * a[j][1], rtol=1e-12)


def test_full_participation_converges_to_half_half():
    rng = np.random.default_rng(8)
    l, v = 3, 4
    hist = RoundWindow(num_blocks=l, window=3)
    prev = make_delta(rng, l)
    for _ in range(5):
        clients = [client(i, rng, list(range(l)), num_blocks=l) for i in range(v)]
        merged = com_agg(prev, clients, hist)
        prev = merged
    assert all(hist.means[j] == v for j in range(l))
    clients = [client(i, rng, list(range(l)), num_blocks=l) for i in range(v)]
    merged = com_agg(prev, clients, hist)
    for j in range(l):
        mean_n = sum(c[1][j][0] for c in clients) / v
        np.testing.assert_allclose(merged[j][0], 0.5 * prev[j][0] + 0.5 * mean_n, rtol=1e-12)


def test_com_agg_fixed_basics_and_recurrence():
    rng = np.random.default_rng(9)
    zero = zero_delta_like(make_delta(rng, 2))
    clients = [client(0, rng, [0, 1], num_blocks=2)]
    merged = com_agg_fixed(zero, clients)
    np.testing.assert_allclose(merged[0][0], 0.5 * clients[0][1][0][0], rtol=1e-12)

    # fixed point: mean equal to prev stays put
    prev = make_delta(rng, 1, shape=(2, 2))
    same = (0, Adapters(prev.N.copy(), prev.M.copy()), AllocationMap.full(1))
    merged = com_agg_fixed(prev, [same])
    np.testing.assert_allclose(merged[0][0], prev[0][0], rtol=1e-12)

    # three-round unroll with alternating-sign means: delta follows the
    # closed form d_t = d_{t-1}/2 + m_t/2
    x = np.ones((2, 2))
    d = zero_delta_like(Adapters(x[None], x[None]))
    expect = np.zeros((2, 2))
    for t in range(3):
        m = x if t % 2 == 0 else -x
        cl = (0, Adapters(m[None], m[None]), AllocationMap.full(1))
        d = com_agg_fixed(d, [cl])
        expect = expect / 2 + m / 2
        np.testing.assert_allclose(d[0][0], expect, rtol=1e-12)

    # no contributors: carry forward
    merged = com_agg_fixed(prev, [])
    np.testing.assert_array_equal(merged[0][0], prev[0][0])


def test_fed_avg_cases():
    rng = np.random.default_rng(10)
    template = zero_delta_like(make_delta(rng, 3))
    d = make_delta(rng, 3)
    clients = [(cid, Adapters(d.N.copy(), d.M.copy()), AllocationMap.full(3)) for cid in (0, 1)]
    merged = fed_avg(clients, template)
    for j in range(3):
        np.testing.assert_allclose(merged[j][0], d[j][0], rtol=1e-12)

    solo = [client(0, rng, [1], num_blocks=3)]
    merged = fed_avg(solo, template)
    np.testing.assert_array_equal(merged[1][0], solo[0][1][1][0])
    assert np.abs(merged[0][0]).max() == 0.0

    x = rng.normal(size=(3, 2))
    pair = []
    for cid, sign in ((0, 1.0), (1, -1.0)):
        delta = zero_delta_like(template)
        delta.N[0], delta.M[0] = sign * x, sign * x.T
        pair.append((cid, delta, AllocationMap.from_indices(3, [0])))
    merged = fed_avg(pair, template)
    np.testing.assert_allclose(merged[0][0], np.zeros_like(x), atol=1e-15)

    # nobody trained: zero everywhere, same shapes as the template
    empty = fed_avg([], template)
    assert sorted(empty) == sorted(template)
    for j in range(3):
        for got, like in zip(empty[j], template[j]):
            assert got.shape == like.shape and np.abs(got).max() == 0.0


def test_apply_delta():
    rng = np.random.default_rng(11)
    params = make_delta(rng, 3)
    zero = zero_delta_like(params)
    same = apply_delta(params, zero)
    for j in range(3):
        np.testing.assert_array_equal(same[j][0], params[j][0])

    neg = Adapters(-params.N, -params.M)
    zeroed = apply_delta(params, neg)
    for j in range(3):
        assert np.abs(zeroed[j][0]).max() == 0.0

    delta = make_delta(rng, 3)
    out = apply_delta(params, delta)
    for j in range(3):
        for a, b, c in zip(out[j], params[j], delta[j]):
            expect = np.array([[b[r, q] + c[r, q] for q in range(b.shape[1])] for r in range(b.shape[0])])
            np.testing.assert_array_equal(a, expect)

    with pytest.raises(ValueError, match="do not match parameters"):
        apply_delta(params, make_delta(rng, 2))


def test_validation_rejects_inconsistent_deltas():
    rng = np.random.default_rng(12)
    prev = make_delta(rng, 3)
    hist = RoundWindow(num_blocks=3, window=2)
    # a nonzero delta for a layer the map marks frozen
    bad = (0, make_delta(rng, 3, [0, 1]), AllocationMap.from_indices(3, [0]))
    with pytest.raises(ValueError, match="client 0: layer 1 delta is nonzero"):
        com_agg(prev, [bad], hist)
    # a delta or a map of another layer count
    for bad in ((0, make_delta(rng, 2, [0]), AllocationMap.from_indices(3, [0])),
                (0, make_delta(rng, 3, [0]), AllocationMap.from_indices(2, [0]))):
        with pytest.raises(ValueError, match="does not match the model"):
            com_agg_fixed(prev, [bad])
    # wrong shape
    bad = (0, make_delta(rng, 3, [0], shape=(5, 5)), AllocationMap.from_indices(3, [0]))
    with pytest.raises(ValueError, match="does not match the model"):
        fed_avg([bad], prev)
    # a trained layer may move by zero, as training at lr 0 gives
    still = (0, make_delta(rng, 3, [0]), AllocationMap.from_indices(3, [0, 1]))
    assert np.abs(fed_avg([still], prev)[1][0]).max() == 0.0


@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
def test_non_finite_client_delta_is_rejected(bad_value):
    rng = np.random.default_rng(13)
    prev = make_delta(rng, 3)
    good = client(4, rng, [0, 2], num_blocks=3)
    bad = client(7, rng, [1, 2], num_blocks=3)
    bad[1][2][1][1, 0] = bad_value
    rules = (
        lambda cds: com_agg(prev, cds, RoundWindow(num_blocks=3, window=2)),
        lambda cds: com_agg_fixed(prev, cds),
        lambda cds: fed_avg(cds, prev),
    )
    for rule in rules:
        with pytest.raises(InvariantViolation, match="client 7: layer 2 "):
            rule([good, bad])
        rule([good])


def test_contribution_history_roundtrip_and_validation():
    h = RoundWindow(num_blocks=2, window=2)
    push_counts(h, [1, 2])
    push_counts(h, [3, 4])
    push_counts(h, [5, 6])            # evicts the first round
    assert h.means == (4.0, 5.0) and h.round == 3
    back = RoundWindow.from_jsonable(json.loads(json.dumps(h.to_jsonable())))
    assert back.to_jsonable() == h.to_jsonable() and back.means == h.means
    before = h.to_jsonable()
    with pytest.raises(ValueError, match="layer 2 out of range"):
        push_counts(h, [1, 0, 1])
    with pytest.raises(ValueError, match="layer 0: value must be finite and >= 0"):
        push_counts(h, [-1, 0])
    with pytest.raises(ValueError, match="layer 1: value must be finite"):
        h.push(4, {1: float("nan")})
    with pytest.raises(ValueError, match="round 3 does not follow round 3"):
        h.push(3, {})
    assert h.to_jsonable() == before  # a refused push changes nothing


def test_window_evicts_by_round_and_keeps_unnamed_layers():
    w = RoundWindow(num_blocks=2, window=3)
    w.push(1, {0: 1.0, 1: 8.0})
    w.push(2, {0: 2.0})
    assert w.means == (1.5, 8.0)
    w.push(4, {})  # the window is now rounds 2..4: round 1 leaves
    assert w.means == (2.0, 0.0) and not w.is_empty()
    w.push(5, {})
    assert w.means == (0.0, 0.0) and w.is_empty()


def test_window_means_add_in_round_order():
    # a pairwise sum (numpy's reduce along one contiguous axis of 8 or more
    # entries) gives 2**53 + 10 here; adding in round order, as a per-layer
    # sum(...) does, loses every 1.0 to rounding and gives 2**53
    values = [2.0**53] + [1.0] * 11
    w = RoundWindow(num_blocks=1, window=12)
    for t, v in enumerate(values, start=1):
        w.push(t, {0: v})
    assert w.means == (sum(values) / 12,) == (2.0**53 / 12,)


def window_dict(*entries, round=4):
    return {"num_blocks": 4, "window": 2, "round": round,
            "entries": [list(e) for e in entries] + [[] for _ in range(4 - len(entries))]}


@pytest.mark.parametrize("d", [
    [[[4, 2.0]]],                                                # entries without their window
    {**window_dict(), "entries": [[[4, 2.0]]]},                  # one entry list for 4 layers
    {**window_dict(), "entries": [[[4, 2.0]], [], [], [], []]},  # one list too many
    window_dict([[1, 2.0], [4, 3.0]]),                           # round 1 is outside the window
    window_dict([[4, -1.0]]),                                    # a negative score
    window_dict([[4, float("nan")]]),                            # a NaN score
    window_dict([[1, 1], [2, 2], [3, 3], [4, 8]]),               # 4 counts for window 2
    window_dict([[4, -4]]),                                      # a count of -4
    window_dict([[4, 1], [3, 1]]),                               # rounds out of order
    window_dict([[4, 1], [4, 2]]),                               # two entries for one round
    window_dict([[5, 1]]),                                       # an entry after the last round
    window_dict(round=-1),                                       # a round before the first
    window_dict([[4, "1"]]),                                     # a value that is no number
    {k: v for k, v in window_dict().items() if k != "round"},    # a missing field
    {**window_dict(), "extra": 1},                               # a field too many
    {**window_dict(), "round": 4.0},                             # a round as a float
    {**window_dict(), "window": 2.0},                            # a window as a float
    window_dict([[4.0, 1.0]]),                                   # an entry round as a float
    {**window_dict([[True, 1.0]]), "round": True},               # rounds as bools
    window_dict([[4, True]]),                                    # a value as a bool
    {**window_dict(), "num_blocks": True, "entries": [[]]},      # a layer count as a bool
])
def test_malformed_window_checkpoint_is_refused_naming_its_key(d):
    good = window_dict([[3, 1.5], [4, 2.0]], [[4, 0]])
    assert RoundWindow.from_jsonable(good).means == (1.75, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="^contribution_history: "):
        RoundWindow.from_jsonable(d, "contribution_history")
