"""Aggregation rules: hand-derived coefficients, envelopes, equivalences."""

from __future__ import annotations

import numpy as np
import pytest

from fedlorasim.aggregation import (
    ContributionHistory,
    InvariantViolation,
    apply_delta,
    com_agg,
    com_agg_fixed,
    fed_avg,
    zero_delta_like,
)
from fedlorasim.memory import AllocationMap


def make_delta(rng, layers, shape=(3, 2)):
    return {j: (rng.normal(size=shape), rng.normal(size=shape[::-1])) for j in layers}


def client(cid, rng, layers, num_blocks=4, shape=(3, 2)):
    return (cid, make_delta(rng, layers, shape), AllocationMap.from_indices(num_blocks, layers))


def test_first_round_equals_fed_avg_on_contributed_layers():
    rng = np.random.default_rng(1)
    prev = zero_delta_like(make_delta(rng, range(4)))
    clients = [client(0, rng, [0, 2]), client(1, rng, [2, 3])]
    hist = ContributionHistory(num_blocks=4, window=5)
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
    prev = make_delta(rng, range(4))
    hist = ContributionHistory(num_blocks=4, window=5)
    hist.append([2] * 4)
    hist.append([2] * 4)
    cl = client(9, rng, [1])
    merged = com_agg(prev, [cl], hist)
    expect_n = (2 / 3) * prev[1][0] + (1 / 3) * cl[1][1][0]
    expect_m = (2 / 3) * prev[1][1] + (1 / 3) * cl[1][1][1]
    np.testing.assert_allclose(merged[1][0], expect_n, rtol=1e-12)
    np.testing.assert_allclose(merged[1][1], expect_m, rtol=1e-12)


def test_alpha_equals_beta_is_even_blend():
    rng = np.random.default_rng(3)
    prev = make_delta(rng, range(2))
    hist = ContributionHistory(num_blocks=2, window=3)
    hist.append([2, 2])
    clients = [client(0, rng, [0, 1], num_blocks=2), client(1, rng, [0, 1], num_blocks=2)]
    merged = com_agg(prev, clients, hist)
    for j in range(2):
        mean_n = (clients[0][1][j][0] + clients[1][1][j][0]) / 2
        np.testing.assert_allclose(merged[j][0], 0.5 * prev[j][0] + 0.5 * mean_n, rtol=1e-12)


def test_beta_window_excludes_current_round():
    rng = np.random.default_rng(4)
    prev = make_delta(rng, range(2))
    hist = ContributionHistory(num_blocks=2, window=3)
    clients = [client(i, rng, [0, 1], num_blocks=2) for i in range(5)]
    merged = com_agg(prev, clients, hist)
    # beta was 0 during the call, so the result is the plain mean...
    mean_n = sum(c[1][0][0] for c in clients) / 5
    np.testing.assert_allclose(merged[0][0], mean_n, rtol=1e-12)
    # ...and the call recorded alpha=5 in the caller's history for the next round
    assert hist.beta(0) == 5.0


def test_carry_forward_variants():
    rng = np.random.default_rng(5)
    prev = make_delta(rng, range(2))
    hist = ContributionHistory(num_blocks=2, window=3)
    hist.append([1, 0])
    merged = com_agg(prev, [], hist)
    # layer 0 was trained before: carried; layer 1 never: zero
    np.testing.assert_array_equal(merged[0][0], prev[0][0])
    assert np.abs(merged[1][0]).max() == 0.0

    hist2 = ContributionHistory(num_blocks=2, window=3)
    hist2.append([1, 1])
    frozen = com_agg(prev, [], hist2, carry_forward=False)
    assert np.abs(frozen[0][0]).max() == 0.0
    assert np.abs(frozen[1][0]).max() == 0.0


def test_convex_envelope_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(100):
        l = int(rng.integers(1, 5))
        prev = make_delta(rng, range(l))
        hist = ContributionHistory(num_blocks=l, window=4)
        for _ in range(int(rng.integers(0, 4))):
            hist.append(list(rng.integers(0, 5, size=l)))
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
    prev = make_delta(rng, range(3))
    clients = [client(0, rng, [0, 1], num_blocks=3), client(1, rng, [1, 2], num_blocks=3)]
    hist1 = ContributionHistory(num_blocks=3, window=3)
    hist1.append([1, 2, 1])
    hist2 = ContributionHistory(num_blocks=3, window=3)
    hist2.append([1, 2, 1])
    c = 3.7
    scaled_prev = {j: (c * n, c * m) for j, (n, m) in prev.items()}
    scaled_clients = [
        (cid, {j: (c * dn, c * dm) for j, (dn, dm) in d.items()}, m) for cid, d, m in clients
    ]
    a = com_agg(prev, clients, hist1)
    b = com_agg(scaled_prev, scaled_clients, hist2)
    for j in range(3):
        np.testing.assert_allclose(b[j][0], c * a[j][0], rtol=1e-12)
        np.testing.assert_allclose(b[j][1], c * a[j][1], rtol=1e-12)


def test_full_participation_converges_to_half_half():
    rng = np.random.default_rng(8)
    l, v = 3, 4
    hist = ContributionHistory(num_blocks=l, window=3)
    prev = make_delta(rng, range(l))
    for _ in range(5):
        clients = [client(i, rng, list(range(l)), num_blocks=l) for i in range(v)]
        merged = com_agg(prev, clients, hist)
        prev = merged
    assert all(hist.beta(j) == v for j in range(l))
    clients = [client(i, rng, list(range(l)), num_blocks=l) for i in range(v)]
    merged = com_agg(prev, clients, hist)
    for j in range(l):
        mean_n = sum(c[1][j][0] for c in clients) / v
        np.testing.assert_allclose(merged[j][0], 0.5 * prev[j][0] + 0.5 * mean_n, rtol=1e-12)


def test_com_agg_fixed_basics_and_recurrence():
    rng = np.random.default_rng(9)
    zero = zero_delta_like(make_delta(rng, range(2)))
    clients = [client(0, rng, [0, 1], num_blocks=2)]
    merged = com_agg_fixed(zero, clients)
    np.testing.assert_allclose(merged[0][0], 0.5 * clients[0][1][0][0], rtol=1e-12)

    # fixed point: mean equal to prev stays put
    prev = make_delta(rng, range(1), shape=(2, 2))
    same = (0, {0: (prev[0][0].copy(), prev[0][1].copy())}, AllocationMap.full(1))
    merged = com_agg_fixed(prev, [same])
    np.testing.assert_allclose(merged[0][0], prev[0][0], rtol=1e-12)

    # three-round unroll with alternating-sign means: delta follows the
    # closed form d_t = d_{t-1}/2 + m_t/2
    x = np.ones((2, 2))
    d = zero_delta_like({0: (x, x)})
    expect = np.zeros((2, 2))
    for t in range(3):
        m = x if t % 2 == 0 else -x
        cl = (0, {0: (m, m)}, AllocationMap.full(1))
        d = com_agg_fixed(d, [cl])
        expect = expect / 2 + m / 2
        np.testing.assert_allclose(d[0][0], expect, rtol=1e-12)

    # no contributors: carry forward
    merged = com_agg_fixed(prev, [])
    np.testing.assert_array_equal(merged[0][0], prev[0][0])


def test_fed_avg_cases():
    rng = np.random.default_rng(10)
    template = zero_delta_like(make_delta(rng, range(3)))
    d = make_delta(rng, range(3))
    clients = [
        (0, {j: (d[j][0].copy(), d[j][1].copy()) for j in range(3)}, AllocationMap.full(3)),
        (1, {j: (d[j][0].copy(), d[j][1].copy()) for j in range(3)}, AllocationMap.full(3)),
    ]
    merged = fed_avg(clients, template)
    for j in range(3):
        np.testing.assert_allclose(merged[j][0], d[j][0], rtol=1e-12)

    solo = [client(0, rng, [1], num_blocks=3)]
    merged = fed_avg(solo, template)
    np.testing.assert_array_equal(merged[1][0], solo[0][1][1][0])
    assert np.abs(merged[0][0]).max() == 0.0

    x = rng.normal(size=(3, 2))
    pair = [
        (0, {0: (x, x.T)}, AllocationMap.from_indices(3, [0])),
        (1, {0: (-x, -x.T)}, AllocationMap.from_indices(3, [0])),
    ]
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
    params = make_delta(rng, range(3))
    zero = zero_delta_like(params)
    same = apply_delta(params, zero)
    for j in range(3):
        np.testing.assert_array_equal(same[j][0], params[j][0])

    neg = {j: (-n, -m) for j, (n, m) in params.items()}
    zeroed = apply_delta(params, neg)
    for j in range(3):
        assert np.abs(zeroed[j][0]).max() == 0.0

    delta = make_delta(rng, range(3))
    out = apply_delta(params, delta)
    for j in range(3):
        for a, b, c in zip(out[j], params[j], delta[j]):
            expect = np.array([[b[r, q] + c[r, q] for q in range(b.shape[1])] for r in range(b.shape[0])])
            np.testing.assert_array_equal(a, expect)

    with pytest.raises(ValueError):
        apply_delta(params, {0: params[0]})


def test_validation_rejects_inconsistent_deltas():
    rng = np.random.default_rng(12)
    prev = make_delta(rng, range(3))
    hist = ContributionHistory(num_blocks=3, window=2)
    # delta for a layer the map marks frozen
    bad = (0, make_delta(rng, [0, 1]), AllocationMap.from_indices(3, [0]))
    with pytest.raises(ValueError):
        com_agg(prev, [bad], hist)
    # missing delta for a trained layer
    bad = (0, make_delta(rng, [0]), AllocationMap.from_indices(3, [0, 1]))
    with pytest.raises(ValueError):
        com_agg_fixed(prev, [bad])
    # wrong shape
    bad = (0, make_delta(rng, [0], shape=(5, 5)), AllocationMap.from_indices(3, [0]))
    with pytest.raises(ValueError):
        fed_avg([bad], prev)


@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
def test_non_finite_client_delta_is_rejected(bad_value):
    rng = np.random.default_rng(13)
    prev = make_delta(rng, range(3))
    good = client(4, rng, [0, 2], num_blocks=3)
    bad = client(7, rng, [1, 2], num_blocks=3)
    bad[1][2][1][1, 0] = bad_value
    rules = (
        lambda cds: com_agg(prev, cds, ContributionHistory(num_blocks=3, window=2)),
        lambda cds: com_agg_fixed(prev, cds),
        lambda cds: fed_avg(cds, prev),
    )
    for rule in rules:
        with pytest.raises(InvariantViolation, match="client 7: layer 2 "):
            rule([good, bad])
        rule([good])


def test_contribution_history_roundtrip_and_validation():
    h = ContributionHistory(num_blocks=2, window=2)
    h.append([1, 2])
    h.append([3, 4])
    h.append([5, 6])            # evicts the first row
    assert h.beta(0) == 4.0
    assert h.beta(1) == 5.0
    back = ContributionHistory.from_jsonable(h.to_jsonable())
    assert back.beta(0) == h.beta(0)
    with pytest.raises(ValueError):
        h.append([1])
    with pytest.raises(ValueError):
        h.append([-1, 0])
