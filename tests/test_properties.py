"""Property tests: the array allocator against its oracles, one stacked
solve of several instances against a reference solve of each, stacked
effective-weight builds against each block's own, a map stack's
``trainers`` against its bits, batched map prices against
``total_memory``, client updates from the per-client boundary against
updates from the features, lockstep groups against the
rebuilding per-client loop, the activation stamp
check against an explicit write log, ``RoundWindow`` against the two
windows it replaced, and the stacked aggregation rules against the
per-layer loop on dicts they replaced; and a check that a failing property test fails as a
test under the suite's warning settings.

Hypothesis draws the cases; runs are derandomized so every run of the suite
checks the same examples.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    ReferenceContributionHistory,
    ReferenceScoreHistory,
    all_maps,
    enumerate_costs,
    push_counts,
    rebuilding_backward,
    rebuilding_forward,
    rebuilding_local_train,
    reference_allocation,
    reference_com_agg,
    reference_com_agg_fixed,
    reference_fed_avg,
    rows_of,
    same_bytes,
    score_one,
    train_one,
    write_blocks,
)
from fedlorasim.aggregation import RoundWindow, com_agg, com_agg_fixed, fed_avg  # noqa: E402
from fedlorasim.allocator import KnapsackInstance, optimize_allocation  # noqa: E402
from fedlorasim.data import LabeledData  # noqa: E402
from fedlorasim.memory import (  # noqa: E402
    EXACT_COST_LIMIT,
    AllocationMap,
    ModelProfile,
    map_costs,
    marginal_weight,
    total_memory,
)
from fedlorasim.scoring import IGScoreRecord, local_ig_scores, update_history  # noqa: E402
from fedlorasim.simulator import ClientSpec, PrefixCache  # noqa: E402
from fedlorasim.toymodel import (  # noqa: E402
    Activations,
    Adapters,
    Gradients,
    MapStack,
    ToyLoRANet,
    local_train,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def profiles(draw) -> ModelProfile:
    l = draw(st.integers(1, 12))
    per_block = lambda: st.lists(st.integers(0, 5000), min_size=l, max_size=l)
    dynamic = draw(st.one_of(per_block(), st.integers(0, 5000).map(lambda d: [d] * l)))
    return ModelProfile(
        num_blocks=l,
        hidden_size=draw(st.integers(1, 64)),
        seq_len=draw(st.integers(1, 64)),
        lora_rank=draw(st.integers(1, 8)),
        bytes_per_elem=draw(st.sampled_from([1, 2, 4, 8])),
        optimizer_states=draw(st.integers(0, 3)),
        frozen_param_bytes=draw(st.integers(0, 10**7)),
        lora_param_count_per_block=draw(st.integers(0, 10**4)),
        static_act_per_sample=tuple(draw(per_block())),
        dynamic_act_per_sample=tuple(dynamic),
        context_bytes=draw(st.integers(0, 10**7)),
    )


@st.composite
def instances(draw) -> KnapsackInstance:
    profile = draw(profiles())
    l = profile.num_blocks
    batch = draw(st.integers(1, 64))
    lo = total_memory(profile, AllocationMap.empty(l), batch).total_bytes
    hi = total_memory(profile, AllocationMap.full(l), batch).total_bytes
    capacity = draw(st.integers(max(lo, 1), hi + 1))
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                      st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False))
    values = draw(st.lists(value, min_size=l, max_size=l))
    return KnapsackInstance(profile, capacity, batch, tuple(values))


@PROPERTY
@given(instances())
def test_allocation_matches_reference_and_is_feasible_maximal_and_bounded(inst):
    res = optimize_allocation([inst])[0]
    assert res.as_dict() == reference_allocation(inst).as_dict()

    p, l = inst.profile, inst.profile.num_blocks
    used = total_memory(p, res.map, inst.batch).total_bytes
    assert used == res.memory.total_bytes <= inst.capacity_bytes
    residual = inst.capacity_bytes - used
    for j in range(l):
        if not res.map.bits[j]:
            assert marginal_weight(p, res.map, j, inst.batch) > residual

    maps = all_maps(l)
    fits = enumerate_costs(p, inst.batch, maps) <= inst.capacity_bytes
    best = (maps[fits] @ np.asarray(inst.values)).max()
    assert res.total_value <= best + 1e-9


@st.composite
def shared_instances(draw) -> list[KnapsackInstance]:
    """The instances of one solve, sharing a profile and a batch: capacities
    at the empty map's cost (no pick fits), at a map's exact cost, in
    between, and at and past EXACT_COST_LIMIT, where int64 ends too; value
    vectors random, tied (all-zero among them) and baiting the guard pass
    with one dear item among near-free ones. Sometimes the dearest map
    costs exactly EXACT_COST_LIMIT - 1."""
    profile = draw(profiles())
    l = profile.num_blocks
    batch = draw(st.integers(1, 64))
    if draw(st.booleans()):
        top = total_memory(profile, AllocationMap.full(l), batch).total_bytes
        profile = dataclasses.replace(
            profile, frozen_param_bytes=profile.frozen_param_bytes + EXACT_COST_LIMIT - 1 - top)
    base = total_memory(profile, AllocationMap.empty(l), batch).total_bytes
    full = total_memory(profile, AllocationMap.full(l), batch).total_bytes
    capacity = st.one_of(
        st.just(base),
        st.integers(base, full + 1),
        st.lists(st.booleans(), min_size=l, max_size=l).map(
            lambda bits: total_memory(profile, AllocationMap(tuple(bits)), batch).total_bytes),
        st.sampled_from([EXACT_COST_LIMIT - 1, EXACT_COST_LIMIT, 2**63, 2**80]),
    ).map(lambda c: max(c, 1))
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                      st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False))
    vector = st.one_of(
        st.lists(value, min_size=l, max_size=l),
        value.map(lambda v: [v] * l),
        st.integers(0, l - 1).map(lambda j: [10.0 if k == j else 0.001 for k in range(l)]),
    )
    return [KnapsackInstance(profile, draw(capacity), batch, tuple(draw(vector)))
            for _ in range(draw(st.integers(1, 6)))]


@PROPERTY
@given(shared_instances())
def test_one_stacked_solve_equals_a_reference_solve_per_instance(instances):
    results = optimize_allocation(instances)
    assert [r.as_dict() for r in results] == [reference_allocation(i).as_dict() for i in instances]


@PROPERTY
@given(st.data())
def test_stacked_weight_builds_give_the_bytes_of_each_blocks_own(data):
    # writes through set_lora_state on the net, then SGD steps of a group
    # on its clone; after each, a random subset of the blocks is read, so
    # later writes also leave blocks an earlier write changed unbuilt
    l, h, r = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
    alpha = data.draw(st.sampled_from([None, r + 0.5, 2.0 * r]))
    net = ToyLoRANet(num_blocks=l, hidden_size=h, lora_rank=r, input_dim=3, num_classes=2,
                     lora_alpha=alpha, seed=data.draw(st.integers(0, 99)))
    rng = np.random.default_rng(data.draw(st.integers(0, 99)))
    blocks = st.lists(st.integers(0, l - 1), unique=True)

    def check(target, reads):
        for j in reads:
            want = target.W0[j] + target.scale * (target.N[j] @ target.M[j])
            assert target._weight(j).tobytes() == want.tobytes(), j

    for _ in range(data.draw(st.integers(1, 3))):
        write = data.draw(blocks)
        state = net.get_lora_state()
        state.N[write] += rng.normal(size=state.N[write].shape)
        state.M[write] += rng.normal(size=state.M[write].shape)
        net.set_lora_state(state)
        check(net, data.draw(blocks))
    group = net.clone()
    bits = data.draw(st.lists(st.lists(st.booleans(), min_size=l, max_size=l), min_size=1, max_size=3))
    maps = MapStack(tuple(sorted((AllocationMap(tuple(b)) for b in bits),
                                 key=lambda m: l if m.earliest is None else m.earliest)))
    p = len(maps.pair_block)
    for _ in range(data.draw(st.integers(1, 3))):
        group._descend(Gradients(rng.normal(size=(p, h, r)), rng.normal(size=(p, r, h)), maps), 0.1)
        check(group, data.draw(blocks))
    check(net, range(l))
    check(group, range(l))


@PROPERTY
@given(st.integers(1, 9).flatmap(lambda l: st.lists(
    st.lists(st.booleans(), min_size=l, max_size=l), min_size=1, max_size=8)))
def test_map_stack_trainers_are_the_runs_of_its_pair_order(rows):
    l = len(rows[0])
    maps = MapStack(tuple(sorted((AllocationMap(tuple(b)) for b in rows),
                                 key=lambda m: l if m.earliest is None else m.earliest)))
    bits = np.array([m.bits for m in maps.maps], dtype=bool)
    trained = np.flatnonzero(bits.any(axis=0)).tolist()
    assert maps.trained.tolist() == trained
    assert sorted(maps.trainers) == trained
    for j in trained:
        assert maps.trainers[j].tolist() == np.flatnonzero(bits[:, j]).tolist()
    # pair p's gradients hold p, so each slice shows the pairs it covers
    p = len(maps.pair_block)
    pairs = np.arange(p, dtype=float)
    grads = Gradients(np.broadcast_to(pairs[:, None, None], (p, 2, 1)),
                      np.broadcast_to(pairs[:, None, None], (p, 1, 2)), maps)
    items = list(grads.items())
    assert [j for j, _ in items] == trained[::-1]
    lo = 0
    for j, (n, m) in items:
        hi = lo + len(maps.trainers[j])
        assert n[:, 0, 0].tolist() == m[:, 0, 0].tolist() == list(range(lo, hi))
        assert maps.pair_block[lo:hi].tolist() == [j] * (hi - lo)
        assert maps.pair_client[lo:hi].tolist() == maps.trainers[j].tolist()
        lo = hi
    assert lo == p


@PROPERTY
@given(profiles(), st.integers(1, 64), st.data())
def test_map_costs_price_every_row_as_total_memory_does(profile, batch, data):
    l = profile.num_blocks
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=l, max_size=l), max_size=8))
    rows.insert(data.draw(st.integers(0, len(rows))), [False] * l)
    want = [total_memory(profile, AllocationMap.from_bits(r), batch).total_bytes for r in rows]
    for dtype in (bool, np.int64, np.uint8, np.uint64):
        bits = np.array(rows, dtype=dtype)
        costs = map_costs(profile, bits, batch)
        assert costs.dtype == np.int64
        assert costs.tolist() == want


@st.composite
def client_updates(draw):
    l = draw(st.integers(1, 7))
    hidden = draw(st.sampled_from([3, 8, 16]))
    input_dim = draw(st.sampled_from([4, 8]))  # both sides of the training-prefix rule
    batch = draw(st.integers(2, 12))
    n = draw(st.integers(2, 50))  # a one-row training batch trains from the features
    n_ig = draw(st.integers(1, n))  # and a one-row IG batch too
    bits = draw(st.lists(st.booleans(), min_size=l, max_size=l).filter(any))
    changed = draw(st.sets(st.integers(0, l - 1), max_size=3))
    return l, hidden, input_dim, batch, n, n_ig, bits, sorted(changed), draw(st.integers(0, 2**16))


@PROPERTY
@given(client_updates())
# 37 rows in batches of 8 end each epoch on 5; 21 IG rows end on 5 too
@example((5, 8, 8, 8, 37, 21, [False, False, True, False, True], [1], 3))
@example((5, 8, 8, 8, 37, 17, [False, False, True, False, True], [1], 3))  # IG ends on 1
def test_update_from_the_client_boundary_equals_update_from_features(case):
    l, hidden, input_dim, batch, n, n_ig, bits, changed, seed = case
    rng = np.random.default_rng(seed)
    net = ToyLoRANet(num_blocks=l, hidden_size=hidden, lora_rank=2, input_dim=input_dim,
                     num_classes=3, lora_alpha=None, seed=seed)
    # earlier rounds changed some blocks, which sets frozen_below
    write_blocks(net, {j: (net.N[j], rng.normal(0, 0.3, net.M[j].shape)) for j in changed})
    data = LabeledData(rng.normal(size=(n, input_dim)), rng.integers(0, 3, size=n))
    ig = rng.choice(n, size=n_ig, replace=False)
    client = ClientSpec(id=0, level=1, capacity_bytes=1, data=data,
                        ig_rows=[ig[lo : lo + batch] for lo in range(0, n_ig, batch)])
    amap = AllocationMap.from_bits(bits)
    kw = dict(epochs=2, batch_size=batch, lr=0.3)

    ref_scores = score_one(net, amap, [(data.X[rows], data.y[rows]) for rows in client.ig_rows])
    ref_deltas = train_one(net, data.X, data.y, amap, rng=np.random.default_rng(seed), **kw)

    cache = PrefixCache()
    for _ in range(2):  # a cold cache, then the entry the first update left
        local = net.clone()
        X = cache.update_inputs(client, net, amap, batch)
        if client.has_one_row_batch(batch):
            assert X is data.X
        else:
            assert isinstance(X, Activations) and X.block == amap.earliest and local.accepts(X)
        ig = [rows[None] for rows in client.ig_rows]  # the IG batches: rows of the update input
        scores, = local_ig_scores(local, local.group_input([X], [amap]), data.y[None], ig)
        deltas = train_one(local, X, data.y, amap, rng=np.random.default_rng(seed), **kw)
        assert local._changed_at == net._changed_at  # not written
        assert scores == ref_scores
        assert same_bytes(deltas, ref_deltas)


@st.composite
def lockstep_cases(draw):
    l = draw(st.integers(1, 7))
    hidden = draw(st.sampled_from([3, 8, 16]))
    from_prefix = draw(st.booleans())
    # IG batches of 32 and 18 rows over 50 rows, or one batch of n_ig rows
    split_ig = draw(st.booleans())
    n = 50 if split_ig else draw(st.integers(2, 30))
    # batches sliced from a prefix have two rows or more (see PrefixCache);
    # from the features a batch may have one row, or all of them
    batch = draw(st.integers(2 if from_prefix else 1, 9)
                 .filter(lambda b: not from_prefix or n % b != 1))
    maps = draw(st.lists(st.lists(st.booleans(), min_size=l, max_size=l), min_size=1, max_size=6))
    shuffled = draw(st.lists(st.booleans(), min_size=len(maps), max_size=len(maps)))
    # rank 1 makes the factor products outer products; lr 0 must give zero deltas
    rank, lr = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([0.0, 0.3]))
    return (l, hidden, batch, n, from_prefix, maps, shuffled, draw(st.integers(1, 2)),
            draw(st.integers(1, n)), rank, lr, draw(st.integers(0, 2**16)), split_ig)


@PROPERTY
@given(lockstep_cases())
# one-row batches from the features, three clients joining at blocks 0, 1, 2
@example((4, 8, 1, 5, False, [[True, False, True, True], [False, True, False, True],
                              [False, False, True, False]], [True, False, True], 2, 1, 2, 0.3,
          7, False))
# IG batches of 32 and 18 rows from each client's earliest block
@example((5, 16, 8, 50, True, [[False, True, False, True, True], [False, False, True, False, True]],
          [True, True], 1, 50, 2, 0.3, 11, True))
def test_lockstep_group_equals_the_rebuilding_per_client_loop(case):
    """Random maps (empty ones too) for up to six clients, ranks 1 to 3 and
    lr 0 or 0.3, from the features or from each client's earliest block,
    batches of one row from the features, and one IG batch or two of 32 and
    18 rows: every client's deltas and scores from one group input are the
    bytes of the rebuilding per-client loop."""
    l, hidden, batch, n, from_prefix, bits, shuffled, epochs, n_ig, rank, lr, seed, split = case
    rng = np.random.default_rng(seed)
    net = ToyLoRANet(num_blocks=l, hidden_size=hidden, lora_rank=rank, input_dim=8,
                     num_classes=3, lora_alpha=None, seed=seed)
    write_blocks(net, {j: (net.N[j], rng.normal(0, 0.3, net.M[j].shape)) for j in range(l)})
    # a group comes in pass order, by earliest trainable block (L for none)
    maps = sorted((AllocationMap.from_bits(b) for b in bits),
                  key=lambda m: l if m.earliest is None else m.earliest)
    data = [(rng.normal(size=(n, 8)), rng.integers(0, 3, size=n)) for _ in maps]
    starts = [net.num_blocks if m.earliest is None else m.earliest for m in maps]
    inputs = [net.prefix(X, k) if from_prefix else X for (X, _), k in zip(data, starts)]
    orders = lambda: [np.random.default_rng(c) if s else None for c, s in enumerate(shuffled)]
    kw = dict(epochs=epochs, batch_size=batch, lr=lr)
    group, labels = net.group_input(inputs, maps), np.stack([y for _, y in data])
    deltas = local_train(net, group, labels, rng=orders(), **kw)
    ig = [np.arange(32), np.arange(32, 50)] if split else [np.arange(n_ig)]
    scores = local_ig_scores(net, group, labels,
                             [np.broadcast_to(rows, (len(maps), len(rows))) for rows in ig])
    for (X, y), amap, d, s, r in zip(data, maps, deltas, scores, orders()):
        assert same_bytes(d, rebuilding_local_train(net.clone(), X, y, amap, rng=r, **kw))
        if not from_prefix or all(len(rows) > 1 for rows in ig):
            want = {j: 0.0 for j in amap.trainable_indices}
            for rows in ig:
                _, cache = rebuilding_forward(net, X[rows], amap)
                for j, (gn, gm) in rebuilding_backward(net, cache, y[rows]).items():
                    want[j] += float((gn * gn).sum() + (gm * gm).sum())
            assert s == want


@PROPERTY
@given(st.integers(1, 6), st.data())
def test_activations_are_accepted_exactly_while_no_block_below_them_changed(l, data):
    """Random writes, byte-equal rewrites, clones and prefixes on two nets
    built on one seed. The log gives each net, per block, the write its
    adapters hold (None before any write; a clone inherits its source's);
    activations are accepted exactly when the net is of their family and
    holds, below their block, the writes they were computed through, and
    then they are the bytes the net computes now."""
    rng = np.random.default_rng(l)
    X = rng.normal(size=(3, 4))
    make = lambda: ToyLoRANet(num_blocks=l, hidden_size=3, lora_rank=2, input_dim=4,
                              num_classes=2, lora_alpha=None, seed=0)
    nets, family, held = [make(), make()], [0, 1], [[None] * l, [None] * l]
    made = []  # (activations, family, writes held below their block)
    for write in range(data.draw(st.integers(1, 12))):
        i = data.draw(st.integers(0, len(nets) - 1))
        op = data.draw(st.sampled_from(["write", "rewrite", "clone", "prefix", "prefix"]))
        net = nets[i]
        if op == "write":
            blocks = data.draw(st.sets(st.integers(0, l - 1), min_size=1, max_size=l))
            write_blocks(net, {j: (net.N[j], net.M[j] + 0.1 * (write + 1)) for j in blocks})
            for j in blocks:
                held[i][j] = write
        elif op == "rewrite":  # byte-equal factors change nothing
            write_blocks(net, {j: (net.N[j].copy(), net.M[j].copy()) for j in range(l)})
        elif op == "clone":
            nets.append(net.clone())
            family.append(family[i])
            held.append(list(held[i]))
        else:
            k = data.draw(st.integers(0, l))
            rows = data.draw(st.sampled_from([slice(None), [2, 0]]))
            made.append((rows_of(net.prefix(X, k), rows), rows, family[i], held[i][:k]))
        for acts, rows, fam, below in made:
            for b, other in enumerate(nets):
                want = family[b] == fam and held[b][:acts.block] == below
                assert other.accepts(acts) == want
                if want:
                    fresh = other.prefix(X, acts.block).data[rows]
                    assert fresh.tobytes() == acts.data.tobytes()


def _read_back(window: RoundWindow) -> RoundWindow:
    return RoundWindow.from_jsonable(json.loads(json.dumps(window.to_jsonable())))


def _assert_window_is(window: RoundWindow, means, entries) -> None:
    """``window`` holds ``entries`` ([round, value] lists per layer) and
    ``means``, byte for byte: signed zeros and ints stay what they are, so
    the JSON text is compared, and reading its JSON back gives it again."""
    assert np.array(window.means).tobytes() == np.array(means).tobytes()
    want = {"num_blocks": len(entries), "window": window.window, "round": window.round,
            "entries": entries}
    assert json.dumps(window.to_jsonable()) == json.dumps(want)
    back = _read_back(window)
    assert json.dumps(back.to_jsonable()) == json.dumps(want)
    assert np.array(back.means).tobytes() == np.array(means).tobytes()


#: values with signed zeros among them: a -0.0 entry keeps its sign in the
#: window's entries, and a mean is -0.0 only if its sum starts from -0.0
SCORES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0, 1e12, allow_nan=False,
                                                             allow_infinity=False))


@PROPERTY
@given(st.data())
def test_score_window_matches_the_round_cutoff_buffers(data):
    """``update_history``, or a push of given values, gives the old score
    buffers' means and entries byte for byte, over windows up to 12 rounds,
    rounds with gaps, unreported and never-reported modules, signed zeros
    and several clients; its JSON reads back as written."""
    l, size = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 12))
    window, ref = RoundWindow(l, size), ReferenceScoreHistory(l, size)
    t = 0
    for _ in range(data.draw(st.integers(0, 16))):
        t += data.draw(st.integers(1, 3))
        if data.draw(st.booleans()):
            records = [IGScoreRecord(t, cid, data.draw(st.dictionaries(st.integers(0, l - 1),
                                                                       SCORES)))
                       for cid in range(data.draw(st.integers(0, 3)))]
            update_history(window, records, t)
            ref.update(records, t)
        else:
            values = data.draw(st.dictionaries(st.integers(0, l - 1), SCORES))
            window.push(t, values)
            ref.push(t, values)
        _assert_window_is(window, ref.means(), [[[r, m] for r, m in buf] for buf in ref.buffers])


@PROPERTY
@given(st.data())
def test_count_window_matches_the_maxlen_deques(data):
    """Pushing every layer's count each round gives the old deques' betas
    byte for byte, over windows up to 12 rounds, and keeps the counts
    Python ints in the window's JSON."""
    l, size = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 12))
    window, ref = RoundWindow(l, size), ReferenceContributionHistory(l, size)
    for _ in range(data.draw(st.integers(0, 16))):
        counts = data.draw(st.lists(st.integers(0, 9), min_size=l, max_size=l))
        push_counts(window, counts)
        ref.append(counts)
        t = window.round
        _assert_window_is(window, [ref.beta(j) for j in range(l)],
                          [[[r, c] for r, c in zip(range(t - len(buf) + 1, t + 1), buf)]
                           for buf in ref.counts])


@st.composite
def blend_cases(draw):
    c, l = draw(st.integers(0, 11)), draw(st.integers(1, 19))
    bits = draw(st.lists(st.lists(st.booleans(), min_size=l, max_size=l), min_size=c, max_size=c))
    counts = draw(st.lists(st.lists(st.integers(0, 11), min_size=l, max_size=l), max_size=3))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 2)))
    zeros = draw(st.sampled_from([0.0, 0.5, 0.95]))  # share of entries set to +0.0 or -0.0
    return (bits, l, counts, shape, zeros, draw(st.sampled_from(["comagg", "comagg_fixed", "fedavg"])),
            draw(st.booleans()), draw(st.integers(0, 2**16)))


@PROPERTY
@given(blend_cases())
def test_stacked_rules_match_the_per_layer_loop_on_dicts(case):
    """Each rule's blend of stacked deltas is the bytes of the per-layer
    loop on ``{block: (dN, dM)}`` dicts, signed zeros included, for random
    maps (layers with no contributor too), histories and ``carry_forward``.
    The rows of blocks a client does not train hold signed zeros, which the
    masked sum must skip."""
    bits, l, counts, (h, r), zeros, rule, carry_forward, seed = case
    rng = np.random.default_rng(seed)

    def values(*shape):
        v = rng.normal(size=shape)
        hit = rng.random(shape) < zeros
        v[hit] = rng.choice([-0.0, 0.0], size=int(hit.sum()))
        return v

    def signed_zeros(*shape):
        return rng.choice([-0.0, 0.0], size=shape)

    prev = Adapters(values(l, h, r), values(l, r, h))
    stacked, dicts = [], []
    for cid, b in enumerate(bits):
        amap = AllocationMap.from_bits(b)
        N, M = signed_zeros(l, h, r), signed_zeros(l, r, h)
        for j in amap.trainable_indices:
            N[j], M[j] = values(h, r), values(r, h)
        stacked.append((cid, Adapters(N, M), amap))
        dicts.append((cid, {j: (N[j].copy(), M[j].copy()) for j in amap.trainable_indices}, amap))
    prev_dict = {j: (prev.N[j].copy(), prev.M[j].copy()) for j in range(l)}

    window, ref_window = RoundWindow(l, 2), RoundWindow(l, 2)
    for row in counts:
        push_counts(window, row)
        push_counts(ref_window, row)
    if rule == "comagg":
        got = com_agg(prev, stacked, window, carry_forward=carry_forward)
        want = reference_com_agg(prev_dict, dicts, ref_window, carry_forward=carry_forward)
    elif rule == "comagg_fixed":
        got, want = com_agg_fixed(prev, stacked), reference_com_agg_fixed(prev_dict, dicts)
    else:
        got, want = fed_avg(stacked, prev), reference_fed_avg(dicts, prev_dict)
    assert same_bytes(got, Adapters(np.stack([n for n, _ in want.values()]),
                                    np.stack([m for _, m in want.values()])))
    assert window.to_jsonable() == ref_window.to_jsonable()


PROBE = '''
from hypothesis import given, settings, strategies as st

@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x < 0

def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_abort_the_session(tmp_path):
    # reporting a failing example makes hypothesis import libcst, whose import
    # warns; under the suite's warning settings that must stay a test failure,
    # not an INTERNALERROR that ends the session before the next test runs
    (tmp_path / "test_probe.py").write_text(PROBE)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
