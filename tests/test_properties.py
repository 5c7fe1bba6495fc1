"""Property tests: the array allocator against its oracles, batched map
prices against ``total_memory``, client updates from the per-client
boundary against updates from the features, and the activation stamp
check against an explicit write log.

Hypothesis draws the cases; runs are derandomized so every run of the suite
checks the same examples.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from conftest import all_maps, enumerate_costs, reference_allocation  # noqa: E402
from fedlorasim.allocator import KnapsackInstance, optimize_allocation  # noqa: E402
from fedlorasim.data import LabeledData  # noqa: E402
from fedlorasim.memory import (  # noqa: E402
    AllocationMap,
    ModelProfile,
    map_costs,
    marginal_weight,
    total_memory,
)
from fedlorasim.scoring import local_ig_scores  # noqa: E402
from fedlorasim.simulator import ClientSpec, PrefixCache  # noqa: E402
from fedlorasim.toymodel import Activations, ToyLoRANet, local_train  # noqa: E402

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
    res = optimize_allocation(inst)
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
    n = draw(st.integers(2, 50).filter(lambda n: n % batch != 1))
    n_ig = draw(st.integers(1, n))  # a one-row IG batch scores from the features
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
    net.set_lora_state({j: (net.N[j], rng.normal(0, 0.3, net.M[j].shape)) for j in changed})
    data = LabeledData(rng.normal(size=(n, input_dim)), rng.integers(0, 3, size=n))
    ig = rng.choice(n, size=n_ig, replace=False)
    client = ClientSpec(id=0, level=1, capacity_bytes=1, data=data,
                        ig_rows=[ig[lo : lo + batch] for lo in range(0, n_ig, batch)])
    assert not client.has_one_row_training_batch(batch)
    amap = AllocationMap.from_bits(bits)
    kw = dict(epochs=2, batch_size=batch, lr=0.3)

    ref = net.clone()
    ref_scores = local_ig_scores(ref, amap, client.ig_batches)
    ref_deltas = local_train(ref, data.X, data.y, amap, rng=np.random.default_rng(seed), **kw)

    cache = PrefixCache()
    for _ in range(2):  # a cold cache, then the entry the first update left
        local = net.clone()
        X, ig_batches = cache.update_inputs(client, net, amap, batch)
        assert isinstance(X, Activations) and X.block == amap.earliest
        from_acts = [isinstance(a, Activations) for a, _ in ig_batches]
        assert from_acts == [not client.has_one_row_ig_batch] * len(ig_batches)
        scores = local_ig_scores(local, amap, ig_batches)
        deltas = local_train(local, X, data.y, amap, rng=np.random.default_rng(seed), **kw)
        assert local.accepts(X)  # its writes landed on the earliest block and up
        assert scores == ref_scores
        assert list(deltas) == list(ref_deltas)
        for j, (dn, dm) in ref_deltas.items():
            assert deltas[j][0].tobytes() == dn.tobytes()
            assert deltas[j][1].tobytes() == dm.tobytes()


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
            net.set_lora_state({j: (net.N[j], net.M[j] + 0.1 * (write + 1)) for j in blocks})
            for j in blocks:
                held[i][j] = write
        elif op == "rewrite":  # byte-equal factors change nothing
            net.set_lora_state({j: (net.N[j].copy(), net.M[j].copy()) for j in range(l)})
        elif op == "clone":
            nets.append(net.clone())
            family.append(family[i])
            held.append(list(held[i]))
        else:
            k = data.draw(st.integers(0, l))
            rows = data.draw(st.sampled_from([slice(None), [2, 0]]))
            made.append((net.prefix(X, k)[rows], rows, family[i], held[i][:k]))
        for acts, rows, fam, below in made:
            for b, other in enumerate(nets):
                want = family[b] == fam and held[b][:acts.block] == below
                assert other.accepts(acts) == want
                if want:
                    fresh = other.prefix(X, acts.block).data[rows]
                    assert fresh.tobytes() == acts.data.tobytes()
