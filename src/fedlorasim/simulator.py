"""Federated fine-tuning loop over simulated memory-heterogeneous clients.

One round: sample clients, decide each client's trainable-module map under
its memory budget (knapsack strategy or a baseline rule), score gradient
information (fedpilot only) and train locally from the current global
adapters, in lockstep groups of clients, aggregate the sparse deltas
layer-wise, apply them, evaluate. Every random draw comes from
a stream derived from (seed, purpose, round, client), so results are
reproducible regardless of execution order, and two runs of the same config
produce byte-identical metrics files.
"""

from __future__ import annotations

import base64
import json
import math
import resource
import sys
import time
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from fedlorasim.aggregation import (
    InvariantViolation,
    RoundWindow,
    apply_delta,
    com_agg,
    com_agg_fixed,
    fed_avg,
    zero_delta_like,
)
from fedlorasim.allocator import KnapsackInstance, optimize_allocation
from fedlorasim.config import ExperimentConfig
from fedlorasim.data import (
    LabeledData,
    PartitionSpec,
    SyntheticTask,
    generate,
    partition,
)
from fedlorasim.memory import (
    AllocationMap,
    ModelProfile,
    map_costs,
    naive_map,
    total_memory,
)
from fedlorasim.scoring import IGScoreRecord, local_ig_scores, update_history, value_function
from fedlorasim.toymodel import Activations, Adapters, ToyLoRANet, local_train

# purpose tags for derived RNG streams
_SAMPLING = 1
_TRAIN = 2
_FEDRA = 3
_IG_DRAW = 4


#: Phases of a round timed into timings.jsonl; the round total also covers
#: sampling and memory checks, which belong to none of them. ``score`` holds
#: the per-update prefixes too, and under strategies other than fedpilot,
#: which score nothing, only them.
PHASES = ("allocate", "score", "train", "aggregate", "evaluate")


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    """Independent stream for one (purpose, round, client) coordinate.

    Words that all fit in 32 bits go in as one uint32 array, the entropy
    words ``SeedSequence`` would convert the list of ints to one by one;
    any other seed goes in as the list."""
    words = [seed, *keys]
    if 0 <= min(words) and max(words) < 2**32:
        words = np.array(words, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(words))


@dataclass
class ClientSpec:
    """One client: its budget, its local data, and the rows of that data
    its IG scoring batches take, one index array per batch."""

    id: int
    level: int
    capacity_bytes: int
    data: LabeledData
    ig_rows: list[np.ndarray]

    def __post_init__(self):
        if self.capacity_bytes <= 0:
            raise ValueError(f"client {self.id}: capacity must be positive")

    def has_one_row_batch(self, batch_size: int) -> bool:
        """Whether a training or IG batch has a single row (see ``PrefixCache``)."""
        return (batch_size == 1 or len(self.data) % batch_size == 1
                or any(len(rows) == 1 for rows in self.ig_rows))


@dataclass
class GlobalState:
    round: int
    params: Adapters
    prev_delta: Adapters
    score_history: RoundWindow
    contribution_history: RoundWindow
    last_records: dict[int, IGScoreRecord] = field(default_factory=dict)
    last_allocations: dict[int, AllocationMap] = field(default_factory=dict)


@dataclass
class ClientRoundInfo:
    id: int
    level: int
    participated: bool
    allocation: str | None
    memory_bytes: int | None
    utilization: float


#: A ``metrics.jsonl`` row: its keys in written order, each with the type of
#: its value. ``float`` is a finite JSON number and ``list[int]`` a list of
#: ints; a bool is never an int. ``reporting`` checks rows against this.
ROW_KEYS = {
    "round": int,
    "accuracy": float,
    "loss": float,
    "participants": int,
    "mean_utilization": float,
    "layer_counts": list[int],
    "clients": list[dict],
}


@dataclass
class RoundMetrics:
    round: int
    accuracy: float
    loss: float
    participants: int
    mean_utilization: float
    layer_counts: list[int]
    clients: list[ClientRoundInfo]
    wall_time_s: float
    phase_s: dict[str, float]

    def as_jsonl_dict(self) -> dict:
        # wall time stays out: metrics files must be byte-reproducible
        row = {key: getattr(self, key) for key in ROW_KEYS}
        # a shallow copy in field order: the fields are scalars and strings
        row["clients"] = [dict(vars(c)) for c in self.clients]
        return row

    def timings_dict(self, minor_faults: int) -> dict:
        """The round's ``timings.jsonl`` row, never in metrics.jsonl: wall-clock
        seconds of the round and of each phase, and ``minor_faults``, the
        minor page faults the process took during the round."""
        return {"round": self.round, "total_s": self.wall_time_s,
                **{f"{name}_s": self.phase_s[name] for name in PHASES},
                "minor_faults": minor_faults}


def toy_profile(config: ExperimentConfig) -> ModelProfile:
    """Memory profile of the toy net: one hidden vector per block per sample.

    Block outputs kept from the earliest trainable block on are the static
    analog, block inputs the dynamic analog, both hidden_size elements per
    sample at 8 bytes (float64).
    """
    m = config.model
    frozen_elems = (
        m.input_dim * m.hidden_size
        + m.num_blocks * (m.hidden_size * m.hidden_size + m.hidden_size)
        + m.hidden_size * m.num_classes
    )
    return ModelProfile(
        num_blocks=m.num_blocks,
        hidden_size=m.hidden_size,
        seq_len=1,
        lora_rank=m.lora_rank,
        bytes_per_elem=8,
        optimizer_states=3,
        frozen_param_bytes=8 * frozen_elems,
        lora_param_count_per_block=2 * m.hidden_size * m.lora_rank,
        static_act_per_sample=(m.hidden_size,) * m.num_blocks,
        dynamic_act_per_sample=(m.hidden_size,) * m.num_blocks,
        context_bytes=config.clients.context_bytes,
    )


def toy_capacity_levels(profile: ModelProfile, batch: int, margin: float,
                        num_levels: int) -> dict[int, int]:
    """Map capacity levels to byte budgets scaled to this profile.

    Level 1 affords training the last third of the blocks (plus margin),
    the top level affords everything; intermediate levels interpolate.
    """
    l = profile.num_blocks
    low = total_memory(profile, naive_map(l, "ms", max(1, l // 3)), batch).total_bytes
    high = total_memory(profile, naive_map(l, "full"), batch).total_bytes
    lo = margin * low
    hi = margin * high
    if num_levels == 1:
        return {1: int(round(hi))}
    step = (hi - lo) / (num_levels - 1)
    return {lvl: int(round(lo + (lvl - 1) * step)) for lvl in range(1, num_levels + 1)}


def assign_capacities(num_clients: int, levels: dict[int, int],
                      ratio: tuple[int, ...]) -> list[tuple[int, int]]:
    """(level, capacity) per client: floor quotas by ratio, leftovers to level 1.

    Lower levels come first in client-id order, so client 0 is always among
    the most constrained.
    """
    if len(ratio) != len(levels):
        raise ValueError(f"ratio has {len(ratio)} entries, level table has {len(levels)}")
    total = sum(ratio)
    counts = [num_clients * r // total for r in ratio]
    counts[0] += num_clients - sum(counts)
    out = []
    for lvl_idx, count in enumerate(counts):
        lvl = lvl_idx + 1
        out.extend((lvl, levels[lvl]) for _ in range(count))
    return out


@lru_cache(maxsize=64)
def _naive_costs(profile: ModelProfile, kind: str, batch: int) -> np.ndarray:
    """Read-only costs of ``naive_map(l, kind, u)`` for u = 0..l: row u of
    the (l+1, l) naive matrix trains blocks 0..u-1 for ``mh`` and the last u
    for ``ms``, its columns reversed, and ``map_costs`` prices all l+1 rows
    at once. A profile whose costs reach 2**53 raises on every call."""
    l = profile.num_blocks
    bits = np.tri(l + 1, l, -1, dtype=bool)
    costs = map_costs(profile, bits if kind == "mh" else bits[:, ::-1], batch)
    costs.setflags(write=False)
    return costs


def max_feasible_naive_u(profile: ModelProfile, kind: str, batch: int, capacity: int) -> int | None:
    """Largest u whose naive map fits, or None when even u=0 does not."""
    if kind not in ("ms", "mh"):
        raise ValueError(f"kind must be 'ms' or 'mh', got {kind!r}")
    costs = _naive_costs(profile, kind, batch)
    # costs rise with u; a capacity past the last one fits every u
    u = int(np.searchsorted(costs, min(capacity, int(costs[-1])), side="right")) - 1
    return None if u < 0 else u


def baseline_allocation(strategy: str, capacity_bytes: int, profile: ModelProfile,
                        batch: int, rng: np.random.Generator | None = None) -> AllocationMap | None:
    """Non-knapsack allocation rules; None means the client sits out.

    ``fedra_random`` keeps the first of up to 100 uniformly random maps that
    fits, and falls back to the deepest ``ms`` map that fits when none does.
    The 100 maps come from one (100, l) draw, priced at once by
    ``map_costs``; only the map kept is built. The rows of that draw are the
    maps 100 draws of l bits would give, in order. Drawing all 100 rows
    changes no later draw, because ``rng`` is a stream of its own per
    (seed, round, client) that nothing else reads.
    """
    l = profile.num_blocks
    if strategy == "full":
        return naive_map(l, "full")
    if strategy == "el":
        full = naive_map(l, "full")
        if total_memory(profile, full, batch).total_bytes <= capacity_bytes:
            return full
        return None
    if strategy in ("ms", "mh"):
        u = max_feasible_naive_u(profile, strategy, batch, capacity_bytes)
        if u is None:
            return None
        return naive_map(l, strategy, u)
    if strategy == "fedra_random":
        if rng is None:
            raise ValueError("fedra_random needs an rng")
        draws = rng.integers(0, 2, size=(100, l))
        fits = np.flatnonzero(map_costs(profile, draws, batch) <= capacity_bytes)
        if fits.size:
            return AllocationMap.from_bits(draws[fits[0]])
        u = max_feasible_naive_u(profile, "ms", batch, capacity_bytes)
        return None if u is None else naive_map(l, "ms", u)
    raise ValueError(f"unknown baseline strategy {strategy!r}")


def build_clients(config: ExperimentConfig):
    """Materialize the fleet: data partition, scoring subsets, capacities.

    Returns (clients, test set, profile, level table, partition manifest).
    """
    m = config.model
    task = SyntheticTask.make(
        num_classes=m.num_classes,
        feature_dim=m.input_dim,
        samples_per_class=config.data.samples_per_class,
        noise_scale=config.data.noise_scale,
        center_scale=config.data.center_scale,
        seed=config.seed,
    )
    train, test = generate(task, config.seed)
    p = config.partition
    # every client needs data to train on; skewed schemes redraw for two batches
    floor = 1
    if p.scheme in ("dirichlet", "pathological_dirichlet"):
        floor = 2 * config.clients.batch_size
    spec = PartitionSpec(
        scheme=p.scheme,
        num_clients=config.clients.num_clients,
        seed=config.seed,
        classes_per_client=p.classes_per_client,
        alpha=p.alpha,
        min_samples_per_client=floor,
    )
    parts, manifest = partition(train, spec)

    profile = toy_profile(config)
    if config.clients.capacity_levels is not None:
        levels = {i + 1: cap for i, cap in enumerate(config.clients.capacity_levels)}
    else:
        levels = toy_capacity_levels(profile, config.clients.batch_size,
                                     config.clients.capacity_margin,
                                     num_levels=len(config.clients.capacity_ratio))
    placements = assign_capacities(config.clients.num_clients, levels, config.clients.capacity_ratio)

    clients = []
    b = config.clients.batch_size
    for cid, ((lvl, cap), local) in enumerate(zip(placements, parts)):
        rng = derive_rng(config.seed, _IG_DRAW, cid)
        n_ig = min(config.ig_dataset_size, len(local))
        idx = rng.choice(len(local), size=n_ig, replace=False)
        clients.append(ClientSpec(
            id=cid,
            level=lvl,
            capacity_bytes=cap,
            data=local,
            ig_rows=[idx[lo : lo + b] for lo in range(0, n_ig, b)],
        ))
    return clients, test, profile, levels, manifest


class PrefixCache:
    """Frozen-prefix activations of the inputs that stay fixed over a run,
    and the inputs of each client update.

    For a client's local data and for the test set, one entry holds the
    ``Activations`` the global net's ``prefix`` computed. An entry serves
    while the net accepts it and it enters no block above the allocation's
    earliest one; otherwise it is computed again at the lower of
    ``frozen_below`` and that block, so that it outlives the round. The
    test set goes through the prefix whole, as a forward from the features
    takes it. A client's training prefix is kept only when it is no larger
    than the features (hidden_size <= input_dim); otherwise its updates
    start from the features.

    A client update starts at the client's own earliest trainable block e,
    which may lie above ``frozen_below``: the global net computes, once, the
    activations entering e for all the client's rows, from the training
    prefix or the features. That array is the update's input, and its
    training batches and IG batches are rows of it. ``run_round`` scores and
    trains a lockstep group of updates in one pass per batch (see
    ``lockstep_groups``) from one ``GroupInput`` of the group's inputs,
    built and checked once: each client joins the stack at its own e, and
    the global net and the group's clone both accept its input, since no
    client of the group writes below its own e. Numpy multiplies a one-row
    batch as a vector, which can round differently from that row of a
    matrix product, so a client with any one-row batch, training or IG,
    runs its whole update from the features. Stacking clients keeps each
    one's products, so this rule is the same in a group; clients in one
    group have equal batch shapes, so they start from the same kind of
    input. Derived state: never checkpointed and never written to a run's
    files.
    """

    def __init__(self):
        self._entries: dict[object, Activations] = {}

    def get(self, key, net: ToyLoRANet, earliest: int | None, X: np.ndarray) -> Activations:
        """Activations of ``X`` that ``net`` accepts, entering a block up to
        ``earliest``."""
        top = net.num_blocks if earliest is None else earliest
        entry = self._entries.get(key)
        if entry is None or entry.block > top or not net.accepts(entry):
            entry = self._entries[key] = net.prefix(X, min(net.frozen_below, top))
        return entry

    def update_inputs(self, client: ClientSpec, net: ToyLoRANet, amap: AllocationMap,
                      batch_size: int) -> np.ndarray | Activations:
        """The input of one client update from the global ``net``, over all
        the client's rows: its features or ``Activations`` that ``net``
        accepts."""
        if client.has_one_row_batch(batch_size):
            return client.data.X
        X = client.data.X
        if net.hidden_size <= net.input_dim:
            X = self.get(("train", client.id), net, amap.earliest, X)
        return net.prefix(X, amap.earliest)

    def test_set(self, test: LabeledData, net: ToyLoRANet) -> Activations:
        return self.get("test", net, None, test.X)


def init_state(config: ExperimentConfig, net: ToyLoRANet) -> GlobalState:
    params = net.get_lora_state()
    return GlobalState(
        round=0,
        params=params,
        prev_delta=zero_delta_like(params),
        score_history=RoundWindow(config.model.num_blocks, config.t_ig),
        contribution_history=RoundWindow(config.model.num_blocks, config.t_agg),
    )


def _choose_allocation(state: GlobalState, client: ClientSpec, profile: ModelProfile,
                       config: ExperimentConfig, t: int,
                       base: int) -> AllocationMap | KnapsackInstance | None:
    """Allocation map for one sampled client, None to sit the round out, or
    the knapsack instance of a fedpilot client that solves it this round,
    which ``run_round`` solves with the round's others in one call. A client
    whose capacity is below ``base``, the bytes of the empty map, cannot
    hold the base model and is excluded before the solve."""
    b = config.clients.batch_size
    if config.strategy == "fedpilot":
        reuse = (
            config.allocation_every > 1
            and client.id in state.last_allocations
            and (t - 1) % config.allocation_every != 0
        )
        if reuse:
            return state.last_allocations[client.id]
        if base > client.capacity_bytes:
            print(f"round {t}: client {client.id} cannot hold the base model; excluded",
                  file=sys.stderr)
            return None
        values = value_function(
            state.score_history,
            state.last_records.get(client.id),
            state.last_allocations.get(client.id),
        )
        return KnapsackInstance(profile, client.capacity_bytes, b, values)
    rng = derive_rng(config.seed, _FEDRA, t, client.id) if config.strategy == "fedra_random" else None
    return baseline_allocation(config.strategy, client.capacity_bytes, profile, b, rng)


#: Most bytes of one block's per-client effective weights a lockstep group
#: stacks (C * H * H * 8), which caps its size: 16 clients at H = 32, one at
#: H = 128. Stacking pays while numpy's per-call cost leads a block's small
#: products, and it costs memory. At H = 128 it no longer pays: on
#: wide-train (15-second bench runs at seeds 1 and 2, 2-core machine) a
#: 256 KiB cap (groups of two) ran 9.17-9.65 rounds a second at 57.0-57.8
#: MB peak RSS and a 384 KiB cap 9.08-9.15 at 58.7-58.8 MB, against
#: 10.48-10.91 at 55.2-55.5 MB with this cap, one client at a time.
LOCKSTEP_WEIGHT_BYTES = 128 * 1024


def lockstep_groups(updates: list[tuple[ClientSpec, AllocationMap]],
                    hidden_size: int) -> list[list[tuple[ClientSpec, AllocationMap]]]:
    """The (client, map) updates, each map training some block, that run one
    lockstep pass together: updates whose training and IG batches have the
    same shapes, and so start from the same kind of input (see
    ``PrefixCache``), at most as many as ``LOCKSTEP_WEIGHT_BYTES`` allows.
    Each group is in pass order, by earliest trainable block; the sort is
    stable, so ties keep the order of ``updates``."""
    cap = max(1, LOCKSTEP_WEIGHT_BYTES // (8 * hidden_size ** 2))
    groups: dict = {}
    for client, amap in updates:
        key = (len(client.data), tuple(map(len, client.ig_rows)))
        groups.setdefault(key, []).append((client, amap))
    return [sorted(g[lo : lo + cap], key=lambda update: update[1].earliest)
            for g in groups.values() for lo in range(0, len(g), cap)]


def _client_updates(updates: list[tuple[ClientSpec, AllocationMap]], net: ToyLoRANet,
                    prefixes: PrefixCache, config: ExperimentConfig, t: int,
                    phase: dict[str, float]) -> tuple[list[IGScoreRecord], list[tuple]]:
    """Score (fedpilot only) and train round t's (client, map) updates from
    the global ``net``; returns the score records and the (client id,
    delta, map) updates, both in sampled order, and adds the time spent to
    ``phase``. Every update starts from the global net as the round found
    it, so the clients score and train in lockstep groups of equal batch
    shapes."""
    b = config.clients.batch_size
    records, collected = [], []
    for group in lockstep_groups(updates, net.hidden_size):
        t0 = time.perf_counter()
        # scoring and training share the group's one input and labels
        inputs = net.group_input([prefixes.update_inputs(client, net, amap, b)
                                  for client, amap in group], [amap for _, amap in group])
        y = np.stack([client.data.y for client, _ in group])
        if config.strategy == "fedpilot":  # only the knapsack's values read the scores
            batches = [np.stack(rows) for rows in zip(*(client.ig_rows for client, _ in group))]
            scores = local_ig_scores(net, inputs, y, batches)
            records.extend(IGScoreRecord(round=t, client_id=client.id, module_scores=s)
                           for (client, _), s in zip(group, scores))
        t1 = time.perf_counter()
        phase["score"] += t1 - t0
        deltas = local_train(
            net, inputs, y, epochs=config.epochs, batch_size=b, lr=config.lr,
            rng=[derive_rng(config.seed, _TRAIN, t, client.id) for client, _ in group],
        )
        phase["train"] += time.perf_counter() - t1
        collected.extend((client.id, d, amap) for (client, amap), d in zip(group, deltas))
    # aggregation and the score window sum over clients in sampled order
    collected.sort(key=lambda c: c[0])
    records.sort(key=lambda r: r.client_id)
    return records, collected


def run_round(state: GlobalState, clients: list[ClientSpec], net: ToyLoRANet,
              test: LabeledData, profile: ModelProfile, config: ExperimentConfig,
              prefixes: PrefixCache | None = None) -> RoundMetrics:
    """Advance the federation by one round, mutating ``state``.

    Forwards start from the frozen-prefix activations in ``prefixes``; a run
    passes the same cache to every round so that its entries carry over.
    """
    prefixes = PrefixCache() if prefixes is None else prefixes
    start = time.perf_counter()
    phase = dict.fromkeys(PHASES, 0.0)
    t = state.round + 1
    v = len(clients)
    b = config.clients.batch_size
    n_sampled = math.ceil(config.clients.sampling_rate * v)
    rng = derive_rng(config.seed, _SAMPLING, t)
    sampled = sorted(int(i) for i in rng.choice(v, size=n_sampled, replace=False))

    infos: list[ClientRoundInfo] = []
    updates: list[tuple[ClientSpec, AllocationMap]] = []
    t0 = time.perf_counter()
    # the empty map's bytes: profile and batch are every client's
    base = total_memory(profile, AllocationMap.empty(profile.num_blocks), b).total_bytes
    maps = [_choose_allocation(state, clients[cid], profile, config, t, base) for cid in sampled]
    # each map's memory breakdown: the solve's for the maps it makes, which it
    # priced with total_memory, and priced below for the others
    priced = [None] * len(maps)
    solve = [k for k, m in enumerate(maps) if isinstance(m, KnapsackInstance)]
    if solve:  # one knapsack pass for the round's solving clients, none without them
        for k, result in zip(solve, optimize_allocation([maps[k] for k in solve])):
            maps[k], priced[k] = result.map, result.memory
    phase["allocate"] = time.perf_counter() - t0
    for cid, amap, breakdown in zip(sampled, maps, priced):
        client = clients[cid]
        if amap is None or amap.count == 0:
            infos.append(ClientRoundInfo(cid, client.level, False, None, None, 0.0))
            continue
        if breakdown is None:
            breakdown = total_memory(profile, amap, b)
        if config.strategy != "full" and breakdown.total_bytes > client.capacity_bytes:
            raise InvariantViolation(
                f"round {t}: client {cid} allocation {amap.to_bitstring()} needs "
                f"{breakdown.total_bytes} B > capacity {client.capacity_bytes} B"
            )
        updates.append((client, amap))
        infos.append(ClientRoundInfo(
            cid, client.level, True, amap.to_bitstring(), breakdown.total_bytes,
            breakdown.total_bytes / client.capacity_bytes,
        ))

    records, collected = _client_updates(updates, net, prefixes, config, t, phase)
    t0 = time.perf_counter()
    if config.aggregation == "comagg":
        new_delta = com_agg(state.prev_delta, collected, state.contribution_history,
                            carry_forward=config.comagg_carry_forward)
    elif config.aggregation == "comagg_fixed":
        new_delta = com_agg_fixed(state.prev_delta, collected)
    else:
        new_delta = fed_avg(collected, state.params)

    state.params = apply_delta(state.params, new_delta)
    state.prev_delta = new_delta
    update_history(state.score_history, records, t)
    for rec in records:
        state.last_records[rec.client_id] = rec
    for cid, _, amap in collected:
        state.last_allocations[cid] = amap
    state.round = t
    participants = len(collected)
    bits = np.array([amap.bits for _, _, amap in collected], dtype=bool)
    layer_counts = bits.reshape(participants, profile.num_blocks).sum(axis=0).tolist()
    del collected  # the clients' deltas: evaluation holds none of them
    t1 = time.perf_counter()
    phase["aggregate"] = t1 - t0

    net.set_lora_state(state.params)
    loss, acc = net.evaluate(prefixes.test_set(test, net), test.y)
    phase["evaluate"] = time.perf_counter() - t1
    return RoundMetrics(
        round=t,
        accuracy=acc,
        loss=loss,
        participants=participants,
        mean_utilization=(sum(i.utilization for i in infos) / len(infos)) if infos else 0.0,
        layer_counts=layer_counts,
        clients=infos,
        wall_time_s=time.perf_counter() - start,
        phase_s=phase,
    )


def _round_zero_metrics(net: ToyLoRANet, test: LabeledData, num_blocks: int) -> RoundMetrics:
    start = time.perf_counter()
    loss, acc = net.evaluate(test.X, test.y)
    elapsed = time.perf_counter() - start
    return RoundMetrics(
        round=0, accuracy=acc, loss=loss, participants=0, mean_utilization=0.0,
        layer_counts=[0] * num_blocks, clients=[], wall_time_s=elapsed,
        phase_s={**dict.fromkeys(PHASES, 0.0), "evaluate": elapsed},
    )


def _b64(arr: np.ndarray) -> dict:
    a = np.ascontiguousarray(arr, dtype=np.float64)
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _unb64(d: dict) -> np.ndarray:
    arr = np.frombuffer(base64.b64decode(d["data"]), dtype=np.float64).copy()
    return arr.reshape(d["shape"])


def state_to_jsonable(state: GlobalState) -> dict:
    return {
        "round": state.round,
        "params": [_b64(state.params.N), _b64(state.params.M)],
        "prev_delta": [_b64(state.prev_delta.N), _b64(state.prev_delta.M)],
        "score_history": state.score_history.to_jsonable(),
        "contribution_history": state.contribution_history.to_jsonable(),
        "last_records": {
            str(cid): {"round": r.round, "client_id": r.client_id,
                       "module_scores": {str(j): s for j, s in r.module_scores.items()}}
            for cid, r in state.last_records.items()
        },
        "last_allocations": {str(cid): m.to_bitstring() for cid, m in state.last_allocations.items()},
    }


def _unpack_adapters(p: list, num_blocks: int, like: Adapters | None) -> Adapters:
    """``Adapters`` packed as one [N, M] pair, checked: num_blocks blocks, the
    shapes of ``like`` when given, and finite."""
    if not (isinstance(p, list) and len(p) == 2 and all(isinstance(x, dict) for x in p)):
        raise ValueError("not an [N, M] pair of arrays")
    a = Adapters(*map(_unb64, p))
    if len(a.N) != num_blocks:
        raise ValueError(f"{len(a.N)} blocks, not the model's {num_blocks}")
    if like is not None and a.N.shape != like.N.shape:
        raise ValueError(f"adapter shapes {list(a.N.shape)} are not {list(like.N.shape)}")
    if not (np.isfinite(a.N).all() and np.isfinite(a.M).all()):
        raise ValueError("adapters are not finite")
    return a


def state_from_jsonable(d: dict) -> GlobalState:
    """Read a checkpoint back, checking every field against the model it
    describes and against the state's round.

    The score window gives the model's L blocks, which ``params`` must
    stack, and ``params`` the adapter shapes (L, H, r)/(L, r, H) of
    ``prev_delta``; adapters must be finite. The score window, pushed every
    round, is at the state's round, and the contribution window at no later
    one. An allocation has L bits. A record is its client's, from rounds
    1..round, with an int round and client id and float scores, and scores
    exactly the blocks its client's allocation trains (an allocation may
    have no record: only fedpilot scores). Each field must read back as
    written. A malformed field raises ValueError naming its key.
    """
    keys = [f.name for f in fields(GlobalState)]
    for key in [*keys, *d]:
        if key not in d or key not in keys:
            raise ValueError(f"{key}: {'missing' if key not in d else 'unknown'} field")
    score_history = RoundWindow.from_jsonable(d["score_history"], "score_history")
    contribution_history = RoundWindow.from_jsonable(d["contribution_history"],
                                                     "contribution_history")
    num_blocks, t = score_history.num_blocks, d["round"]
    if type(t) is not int or t != score_history.round:
        raise ValueError(f"round: {t!r} is not score_history's round {score_history.round}")
    if contribution_history.num_blocks != num_blocks or contribution_history.round > t:
        raise ValueError(f"contribution_history: {contribution_history.num_blocks} layers to "
                         f"round {contribution_history.round}, not {num_blocks} to round <= {t}")

    def read(key, parse):
        try:
            return parse(d[key])
        except KeyError as e:
            raise ValueError(f"{key}: missing field {e}") from e
        except (AttributeError, TypeError, ValueError) as e:
            raise ValueError(f"{key}: {e}") from e

    def record(cid: int, r: dict) -> IGScoreRecord:
        # 1.0 and True compare equal to 1, so the read-back compare cannot see them
        for k in ("round", "client_id"):
            if type(r[k]) is not int:
                raise ValueError(f"client {cid}: {k} {r[k]!r} is not an int")
        for j, s in r["module_scores"].items():
            if type(s) is not float:
                raise ValueError(f"client {cid}: score {s!r} for module {j} is not a float")
        rec = IGScoreRecord(round=r["round"], client_id=r["client_id"], module_scores={
            int(j): s for j, s in r["module_scores"].items()})
        if rec.client_id != cid:
            raise ValueError(f"client {cid}: record of client {rec.client_id}")
        if not 1 <= rec.round <= t:
            raise ValueError(f"client {cid}: record of round {rec.round}, not of 1..{t}")
        if max(rec.module_scores, default=0) >= num_blocks:
            raise ValueError(f"client {cid}: score for module {max(rec.module_scores)} "
                             f"of {num_blocks}")
        # a round scores exactly the blocks it gives a client to train
        if cid not in allocations:
            raise ValueError(f"client {cid}: record with no entry in last_allocations")
        trained = allocations[cid].trainable_indices
        if sorted(rec.module_scores) != list(trained):
            raise ValueError(f"client {cid}: scores modules {sorted(rec.module_scores)}, "
                             f"not the blocks {list(trained)} its allocation trains")
        return rec

    def allocation(cid: int, bits: str) -> AllocationMap:
        amap = AllocationMap.from_bitstring(bits)
        if amap.num_blocks != num_blocks:
            raise ValueError(f"client {cid}: {amap.num_blocks} blocks, not {num_blocks}")
        return amap

    params = read("params", lambda p: _unpack_adapters(p, num_blocks, None))
    allocations = read("last_allocations",
                       lambda p: {int(c): allocation(int(c), b) for c, b in p.items()})
    state = GlobalState(
        round=t,
        params=params,
        prev_delta=read("prev_delta",
                        lambda p: _unpack_adapters(p, num_blocks, params)),
        score_history=score_history,
        contribution_history=contribution_history,
        last_records=read("last_records",
                          lambda p: {int(c): record(int(c), r) for c, r in p.items()}),
        last_allocations=allocations,
    )
    again = state_to_jsonable(state)
    for key in keys:
        if again[key] != d[key]:
            raise ValueError(f"{key}: does not read back as written")
    return state


#: ``summary.json``: its keys in written order, each with the type of its
#: value, as in ``ROW_KEYS``. ``reporting`` checks summaries against this.
SUMMARY_KEYS = {
    "config": dict,
    "strategy": str,
    "aggregation": str,
    "distribution": str,
    "seed": int,
    "rounds": int,
    "final_accuracy": float,
    "best_accuracy": float,
    "final_loss": float,
    "mean_utilization": float,
}


def run_experiment(config: ExperimentConfig, out_dir: str | Path, quiet=False) -> dict:
    """Full run: T rounds, metrics JSONL, summary JSON, partition manifest.

    Returns the summary dict. Each round, round 0's evaluation included,
    writes its ``metrics.jsonl`` and ``timings.jsonl`` rows and any due
    checkpoint as it ends, so a run that fails keeps its finished rounds;
    ``summary.json`` is written after the last. A ``timings.jsonl`` row
    holds the round's wall times and ``minor_faults``, the minor page
    faults the process took during the round. Everything written under
    ``out_dir`` except ``timings.jsonl`` is a pure function of the config.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    clients, test, profile, levels, manifest = build_clients(config)

    net = ToyLoRANet(
        num_blocks=config.model.num_blocks,
        hidden_size=config.model.hidden_size,
        lora_rank=config.model.lora_rank,
        input_dim=config.model.input_dim,
        num_classes=config.model.num_classes,
        lora_alpha=config.model.lora_alpha,
        seed=config.seed,
    )
    state = init_state(config, net)

    with open(out / "partition.json", "w") as fh:
        json.dump(
            {
                "num_clients": config.clients.num_clients,
                "scheme": config.partition.scheme,
                "levels": {str(k): v for k, v in levels.items()},
                "assignments": [
                    {"id": c.id, "level": c.level, "capacity_bytes": c.capacity_bytes,
                     "num_samples": len(c.data)}
                    for c in clients
                ],
                "manifest": manifest,
            },
            fh, indent=2, allow_nan=False,
        )
    del manifest  # every client's row indices: nothing after partition.json reads them

    ckpt_dir = out / "checkpoints"
    prefixes = PrefixCache()
    best = -math.inf
    utilization = 0.0
    with open(out / "metrics.jsonl", "w") as metrics, open(out / "timings.jsonl", "w") as timings:
        for t in range(config.rounds + 1):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            if t == 0:
                rm = _round_zero_metrics(net, test, profile.num_blocks)
            else:
                rm = run_round(state, clients, net, test, profile, config, prefixes=prefixes)
                utilization += rm.mean_utilization
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            best = max(best, rm.accuracy)
            metrics.write(json.dumps(rm.as_jsonl_dict(), allow_nan=False) + "\n")
            timings.write(json.dumps(rm.timings_dict(faults), allow_nan=False) + "\n")
            # a run killed mid-round still leaves every finished round's rows
            metrics.flush()
            timings.flush()
            if t and config.checkpoint_every and t % config.checkpoint_every == 0:
                ckpt_dir.mkdir(exist_ok=True)
                with open(ckpt_dir / f"round_{t:04d}.json", "w") as cf:
                    json.dump(state_to_jsonable(state), cf, allow_nan=False)

    summary = {  # the keys of SUMMARY_KEYS, in its order
        "config": config.to_dict(),
        "strategy": config.strategy,
        "aggregation": config.aggregation,
        "distribution": config.distribution_label(),
        "seed": config.seed,
        "rounds": config.rounds,
        "final_accuracy": rm.accuracy,
        "best_accuracy": best,
        "final_loss": rm.loss,
        "mean_utilization": utilization / config.rounds if config.rounds else 0.0,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, allow_nan=False)
    if not quiet:
        print(
            f"{config.strategy}/{config.aggregation} {summary['distribution']} "
            f"seed={config.seed}: final={summary['final_accuracy']:.4f} "
            f"best={summary['best_accuracy']:.4f} util={summary['mean_utilization']:.3f}"
        )
    return summary
