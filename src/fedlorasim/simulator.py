"""Federated fine-tuning loop over simulated memory-heterogeneous clients.

One round: sample clients, decide each client's trainable-module map under
its memory budget (knapsack strategy or a baseline rule), train locally from
the current global adapters, score gradient information, aggregate the
sparse deltas layer-wise, apply them, evaluate. Every random draw comes from
a stream derived from (seed, purpose, round, client), so results are
reproducible regardless of execution order, and two runs of the same config
produce byte-identical metrics files.
"""

from __future__ import annotations

import base64
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from fedlorasim.aggregation import (
    ContributionHistory,
    InvariantViolation,
    apply_delta,
    com_agg,
    com_agg_fixed,
    fed_avg,
    zero_delta_like,
)
from fedlorasim.allocator import InfeasibleClientError, KnapsackInstance, optimize_allocation
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
from fedlorasim.scoring import IGScoreRecord, ScoreHistory, local_ig_scores, update_history, value_function
from fedlorasim.toymodel import Activations, ToyLoRANet, local_train

# purpose tags for derived RNG streams
_SAMPLING = 1
_TRAIN = 2
_FEDRA = 3
_IG_DRAW = 4


#: Phases of a round timed into timings.jsonl; the round total also covers
#: sampling, cloning and memory checks, which belong to none of them.
PHASES = ("allocate", "score", "train", "aggregate", "evaluate")


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    """Independent stream for one (purpose, round, client) coordinate."""
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


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

    @property
    def ig_batches(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The IG scoring batches as (features, labels)."""
        return [(self.data.X[rows], self.data.y[rows]) for rows in self.ig_rows]

    def has_one_row_training_batch(self, batch_size: int) -> bool:
        """Whether a training batch has a single row (see ``PrefixCache``)."""
        return batch_size == 1 or len(self.data) % batch_size == 1

    @property
    def has_one_row_ig_batch(self) -> bool:
        """Whether an IG batch has a single row (see ``PrefixCache``)."""
        return any(len(rows) == 1 for rows in self.ig_rows)


@dataclass
class GlobalState:
    round: int
    params: dict
    prev_delta: dict
    score_history: ScoreHistory
    contribution_history: ContributionHistory
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
        return {
            "round": self.round,
            "accuracy": self.accuracy,
            "loss": self.loss,
            "participants": self.participants,
            "mean_utilization": self.mean_utilization,
            "layer_counts": self.layer_counts,
            "clients": [asdict(c) for c in self.clients],
        }

    def timings_dict(self) -> dict:
        """Wall-clock seconds of the round and of each phase; never in metrics.jsonl."""
        return {"round": self.round, "total_s": self.wall_time_s,
                **{f"{name}_s": self.phase_s[name] for name in PHASES}}


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


def max_feasible_naive_u(profile: ModelProfile, kind: str, batch: int, capacity: int) -> int | None:
    """Largest u whose naive map fits, or None when even u=0 does not.

    Row u of the (l+1, l) naive matrix is ``naive_map(l, kind, u)``: ``mh``
    trains blocks 0..u-1 and ``ms`` the last u, its columns reversed.
    ``map_costs`` prices all l+1 rows at once.
    """
    if kind not in ("ms", "mh"):
        raise ValueError(f"kind must be 'ms' or 'mh', got {kind!r}")
    l = profile.num_blocks
    bits = np.tri(l + 1, l, -1, dtype=bool)
    costs = map_costs(profile, bits if kind == "mh" else bits[:, ::-1], batch)
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
    prefix or the features, and the client's clone accepts them because its
    writes land on e and above. Its training batches and its IG batches are
    rows of that array. Numpy multiplies a one-row batch as a vector, which
    can round differently from that row of a matrix product: a client with
    a one-row training batch runs its whole update from the features, and
    one with a one-row IG batch scores from the features but still trains
    from e.
    Derived state: never checkpointed and never written to a run's files.
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
                      batch_size: int):
        """(training inputs, IG batches) of one client update from the global
        ``net``: features or ``Activations`` that clones of ``net`` accept."""
        if client.has_one_row_training_batch(batch_size):
            return client.data.X, client.ig_batches
        e = amap.earliest
        X = client.data.X
        if net.hidden_size <= net.input_dim:
            X = self.get(("train", client.id), net, e, X)
        acts = net.prefix(X, e)
        if client.has_one_row_ig_batch:
            return acts, client.ig_batches
        return acts, [(acts[rows], client.data.y[rows]) for rows in client.ig_rows]

    def test_set(self, test: LabeledData, net: ToyLoRANet) -> Activations:
        return self.get("test", net, None, test.X)


def init_state(config: ExperimentConfig, net: ToyLoRANet) -> GlobalState:
    params = net.get_lora_state()
    return GlobalState(
        round=0,
        params=params,
        prev_delta=zero_delta_like(params),
        score_history=ScoreHistory(config.model.num_blocks, config.t_ig),
        contribution_history=ContributionHistory(config.model.num_blocks, config.t_agg),
    )


def _choose_allocation(state: GlobalState, client: ClientSpec, profile: ModelProfile,
                       config: ExperimentConfig, t: int, warn):
    """Allocation map for one sampled client, or None to sit the round out."""
    b = config.clients.batch_size
    if config.strategy == "fedpilot":
        reuse = (
            config.allocation_every > 1
            and client.id in state.last_allocations
            and (t - 1) % config.allocation_every != 0
        )
        if reuse:
            return state.last_allocations[client.id]
        values = value_function(
            state.score_history,
            state.last_records.get(client.id),
            state.last_allocations.get(client.id),
        )
        inst = KnapsackInstance(profile, client.capacity_bytes, b, tuple(values))
        try:
            return optimize_allocation(inst).map
        except InfeasibleClientError:
            warn(f"round {t}: client {client.id} cannot hold the base model; excluded")
            return None
    rng = derive_rng(config.seed, _FEDRA, t, client.id) if config.strategy == "fedra_random" else None
    return baseline_allocation(config.strategy, client.capacity_bytes, profile, b, rng)


def run_round(state: GlobalState, clients: list[ClientSpec], net: ToyLoRANet,
              test: LabeledData, profile: ModelProfile, config: ExperimentConfig,
              warn=None, prefixes: PrefixCache | None = None) -> RoundMetrics:
    """Advance the federation by one round, mutating ``state``.

    Forwards start from the frozen-prefix activations in ``prefixes``; a run
    passes the same cache to every round so that its entries carry over.
    """
    warn = warn or (lambda msg: print(msg, file=sys.stderr))
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
    collected = []
    records = []
    for cid in sampled:
        client = clients[cid]
        t0 = time.perf_counter()
        amap = _choose_allocation(state, client, profile, config, t, warn)
        phase["allocate"] += time.perf_counter() - t0
        if amap is None or amap.count == 0:
            infos.append(ClientRoundInfo(cid, client.level, False, None, None, 0.0))
            continue
        breakdown = total_memory(profile, amap, b)
        if config.strategy != "full" and breakdown.total_bytes > client.capacity_bytes:
            raise InvariantViolation(
                f"round {t}: client {cid} allocation {amap.to_bitstring()} needs "
                f"{breakdown.total_bytes} B > capacity {client.capacity_bytes} B"
            )
        local_net = net.clone()
        t0 = time.perf_counter()
        train_X, ig_batches = prefixes.update_inputs(client, net, amap, b)
        scores = local_ig_scores(local_net, amap, ig_batches)
        t1 = time.perf_counter()
        phase["score"] += t1 - t0
        records.append(IGScoreRecord(round=t, client_id=cid, module_scores=scores))
        deltas = local_train(
            local_net, train_X, client.data.y, amap,
            epochs=config.epochs, batch_size=b, lr=config.lr,
            rng=derive_rng(config.seed, _TRAIN, t, cid),
        )
        phase["train"] += time.perf_counter() - t1
        collected.append((cid, deltas, amap))
        infos.append(ClientRoundInfo(
            cid, client.level, True, amap.to_bitstring(), breakdown.total_bytes,
            breakdown.total_bytes / client.capacity_bytes,
        ))

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
    t1 = time.perf_counter()
    phase["aggregate"] = t1 - t0

    net.set_lora_state(state.params)
    loss, acc = net.evaluate(prefixes.test_set(test, net), test.y)
    phase["evaluate"] = time.perf_counter() - t1
    layer_counts = [
        sum(1 for _, _, amap in collected if amap.bits[j]) for j in range(profile.num_blocks)
    ]
    return RoundMetrics(
        round=t,
        accuracy=acc,
        loss=loss,
        participants=len(collected),
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
    pack = lambda d: {str(j): [_b64(n), _b64(m)] for j, (n, m) in d.items()}
    return {
        "round": state.round,
        "params": pack(state.params),
        "prev_delta": pack(state.prev_delta),
        "score_history": state.score_history.to_jsonable(),
        "contribution_history": state.contribution_history.to_jsonable(),
        "last_records": {
            str(cid): {"round": r.round, "client_id": r.client_id,
                       "module_scores": {str(j): s for j, s in r.module_scores.items()}}
            for cid, r in state.last_records.items()
        },
        "last_allocations": {str(cid): m.to_bitstring() for cid, m in state.last_allocations.items()},
    }


def state_from_jsonable(d: dict) -> GlobalState:
    unpack = lambda p: {int(j): (_unb64(pair[0]), _unb64(pair[1])) for j, pair in p.items()}
    return GlobalState(
        round=d["round"],
        params=unpack(d["params"]),
        prev_delta=unpack(d["prev_delta"]),
        score_history=ScoreHistory.from_jsonable(d["score_history"]),
        contribution_history=ContributionHistory.from_jsonable(d["contribution_history"]),
        last_records={
            int(cid): IGScoreRecord(
                round=r["round"], client_id=r["client_id"],
                module_scores={int(j): float(s) for j, s in r["module_scores"].items()},
            )
            for cid, r in d["last_records"].items()
        },
        last_allocations={
            int(cid): AllocationMap.from_bitstring(bits)
            for cid, bits in d["last_allocations"].items()
        },
    )


def run_experiment(config: ExperimentConfig, out_dir: str | Path, warn=None, quiet=False) -> dict:
    """Full run: T rounds, metrics JSONL, summary JSON, partition manifest.

    Returns the summary dict. Everything written under ``out_dir`` except
    the per-phase wall times in ``timings.jsonl`` is a pure function of the
    config.
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

    history: list[RoundMetrics] = []
    ckpt_dir = out / "checkpoints"
    with open(out / "metrics.jsonl", "w") as fh:
        rm = _round_zero_metrics(net, test, profile.num_blocks)
        history.append(rm)
        fh.write(json.dumps(rm.as_jsonl_dict(), allow_nan=False) + "\n")
        prefixes = PrefixCache()
        for _ in range(config.rounds):
            rm = run_round(state, clients, net, test, profile, config, warn=warn,
                           prefixes=prefixes)
            history.append(rm)
            fh.write(json.dumps(rm.as_jsonl_dict(), allow_nan=False) + "\n")
            if config.checkpoint_every and state.round % config.checkpoint_every == 0:
                ckpt_dir.mkdir(exist_ok=True)
                with open(ckpt_dir / f"round_{state.round:04d}.json", "w") as cf:
                    json.dump(state_to_jsonable(state), cf, allow_nan=False)

    with open(out / "timings.jsonl", "w") as fh:
        for rm in history:
            fh.write(json.dumps(rm.timings_dict(), allow_nan=False) + "\n")

    training = history[1:]
    summary = {
        "config": config.to_dict(),
        "strategy": config.strategy,
        "aggregation": config.aggregation,
        "distribution": config.distribution_label(),
        "seed": config.seed,
        "rounds": config.rounds,
        "final_accuracy": history[-1].accuracy,
        "best_accuracy": max(rm.accuracy for rm in history),
        "final_loss": history[-1].loss,
        "mean_utilization": (sum(rm.mean_utilization for rm in training) / len(training))
        if training else 0.0,
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
