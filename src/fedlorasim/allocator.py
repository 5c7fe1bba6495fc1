"""Per-client module selection as a greedy knapsack over marginal memory.

Each client maximizes the summed value of trainable modules subject to its
memory capacity. Item weights are not constants: the byte cost of adding a
module depends on what is already selected (the first pick pays the fixed
parameter and context bill, and selecting a shallow module extends the static
activation range). It depends on the map only through its earliest trainable
block, so one (l+1, l) int64 table (``memory.marginal_weights``) prices every
block for every earliest block (row l while the map is empty).

``optimize_allocation`` solves the instances of several clients that share
one profile and batch in one call: it builds the table once and runs one
greedy over a (clients, blocks) array, one row per instance. Each step
prices every row's candidates with the table row of its map's earliest
block plus a mask that is 0.0 for a candidate and NaN for a block already
picked, so the step's min and max are NaN-skipping reductions along the
rows (``fmin``/``fmax``) and a picked block is never feasible, as NaN
compares false. A row stops for good once its cheapest
candidate exceeds its residual budget. Each step min-max normalizes each
row's raw weights across its candidates and picks the feasible one with the
best value-to-normalized-weight ratio, ties going to the deeper block; each
pick's raw weight is then checked against the ``marginal_weight`` oracle,
asked about the map that holds only the row's earliest block (the empty map
before its first pick), which prices every candidate as the row's own map
does. The rows keep no map while they run: each row's ``AllocationMap`` is
built once, from its picks, after the last step. The guard pass reruns only
the rows where the best single feasible module is worth more than the
greedy's map, with that module as their first pick. The picks are kept as
plain columns; a ``SelectionTrace`` builds its ``SelectionStep``s only when
they are read.

Raw bytes decide feasibility; normalized weights only shape the ratio. Every
cost stays below 2**53 (``KnapsackInstance`` checks the all-trainable map,
the dearest), so costs, their differences and the live residual budgets
are exact float64 values, and numpy's normalization gives the floats a
per-candidate Python loop would.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import compress

import numpy as np

from fedlorasim.memory import (
    EXACT_COST_LIMIT,
    AllocationMap,
    MemoryBreakdown,
    ModelProfile,
    check_batch,
    check_exact_costs,
    finite_nonneg,
    is_int,
    marginal_weight,
    marginal_weights,
    total_memory,
)

#: Floor of the normalized weight range; keeps the cheapest item's ratio finite.
RATIO_EPS = 1e-9


class InfeasibleClientError(ValueError):
    """Client capacity cannot even hold the frozen parameters plus context."""


class CostVectorMismatch(RuntimeError):
    """The greedy's cost table disagrees with the marginal_weight oracle."""


@dataclass(frozen=True)
class KnapsackInstance:
    """One client's selection problem: profile, budget, batch, module values."""

    profile: ModelProfile
    capacity_bytes: int
    batch: int
    values: tuple[float, ...]

    def __post_init__(self):
        if not is_int(self.capacity_bytes) or self.capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be a positive int, got {self.capacity_bytes!r}")
        check_batch(self.batch)
        values = tuple(map(float, self.values))
        object.__setattr__(self, "values", values)
        if len(values) != self.profile.num_blocks:
            raise ValueError(
                f"values has {len(values)} entries, profile has {self.profile.num_blocks} blocks"
            )
        if not finite_nonneg(values):
            j, v = next((j, v) for j, v in enumerate(values) if not 0 <= v < math.inf)
            raise ValueError(f"values[{j}] must be finite and >= 0, got {v}")
        check_exact_costs(self.profile, self.batch)


@dataclass(frozen=True)
class SelectionStep:
    """One greedy pick: which block, at what raw/normalized cost and ratio."""

    step: int
    block: int
    raw_weight_bytes: int
    normalized_weight: float
    ratio: float


@dataclass(frozen=True, eq=False)
class SelectionTrace(Sequence):
    """A solve's picks in order, held as plain columns; item k is built as
    the ``SelectionStep`` of step k only when it is read. Equal to any
    sequence of the same steps."""

    blocks: tuple[int, ...]
    raw_weight_bytes: tuple[int, ...]
    normalized_weights: tuple[float, ...]
    ratios: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.blocks)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(len(self))[k])
        k = range(len(self))[k]
        return SelectionStep(step=k, block=self.blocks[k],
                             raw_weight_bytes=self.raw_weight_bytes[k],
                             normalized_weight=self.normalized_weights[k], ratio=self.ratios[k])

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class AllocationResult:
    map: AllocationMap
    total_value: float
    memory: MemoryBreakdown
    selection_trace: Sequence[SelectionStep]

    def as_dict(self) -> dict:
        return {
            "map": self.map.to_bitstring(),
            "total_value": self.total_value,
            "memory": self.memory.as_dict(),
            "selection_trace": [asdict(s) for s in self.selection_trace],
        }


def _normalized(cost: np.ndarray, lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Min-max scale of raw weights ``cost`` into [RATIO_EPS, 1] over
    candidates whose cheapest costs ``lo`` and dearest ``lo + span``; equal
    weights (``span`` 0) all map to 1, so selection degrades to ranking by
    value. Shapes broadcast."""
    norm = (cost - lo) * (1.0 - RATIO_EPS)
    norm /= np.maximum(span, 1)
    norm += RATIO_EPS
    if not span.all():
        norm[np.broadcast_to(span == 0, norm.shape)] = 1.0
    return norm


@lru_cache(maxsize=1024)
def _earliest_only(num_blocks: int, block: int) -> AllocationMap:
    """The map that trains only ``block``, or the empty map for block
    ``num_blocks``: the map the oracle prices a pick on, since a price
    depends on the map only through its earliest block."""
    if block == num_blocks:
        return AllocationMap.empty(num_blocks)
    return AllocationMap.from_indices(num_blocks, (block,))


def _greedy(profile: ModelProfile, batch: int, values: np.ndarray, capacity: np.ndarray,
            table: np.ndarray, forced_first: np.ndarray | None = None):
    """One greedy pass over C instances at once: ``values`` (C, l) and
    float64 ``capacity`` (C,), at most EXACT_COST_LIMIT. Every step runs on
    all C rows; a row stops for good once its cheapest candidate exceeds
    its residual budget, and what later steps compute on it is never read.
    A row's state is its earliest block, its residual budget and its
    picked-block mask; each live row's pick is checked against the
    ``marginal_weight`` oracle on ``_earliest_only`` of its earliest block.
    Returns each row's map, built once from its picks after the last step,
    and its picks as (C, l) arrays of blocks, raw costs, normalized weights
    and ratios, of which row i's first ``maps[i].count`` entries are its
    own.

    The steps price in float64: every cost, every difference of two and
    every live residual is an integer below 2**53, so the floats are exact
    and give the comparisons and normalized weights of the int64 table."""
    c, l = values.shape
    prices = table.astype(np.float64)
    residual = capacity.copy()
    earliest = np.full(c, l)
    picked = np.zeros((c, l))  # NaN where a row has picked the block
    live = np.ones(c, dtype=bool)
    count = np.zeros(c, dtype=np.int64)
    at = np.arange(c)
    # per step: each row's pick and its raw cost, and the cheapest
    # candidate and the range the step's normalization used
    picks, costs = np.zeros((l, c), dtype=np.int64), np.zeros((l, c), dtype=np.int64)
    los, spans = np.zeros((l, c)), np.zeros((l, c))
    for step in range(l):
        price = prices[earliest]
        price += picked
        lo = np.fmin.reduce(price, axis=1)
        live &= lo <= residual
        alive = live.tolist()
        if not any(alive):
            break
        span = np.fmax.reduce(price, axis=1) - lo
        ratio = values / _normalized(price, lo[:, None], span[:, None])
        if step == 0 and forced_first is not None:
            pick = forced_first
        else:
            # max ratio among the feasible; ties go to the deeper block, which
            # never extends the static range and so preserves future budget
            feasible = np.where(price <= residual[:, None], ratio, -np.inf)
            pick = (l - 1) - feasible[:, ::-1].argmax(axis=1)
        cost = table[earliest, pick]
        for e, j, w in compress(zip(earliest.tolist(), pick.tolist(), cost.tolist()), alive):
            oracle = marginal_weight(profile, _earliest_only(l, e), j, batch)
            if oracle != w:
                raise CostVectorMismatch(
                    f"block {j}: cost table gives {w} B, marginal_weight gives {oracle} B"
                )
        count += live
        picks[step], costs[step], los[step], spans[step] = pick, cost, lo, span
        residual -= cost
        np.minimum(earliest, pick, out=earliest)
        picked[at, pick] = np.nan
    picks, costs = picks.T, costs.T
    norms = _normalized(costs, los.T, spans.T)
    bits = np.zeros((c, l), dtype=bool)
    kept = np.arange(l) < count[:, None]
    bits[np.nonzero(kept)[0], picks[kept]] = True
    maps = [AllocationMap(tuple(row)) for row in bits.tolist()]
    return maps, (picks, costs, norms, values[at[:, None], picks] / norms)


def optimize_allocation(instances: Sequence[KnapsackInstance]) -> list[AllocationResult]:
    """Greedy solves of the selection knapsacks of several clients, one
    result per instance, in order.

    The instances must share one profile and one batch size: one cost table
    prices them all, and one greedy pass runs them as the rows of one
    (clients, blocks) array, each row with the arithmetic of a solve of its
    own. Raises InfeasibleClientError when even an empty map (frozen
    parameters plus runtime context) exceeds an instance's capacity.
    Otherwise each result is feasible and maximal: no unselected module's
    marginal weight fits the leftover budget. A guard pass keeps the value
    no worse than the best single feasible module, which pure ratio greed
    can miss when a cheap low-value item's near-zero normalized weight
    dominates the ratio; it reruns only the rows where it fires.
    """
    instances = list(instances)
    if not instances:
        return []
    profile, batch = instances[0].profile, instances[0].batch
    for i, inst in enumerate(instances):
        for name, shared in (("profile", profile), ("batch", batch)):
            if getattr(inst, name) != shared:
                raise ValueError(f"the instances of one solve must share one {name}; "
                                 f"instance {i} has another {name} than instance 0")
    l = profile.num_blocks
    base = total_memory(profile, AllocationMap.empty(l), batch).total_bytes
    for inst in instances:
        if base > inst.capacity_bytes:
            raise InfeasibleClientError(
                f"fixed footprint {base} B exceeds capacity {inst.capacity_bytes} B"
            )

    values = np.array([inst.values for inst in instances])
    # a map and any block added to it cost less than EXACT_COST_LIMIT, so a
    # larger capacity, which need not fit int64 or a float exactly, fits
    # every pick as it does
    capacity = np.array([min(inst.capacity_bytes, EXACT_COST_LIMIT) for inst in instances],
                        dtype=np.float64)
    table = marginal_weights(profile, batch)
    maps, trace = _greedy(profile, batch, values, capacity, table)
    # in block order from 0, as a sum over the map's trainable blocks adds
    totals = [sum(compress(inst.values, amap.bits)) for inst, amap in zip(instances, maps)]

    # the best single feasible module (values are >= 0, so -1 marks one
    # that does not fit); ties go to the deeper block
    fitting = np.where(table[l] <= capacity[:, None], values, -1.0)
    best = l - 1 - fitting[:, ::-1].argmax(axis=1)
    guard = np.flatnonzero(fitting[np.arange(len(instances)), best] > np.array(totals))
    if len(guard):
        rerun, retrace = _greedy(profile, batch, values[guard], capacity[guard], table,
                                 forced_first=best[guard])
        for k, i in enumerate(guard.tolist()):
            maps[i] = rerun[k]
            totals[i] = sum(compress(instances[i].values, maps[i].bits))
        for col, recol in zip(trace, retrace):
            col[guard] = recol

    columns = [col.tolist() for col in trace]
    return [
        AllocationResult(
            map=amap, total_value=total, memory=total_memory(profile, amap, batch),
            selection_trace=SelectionTrace(*(tuple(col[i][:amap.count]) for col in columns)),
        )
        for i, (amap, total) in enumerate(zip(maps, totals))
    ]
