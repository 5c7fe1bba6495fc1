"""Per-client module selection as a greedy knapsack over marginal memory.

Each client maximizes the summed value of trainable modules subject to its
memory capacity. Item weights are not constants: the byte cost of adding a
module depends on what is already selected (the first pick pays the fixed
parameter and context bill, and selecting a shallow module extends the static
activation range). It depends on the map only through its earliest trainable
block, so one (l+1, l) int64 table (``memory.marginal_weights``), built once
per solve and read by both greedy passes, prices every block for every
earliest block; each step prices the candidates with the row of the current
map's earliest block (row l while the map is empty). A bool mask marks the
candidates, so each step's min and max are masked reductions over that row.
Each step min-max normalizes the raw weights across the candidates and picks
the feasible one with the best value-to-normalized-weight ratio, ties going
to the deeper block; the pick's raw weight is then checked against the
``marginal_weight`` oracle.

Raw bytes decide feasibility; normalized weights only shape the ratio. Every
cost stays below 2**53 (``KnapsackInstance`` checks the all-trainable map,
the dearest), so a cost's distance from the cheapest converts to a float
exactly and numpy's normalization gives the floats a per-candidate Python
loop would.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from fedlorasim.memory import (
    EXACT_COST_LIMIT,
    AllocationMap,
    MemoryBreakdown,
    ModelProfile,
    check_batch,
    check_exact_costs,
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
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != self.profile.num_blocks:
            raise ValueError(
                f"values has {len(self.values)} entries, profile has {self.profile.num_blocks} blocks"
            )
        for j, v in enumerate(self.values):
            if not math.isfinite(v) or v < 0:
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


@dataclass(frozen=True)
class AllocationResult:
    map: AllocationMap
    total_value: float
    memory: MemoryBreakdown
    selection_trace: tuple[SelectionStep, ...]

    def as_dict(self) -> dict:
        return {
            "map": self.map.to_bitstring(),
            "total_value": self.total_value,
            "memory": self.memory.as_dict(),
            "selection_trace": [asdict(s) for s in self.selection_trace],
        }


def _greedy(instance: KnapsackInstance, values: np.ndarray, table: np.ndarray,
            forced_first: int | None = None):
    profile = instance.profile
    batch = instance.batch
    l = profile.num_blocks
    amap = AllocationMap.empty(l)
    residual = instance.capacity_bytes
    trace: list[SelectionStep] = []
    candidate = np.ones(l, dtype=bool)
    for step in range(l):
        price = table[l if amap.earliest is None else amap.earliest]
        lo = int(price.min(where=candidate, initial=EXACT_COST_LIMIT))
        if lo > residual:
            break
        # min-max scale into [RATIO_EPS, 1]; equal weights all map to 1 so
        # selection degrades to ranking by value
        hi = int(price.max(where=candidate, initial=0))
        if hi == lo:
            norm = np.ones(len(price))
        else:
            norm = RATIO_EPS + (1.0 - RATIO_EPS) * (price - lo) / (hi - lo)
        ratio = values / norm
        if step == 0 and forced_first is not None:
            pick = forced_first
        else:
            # max ratio among the feasible; ties go to the deeper block, which
            # never extends the static range and so preserves future budget
            feasible = np.where(candidate & (price <= residual), ratio, -np.inf)
            pick = len(feasible) - 1 - int(feasible[::-1].argmax())
        cost = int(price[pick])
        oracle = marginal_weight(profile, amap, pick, batch)
        if oracle != cost:
            raise CostVectorMismatch(
                f"block {pick}: cost table gives {cost} B, marginal_weight gives {oracle} B"
            )
        trace.append(
            SelectionStep(
                step=step,
                block=pick,
                raw_weight_bytes=cost,
                normalized_weight=float(norm[pick]),
                ratio=float(ratio[pick]),
            )
        )
        residual -= cost
        amap = amap.with_block(pick)
        candidate[pick] = False
    return amap, tuple(trace)


def optimize_allocation(instance: KnapsackInstance) -> AllocationResult:
    """Greedy solve of one client's selection knapsack.

    Raises InfeasibleClientError when even an empty map (frozen parameters
    plus runtime context) exceeds capacity. Otherwise the result is feasible
    and maximal: no unselected module's marginal weight fits the leftover
    budget. A guard pass keeps the value no worse than the best single
    feasible module, which pure ratio greed can miss when a cheap low-value
    item's near-zero normalized weight dominates the ratio.
    """
    profile = instance.profile
    base = total_memory(profile, AllocationMap.empty(profile.num_blocks), instance.batch)
    if base.total_bytes > instance.capacity_bytes:
        raise InfeasibleClientError(
            f"fixed footprint {base.total_bytes} B exceeds capacity {instance.capacity_bytes} B"
        )

    values = np.array(instance.values)
    table = marginal_weights(profile, instance.batch)
    singles = table[profile.num_blocks]
    amap, trace = _greedy(instance, values, table)
    total_value = sum(instance.values[j] for j in amap.trainable_indices)

    # the best single feasible module (values are >= 0, so -1 marks one
    # that does not fit); ties go to the deeper block
    fitting = np.where(singles <= instance.capacity_bytes, values, -1.0)
    best_j = len(fitting) - 1 - int(fitting[::-1].argmax())
    if fitting[best_j] > total_value:
        amap, trace = _greedy(instance, values, table, forced_first=best_j)
        total_value = sum(instance.values[j] for j in amap.trainable_indices)

    memory = total_memory(profile, amap, instance.batch)
    return AllocationResult(map=amap, total_value=total_value, memory=memory, selection_trace=trace)
