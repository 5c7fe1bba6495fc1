"""Per-client module selection as a greedy knapsack over marginal memory.

Each client maximizes the summed value of trainable modules subject to its
memory capacity. Item weights are not constants: the byte cost of adding a
module depends on what is already selected (the first pick pays the fixed
parameter and context bill, and selecting a shallow module extends the static
activation range). It depends on the map only through its earliest trainable
block, so the greedy holds one cost vector (``memory.marginal_weights``) and
rebuilds it only after the first pick and after a pick shallower than the
current earliest block. Each step min-max normalizes the raw weights across
the unselected set and picks the feasible candidate with the best
value-to-normalized-weight ratio; the pick's raw weight is then checked
against the ``marginal_weight`` oracle.

Raw bytes decide feasibility; normalized weights only shape the ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from fedlorasim.memory import (
    AllocationMap,
    MemoryBreakdown,
    ModelProfile,
    marginal_weight,
    marginal_weights,
    total_memory,
)

#: Floor of the normalized weight range; keeps the cheapest item's ratio finite.
RATIO_EPS = 1e-9


class InfeasibleClientError(ValueError):
    """Client capacity cannot even hold the frozen parameters plus context."""


class CostVectorMismatch(RuntimeError):
    """The greedy's cost vector disagrees with the marginal_weight oracle."""


@dataclass(frozen=True)
class KnapsackInstance:
    """One client's selection problem: profile, budget, batch, module values."""

    profile: ModelProfile
    capacity_bytes: int
    batch: int
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {self.capacity_bytes}")
        if len(self.values) != self.profile.num_blocks:
            raise ValueError(
                f"values has {len(self.values)} entries, profile has {self.profile.num_blocks} blocks"
            )
        for j, v in enumerate(self.values):
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"values[{j}] must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class SelectionStep:
    """One greedy pick: which block, at what raw/normalized cost and ratio."""

    step: int
    block: int
    raw_weight_bytes: int
    normalized_weight: float
    ratio: float

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "block": self.block,
            "raw_weight_bytes": self.raw_weight_bytes,
            "normalized_weight": self.normalized_weight,
            "ratio": self.ratio,
        }


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
            "selection_trace": [s.as_dict() for s in self.selection_trace],
        }


def _normalize(raw: dict[int, int]) -> dict[int, float]:
    """Min-max scale raw weights into [RATIO_EPS, 1] across the candidate set.

    Equal weights all map to 1 so selection degrades to ranking by value.
    """
    lo = min(raw.values())
    hi = max(raw.values())
    if hi == lo:
        return {j: 1.0 for j in raw}
    span = hi - lo
    return {j: RATIO_EPS + (1.0 - RATIO_EPS) * (w - lo) / span for j, w in raw.items()}


def _greedy(instance: KnapsackInstance, forced_first: int | None = None):
    profile = instance.profile
    batch = instance.batch
    amap = AllocationMap.empty(profile.num_blocks)
    residual = instance.capacity_bytes
    trace: list[SelectionStep] = []
    weights = marginal_weights(profile, batch, None)
    first = None
    for step in range(profile.num_blocks):
        candidates = [j for j in range(profile.num_blocks) if not amap.bits[j]]
        raw = {j: weights[j] for j in candidates}
        norm = _normalize(raw)
        feasible = [j for j in candidates if raw[j] <= residual]
        if not feasible:
            break
        if step == 0 and forced_first is not None:
            pick = forced_first
        else:
            # max ratio; ties go to the deeper block, which never extends
            # the static range and so preserves future budget
            pick = max(feasible, key=lambda j: (instance.values[j] / norm[j], j))
        oracle = marginal_weight(profile, amap, pick, batch)
        if oracle != raw[pick]:
            raise CostVectorMismatch(
                f"block {pick}: cost vector gives {raw[pick]} B, marginal_weight gives {oracle} B"
            )
        trace.append(
            SelectionStep(
                step=step,
                block=pick,
                raw_weight_bytes=raw[pick],
                normalized_weight=norm[pick],
                ratio=instance.values[pick] / norm[pick],
            )
        )
        residual -= raw[pick]
        amap = amap.with_block(pick)
        if first is None or pick < first:
            first = pick
            weights = marginal_weights(profile, batch, first)
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

    amap, trace = _greedy(instance)
    total_value = sum(instance.values[j] for j in amap.trainable_indices)

    best_j, best_v = None, 0.0
    singles = marginal_weights(profile, instance.batch, None)
    for j in range(profile.num_blocks):
        w = singles[j]
        v = instance.values[j]
        if w <= instance.capacity_bytes and (best_j is None or (v, j) > (best_v, best_j)):
            best_j, best_v = j, v
    if best_j is not None and best_v > total_value:
        amap, trace = _greedy(instance, forced_first=best_j)
        total_value = sum(instance.values[j] for j in amap.trainable_indices)

    memory = total_memory(profile, amap, instance.batch)
    return AllocationResult(map=amap, total_value=total_value, memory=memory, selection_trace=trace)
