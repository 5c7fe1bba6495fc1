"""Gradient-information scores and the module value function.

A module's local score is the summed squared L2 norm of the loss gradient
restricted to that module's adapter factors, accumulated over the scoring
mini-batches. Each round the server pushes every reported module's
cross-client mean score into a ``RoundWindow`` (``update_history``). It
blends each client's last local score with the window's mean over the last
T rounds to produce per-module values for the allocator; dividing by
(1 + previously-trained bit) discounts modules the client already holds,
nudging coverage toward under-trained ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fedlorasim.aggregation import RoundWindow
from fedlorasim.memory import AllocationMap
from fedlorasim.toymodel import Activations, MapStack, NonFiniteLossError, ToyLoRANet


@dataclass(frozen=True)
class IGScoreRecord:
    """One client's per-module gradient scores from one round.

    ``module_scores`` is sparse: only modules the client actually trained.
    """

    round: int
    client_id: int
    module_scores: dict[int, float]

    def __post_init__(self):
        for j, s in self.module_scores.items():
            if j < 0:
                raise ValueError(f"module index {j} is negative")
            if not math.isfinite(s) or s < 0:
                raise ValueError(f"score for module {j} must be finite and >= 0, got {s}")


def local_ig_scores(
    net: ToyLoRANet,
    allocation: Sequence[AllocationMap] | MapStack,
    batches: Sequence[Sequence[tuple[np.ndarray | Activations, np.ndarray]]],
    loss_scale: float = 1.0,
) -> list[dict[int, float]]:
    """Per-module squared gradient norms summed over each client's scoring
    batches, for a group of clients in one pass per batch.

    ``allocation`` holds one map per client, in pass order, or is their
    ``MapStack``, and ``batches`` one list of batches per client; batch i
    has one row count for every client. A batch holds features or
    ``Activations`` (see ``ToyLoRANet.forward``). Returns,
    per client, {block: score} for its trainable blocks only; an all-frozen
    allocation yields an empty dict. Each client's score is summed on its
    own (block, client) pairs of the group's gradients, as a pass of that
    client alone sums it. ``net`` is not written; the passes run on its
    scratch (see ``ToyLoRANet.forward``).
    """
    if len(batches) != len(allocation) or not allocation:
        raise ValueError("a group needs one map and one batch list per client")
    if any(len(b) == 0 for b in batches):
        raise ValueError("scoring dataset is empty")
    if len({len(b) for b in batches}) != 1:
        raise ValueError("the clients of a group need the same number of scoring batches")
    maps = allocation if isinstance(allocation, MapStack) else MapStack(tuple(allocation))
    totals = np.zeros(len(maps.pair_block))
    for bi in range(len(batches[0])):
        if any(len(b[bi][0]) == 0 for b in batches):
            raise ValueError(f"scoring batch {bi} is empty")
        _, cache = net.forward([b[bi][0] for b in batches], maps, scratch=True)
        labels = np.stack([np.asarray(b[bi][1]) for b in batches])
        g = net.backward(cache, labels, loss_scale=loss_scale)
        sq = np.square(g.N).sum(axis=(1, 2)) + np.square(g.M).sum(axis=(1, 2))
        bad = np.flatnonzero(~np.isfinite(sq))
        if bad.size:  # name the first pair in backward's order
            raise NonFiniteLossError(f"non-finite gradient for module "
                                     f"{maps.pair_block[bad[0]]} in batch {bi}")
        totals += sq
    scores = [{j: 0.0 for j in m.trainable_indices} for m in maps.maps]
    for j, pos, total in zip(maps.pair_block.tolist(), maps.pair_client.tolist(), totals.tolist()):
        scores[pos][j] = total
    return scores


def update_history(history: RoundWindow, records: Sequence[IGScoreRecord], round: int) -> RoundWindow:
    """Push one round's cross-client mean score of each reported module
    into the window (mutates and returns it)."""
    reported: dict[int, list[float]] = {}
    for rec in records:
        if rec.round != round:
            raise ValueError(f"record from client {rec.client_id} is for round {rec.round}, not {round}")
        for j, s in rec.module_scores.items():
            reported.setdefault(j, []).append(s)
    history.push(round, {j: sum(scores) / len(scores) for j, scores in reported.items()})
    return history


def value_function(
    history: RoundWindow,
    client_record: IGScoreRecord | None = None,
    prev_allocation: AllocationMap | None = None,
) -> list[float]:
    """Blend local and cross-client evidence into per-module values.

    G_j = (local score + windowed cross-client mean) / (1 + trained-bit),
    where the local score comes from the client's most recent participation.
    With no evidence anywhere (cold start) every module gets 1.0 so the first
    allocation is driven purely by memory weights.
    """
    l = history.num_blocks
    if history.is_empty() and client_record is None:
        return [1.0] * l
    scores = client_record.module_scores if client_record is not None else {}
    held = prev_allocation.bits if prev_allocation is not None else (False,) * l
    return [(scores.get(j, 0.0) + mean) / (2 if held[j] else 1)
            for j, mean in enumerate(history.means)]
