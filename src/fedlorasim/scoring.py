"""Gradient-information scores and the module value function.

A module's local score is the summed squared L2 norm of the loss gradient
restricted to that module's adapter factors, accumulated over the scoring
mini-batches. The server blends each client's last local score with a
windowed cross-client average to produce per-module values for the
allocator; dividing by (1 + previously-trained bit) discounts modules the
client already holds, nudging coverage toward under-trained ones.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from fedlorasim.memory import AllocationMap
from fedlorasim.toymodel import NonFiniteLossError, ToyLoRANet


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
    allocation: AllocationMap,
    batches: Sequence[tuple[np.ndarray, np.ndarray]],
    loss_scale: float = 1.0,
) -> dict[int, float]:
    """Per-module squared gradient norms summed over the scoring batches.

    Returns {block: score} for trainable blocks only; an all-frozen
    allocation yields an empty dict. A batch holds features or
    ``Activations`` (see ``ToyLoRANet.forward``).
    """
    if len(batches) == 0:
        raise ValueError("scoring dataset is empty")
    scores = {j: 0.0 for j in allocation.trainable_indices}
    for bi, (X, y) in enumerate(batches):
        if len(X) == 0:
            raise ValueError(f"scoring batch {bi} is empty")
        logits, cache = net.forward(X, allocation)
        grads = net.backward(cache, y, loss_scale=loss_scale)
        for j, (gn, gm) in grads.items():
            s = float((gn * gn).sum() + (gm * gm).sum())
            if not math.isfinite(s):
                raise NonFiniteLossError(f"non-finite gradient for module {j} in batch {bi}")
            scores[j] += s
    return scores


class ScoreHistory:
    """Windowed per-module buffers of cross-client mean scores.

    Each buffer holds (round, mean) pairs for the last ``window`` rounds in
    which at least one client trained the module; older entries are evicted
    as updates arrive. Each buffer's mean is computed once per change, by
    ``update_history`` or ``from_jsonable``, and read by every client's
    ``value_function``.
    """

    def __init__(self, num_blocks: int, window: int):
        if num_blocks < 1 or window < 1:
            raise ValueError("num_blocks and window must be positive")
        self.num_blocks = num_blocks
        self.window = window
        self._buffers: list[deque[tuple[int, float]]] = [deque() for _ in range(num_blocks)]
        self._means = [0.0] * num_blocks

    def _refresh(self) -> None:
        self._means = [sum(m for _, m in buf) / len(buf) if buf else 0.0 for buf in self._buffers]

    def is_empty(self) -> bool:
        return all(len(b) == 0 for b in self._buffers)

    def temporal_mean(self, j: int) -> float:
        return self._means[j]

    def to_jsonable(self) -> dict:
        return {
            "num_blocks": self.num_blocks,
            "window": self.window,
            "buffers": [[[r, m] for r, m in buf] for buf in self._buffers],
        }

    @classmethod
    def from_jsonable(cls, d: dict) -> "ScoreHistory":
        h = cls(d["num_blocks"], d["window"])
        for j, buf in enumerate(d["buffers"]):
            h._buffers[j] = deque((int(r), float(m)) for r, m in buf)
        h._refresh()
        return h


def update_history(history: ScoreHistory, records: Sequence[IGScoreRecord], round: int) -> ScoreHistory:
    """Fold one round's records into the history (mutates and returns it)."""
    for rec in records:
        if rec.round != round:
            raise ValueError(f"record from client {rec.client_id} is for round {rec.round}, not {round}")
        for j in rec.module_scores:
            if j >= history.num_blocks:
                raise ValueError(f"module index {j} out of range for {history.num_blocks} blocks")
    for j in range(history.num_blocks):
        reported = [rec.module_scores[j] for rec in records if j in rec.module_scores]
        if reported:
            history._buffers[j].append((round, sum(reported) / len(reported)))
    cutoff = round - history.window
    for buf in history._buffers:
        while buf and buf[0][0] <= cutoff:
            buf.popleft()
    history._refresh()
    return history


def value_function(
    history: ScoreHistory,
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
            for j, mean in enumerate(history._means)]
