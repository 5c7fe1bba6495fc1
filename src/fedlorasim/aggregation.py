"""Layer-wise merging of sparse client adapter updates.

Clients train different module subsets, so each layer has its own set of
contributors. The compensated rule blends the layer's previous global delta
with the current contributor mean, weighting by how many clients usually
train the layer (the windowed count beta) versus how many did now (alpha):

    delta_new = beta/(alpha+beta) * delta_prev + alpha/(alpha+beta) * mean

A layer nobody trained this round keeps its previous delta moving (the
compensation), a layer everyone trains leans on fresh evidence. All three
rules are this one blend and differ only in the weights: the fixed variant
pins both coefficients to 1 (half and half), and plain per-layer averaging
puts weight 0 on the previous delta, so it ignores history entirely.

Deltas are dicts {block: (dN, dM)} of float64 arrays.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from fedlorasim.memory import AllocationMap

#: (client_id, sparse delta dict, that client's allocation map)
ClientDelta = tuple[int, dict[int, tuple[np.ndarray, np.ndarray]], AllocationMap]


class InvariantViolation(RuntimeError):
    """A live protocol invariant failed (memory safety, shape drift, a
    non-finite client update)."""


class ContributionHistory:
    """Ring buffers of per-layer contributor counts over the last T rounds."""

    def __init__(self, num_blocks: int, window: int):
        if num_blocks < 1 or window < 1:
            raise ValueError("num_blocks and window must be positive")
        self.num_blocks = num_blocks
        self.window = window
        self._counts: list[deque[int]] = [deque(maxlen=window) for _ in range(num_blocks)]

    def beta(self, j: int) -> float:
        buf = self._counts[j]
        if not buf:
            return 0.0
        return sum(buf) / len(buf)

    def append(self, counts: Sequence[int]) -> None:
        if len(counts) != self.num_blocks:
            raise ValueError(f"expected {self.num_blocks} counts, got {len(counts)}")
        if any(c < 0 for c in counts):
            raise ValueError("contributor counts must be >= 0")
        for j, c in enumerate(counts):
            self._counts[j].append(int(c))

    def to_jsonable(self) -> dict:
        return {
            "num_blocks": self.num_blocks,
            "window": self.window,
            "counts": [list(buf) for buf in self._counts],
        }

    @classmethod
    def from_jsonable(cls, d: dict) -> "ContributionHistory":
        h = cls(d["num_blocks"], d["window"])
        for j, buf in enumerate(d["counts"]):
            h._counts[j].extend(int(c) for c in buf)
        return h


def zero_delta_like(template: dict[int, tuple[np.ndarray, np.ndarray]]) -> dict:
    return {j: (np.zeros_like(n), np.zeros_like(m)) for j, (n, m) in template.items()}


def _check_client_deltas(client_deltas: Sequence[ClientDelta], template: dict) -> None:
    for cid, deltas, amap in client_deltas:
        trained = set(amap.trainable_indices)
        if set(deltas) != trained:
            raise ValueError(
                f"client {cid}: delta layers {sorted(deltas)} do not match "
                f"allocation {sorted(trained)}"
            )
        for j, (dn, dm) in deltas.items():
            if j not in template:
                raise ValueError(f"client {cid}: layer {j} unknown to the global model")
            tn, tm = template[j]
            if dn.shape != tn.shape or dm.shape != tm.shape:
                raise ValueError(f"client {cid}: layer {j} delta shapes do not match the model")
            if not (np.isfinite(dn).all() and np.isfinite(dm).all()):
                raise InvariantViolation(f"client {cid}: layer {j} delta is not finite")


def _layer_mean(contributions: list[tuple[np.ndarray, np.ndarray]]):
    sn = contributions[0][0].copy()
    sm = contributions[0][1].copy()
    for dn, dm in contributions[1:]:
        sn += dn
        sm += dm
    k = len(contributions)
    return sn / k, sm / k


def _blend(prev_delta, client_deltas: Sequence[ClientDelta], weights):
    """The one per-layer loop behind every rule: w_prev * prev + w_mean * mean.

    ``weights(j, alpha)`` gives layer j's (w_prev, w_mean) when alpha clients
    trained it. A layer nobody trained keeps its previous delta when w_prev
    is nonzero and is zero otherwise; a zero w_prev returns the mean itself.
    Returns the new delta and the per-layer contributor counts.
    """
    _check_client_deltas(client_deltas, prev_delta)
    new_delta: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    counts = []
    for j in sorted(prev_delta):
        contributions = [deltas[j] for _, deltas, amap in client_deltas if amap.bits[j]]
        alpha = len(contributions)
        counts.append(alpha)
        wp, wc = weights(j, alpha)
        pn, pm = prev_delta[j]
        if alpha == 0:
            new_delta[j] = (pn.copy(), pm.copy()) if wp else (np.zeros_like(pn), np.zeros_like(pm))
        elif wp == 0:
            new_delta[j] = _layer_mean(contributions)
        else:
            mn, mm = _layer_mean(contributions)
            new_delta[j] = (wp * pn + wc * mn, wp * pm + wc * mm)
    return new_delta, counts


def com_agg(
    prev_delta: dict[int, tuple[np.ndarray, np.ndarray]],
    client_deltas: Sequence[ClientDelta],
    history: ContributionHistory,
    carry_forward: bool = True,
):
    """Compensated layer-wise aggregation; returns the new delta.

    Betas are computed from the window *before* this round's counts are
    appended to ``history`` (in place), so the blend always compares now
    against the recent past. Layers with no contributor carry the previous
    delta forward (or zero out when ``carry_forward`` is off or the layer
    has never been trained).
    """
    def weights(j, alpha):
        beta = history.beta(j)
        if alpha == 0:
            return (1.0 if carry_forward and beta > 0 else 0.0), 0.0
        return beta / (alpha + beta), alpha / (alpha + beta)

    new_delta, counts = _blend(prev_delta, client_deltas, weights)
    history.append(counts)
    return new_delta


def com_agg_fixed(
    prev_delta: dict[int, tuple[np.ndarray, np.ndarray]],
    client_deltas: Sequence[ClientDelta],
):
    """Aggregation with both blend coefficients pinned to 1 (half and half)."""
    return _blend(prev_delta, client_deltas, lambda j, alpha: (0.5, 0.5) if alpha else (1.0, 0.0))[0]


def fed_avg(
    client_deltas: Sequence[ClientDelta],
    template: dict[int, tuple[np.ndarray, np.ndarray]],
):
    """Plain per-layer mean over contributors; zero where nobody trained."""
    return _blend(template, client_deltas, lambda j, alpha: (0.0, 1.0))[0]


def apply_delta(
    params: dict[int, tuple[np.ndarray, np.ndarray]],
    delta: dict[int, tuple[np.ndarray, np.ndarray]],
):
    """theta + delta, layer by layer; keys and shapes must match exactly."""
    if set(params) != set(delta):
        raise ValueError("delta layers do not match parameter layers")
    out = {}
    for j, (n, m) in params.items():
        dn, dm = delta[j]
        if dn.shape != n.shape or dm.shape != m.shape:
            raise ValueError(f"layer {j}: delta shapes do not match parameters")
        out[j] = (n + dn, m + dm)
    return out
