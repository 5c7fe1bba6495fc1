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

Beta is a mean kept by ``RoundWindow``: per-layer values from the last T
rounds, evicted by round and averaged once per push. The scoring side keeps
its windowed cross-client score means in the same type.

Deltas are dicts {block: (dN, dM)} of float64 arrays.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Mapping, Sequence

import numpy as np

from fedlorasim.memory import AllocationMap

#: (client_id, sparse delta dict, that client's allocation map)
ClientDelta = tuple[int, dict[int, tuple[np.ndarray, np.ndarray]], AllocationMap]


class InvariantViolation(RuntimeError):
    """A live protocol invariant failed (memory safety, shape drift, a
    non-finite client update)."""


class RoundWindow:
    """Per-layer values from the last ``window`` rounds and their means.

    ``push(round, {layer: value})`` appends each named layer's value, drops
    the entries of rounds <= round - window, and computes every layer's
    mean once (0.0 for a layer with no entry). Rounds must increase; a
    value must be finite and >= 0. The contributor counts behind beta push
    every layer each round, so their window is the last ``window`` rounds;
    the IG score means push only the layers some client reported.
    """

    def __init__(self, num_blocks: int, window: int):
        if num_blocks < 1 or window < 1:
            raise ValueError("num_blocks and window must be positive")
        self.num_blocks = num_blocks
        self.window = window
        self.round = 0
        self._entries: list[deque[tuple[int, float]]] = [deque() for _ in range(num_blocks)]
        self.means: tuple[float, ...] = (0.0,) * num_blocks

    def is_empty(self) -> bool:
        return not any(self._entries)

    def push(self, round: int, values: Mapping[int, float]) -> None:
        if round <= self.round:
            raise ValueError(f"round {round} does not follow round {self.round}")
        for j, v in values.items():
            if not 0 <= j < self.num_blocks:
                raise ValueError(f"layer {j} out of range for {self.num_blocks} layers")
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"layer {j}: value must be finite and >= 0, got {v!r}")
        for j, v in values.items():
            self._entries[j].append((round, v))
        cutoff = round - self.window
        for buf in self._entries:
            while buf and buf[0][0] <= cutoff:
                buf.popleft()
        self.round = round
        self.means = tuple(sum(v for _, v in buf) / len(buf) if buf else 0.0
                           for buf in self._entries)

    def to_jsonable(self) -> dict:
        return {
            "num_blocks": self.num_blocks,
            "window": self.window,
            "round": self.round,
            "entries": [[[r, v] for r, v in buf] for buf in self._entries],
        }

    @classmethod
    def from_jsonable(cls, d: dict, key: str = "window") -> "RoundWindow":
        """Rebuild a window by pushing its entries round by round. A value a
        push refuses, or entries the pushes do not keep as ``d`` has them,
        fail naming ``key``."""
        try:
            w = cls(d["num_blocks"], d["window"])
            by_round: dict[int, dict[int, float]] = {}
            for j, buf in enumerate(d["entries"]):
                for r, v in buf:
                    by_round.setdefault(r, {})[j] = v
            for r in sorted(by_round):
                w.push(r, by_round[r])
            if w.round != d["round"]:
                w.push(d["round"], {})
        except KeyError as e:
            raise ValueError(f"{key}: missing field {e}") from e
        except (TypeError, ValueError) as e:
            raise ValueError(f"{key}: {e}") from e
        if w.to_jsonable() != d:
            raise ValueError(f"{key}: entries differ from the window pushing them builds (one list "
                             f"per layer; one entry per round, rounds increasing, within the "
                             f"{w.window} rounds to round {w.round})")
        return w


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
    history: RoundWindow,
    carry_forward: bool = True,
):
    """Compensated layer-wise aggregation; returns the new delta.

    Betas are the window means *before* this round's counts are pushed to
    ``history`` (in place, as the round after its last), so the blend
    always compares now against the recent past. Layers with no contributor
    carry the previous delta forward (or zero out when ``carry_forward`` is
    off or the layer has never been trained).
    """
    def weights(j, alpha):
        beta = history.means[j]
        if alpha == 0:
            return (1.0 if carry_forward and beta > 0 else 0.0), 0.0
        return beta / (alpha + beta), alpha / (alpha + beta)

    new_delta, counts = _blend(prev_delta, client_deltas, weights)
    history.push(history.round + 1, dict(enumerate(counts)))
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
