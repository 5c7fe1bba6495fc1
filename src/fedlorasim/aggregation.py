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

Adapters, deltas and client updates are ``Adapters``, every layer's N and M
stacked. A round's updates stack over the clients, one masked sum gives every
layer's contributor mean, and each rule only picks the per-layer weights.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Mapping, Sequence

import numpy as np

from fedlorasim.memory import AllocationMap, finite_nonneg
from fedlorasim.toymodel import Adapters

#: (client_id, that client's delta, its allocation map)
ClientDelta = tuple[int, Adapters, AllocationMap]


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

    The window holds one entry per push that named a layer, in round order:
    the values as given (``to_jsonable`` writes them, ints included) and a
    float64 (2, L) array of the values and a 1.0 per named layer, with -0.0
    for a layer the push did not name. Every mean is one pass over the
    entries, adding them in round order to +0.0, then one division of the
    value sums by the entry counts; -0.0 adds nothing, so the bytes are those
    of a per-layer ``sum(values) / len(values)``.
    """

    def __init__(self, num_blocks: int, window: int):
        if num_blocks < 1 or window < 1:
            raise ValueError("num_blocks and window must be positive")
        self.num_blocks = num_blocks
        self.window = window
        self.round = 0
        #: (round, {layer: value}, (2, L) values and counts)
        self._rows: deque[tuple[int, dict, np.ndarray]] = deque()
        self.means: tuple[float, ...] = (0.0,) * num_blocks

    def is_empty(self) -> bool:
        return not self._rows

    def push(self, round: int, values: Mapping[int, float]) -> None:
        if round <= self.round:
            raise ValueError(f"round {round} does not follow round {self.round}")
        values = dict(values)
        if values:
            layers, floats = list(values), list(values.values())
            if not (0 <= min(layers) and max(layers) < self.num_blocks and finite_nonneg(floats)):
                for j, v in values.items():  # the first entry either check refuses
                    if not 0 <= j < self.num_blocks:
                        raise ValueError(f"layer {j} out of range for {self.num_blocks} layers")
                    if not 0 <= v < math.inf:
                        raise ValueError(f"layer {j}: value must be finite and >= 0, got {v!r}")
            row = np.full((2, self.num_blocks), -0.0)
            row[0, layers] = floats
            row[1, layers] = 1.0
            self._rows.append((round, values, row))
        cutoff = round - self.window
        while self._rows and self._rows[0][0] <= cutoff:
            self._rows.popleft()
        self.round = round
        # a layer with no entry sums to +0.0 and divides by 1
        total = np.zeros((2, self.num_blocks))
        for _, _, row in self._rows:
            total += row
        self.means = tuple((total[0] / np.maximum(total[1], 1.0)).tolist())

    def to_jsonable(self) -> dict:
        return {
            "num_blocks": self.num_blocks,
            "window": self.window,
            "round": self.round,
            "entries": [[[r, values[j]] for r, values, _ in self._rows if j in values]
                        for j in range(self.num_blocks)],
        }

    @classmethod
    def from_jsonable(cls, d: dict, key: str = "window") -> "RoundWindow":
        """Rebuild a window by pushing its entries round by round. A count
        or round that is no int, a value that is no int or float, a value a
        push refuses, or entries the pushes do not keep as ``d`` has them,
        fail naming ``key``."""
        try:
            # 2.0 and True equal 2 and 1, so the read-back compare cannot see them
            for k in ("num_blocks", "window", "round"):
                if type(d[k]) is not int:
                    raise ValueError(f"{k} {d[k]!r} is not an int")
            w = cls(d["num_blocks"], d["window"])
            by_round: dict[int, dict[int, float]] = {}
            for j, buf in enumerate(d["entries"]):
                for r, v in buf:
                    if type(r) is not int or type(v) not in (int, float):
                        raise ValueError(f"layer {j}: entry {[r, v]!r} is not an int round "
                                         f"and an int or float value")
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


def zero_delta_like(template: Adapters) -> Adapters:
    return Adapters(np.zeros_like(template.N), np.zeros_like(template.M))


def _blend(prev_delta: Adapters, client_deltas: Sequence[ClientDelta], weights):
    """The one blend behind every rule: w_prev * prev + w_mean * mean.

    The client deltas stack into (C, L, H, r)/(C, L, r, H) arrays, checked:
    model shapes, finite, zero on the layers the map does not train.
    ``weights(alpha)`` gives the length-L (w_prev, w_mean) vectors for the
    contributor counts alpha. An untrained layer keeps its previous delta if
    w_prev is nonzero, else is zero; a zero w_prev gives the mean itself.
    Three branches, since ``0 * x`` and ``x + 0.0`` can flip a zero's sign.
    The mean adds the clients in order from -0.0, with -0.0 for a client not
    training the layer, so its bytes are a per-layer loop's, signed zeros
    included; a reduce may add pairwise (numpy does when L = H = r = 1).
    Returns the new delta and alpha.
    """
    c, l = len(client_deltas), len(prev_delta.N)
    for cid, delta, amap in client_deltas:
        if delta.N.shape != prev_delta.N.shape or amap.num_blocks != l:
            raise ValueError(f"client {cid}: delta {list(delta.N.shape)} or {amap.num_blocks}-block "
                             f"map does not match the model's {list(prev_delta.N.shape)}")
    DN = np.array([d.N for _, d, _ in client_deltas]).reshape(c, *prev_delta.N.shape)
    DM = np.array([d.M for _, d, _ in client_deltas]).reshape(c, *prev_delta.M.shape)
    bits = np.array([amap.bits for *_, amap in client_deltas], dtype=bool).reshape(c, l)
    finite = np.isfinite(DN).all(axis=(2, 3)) & np.isfinite(DM).all(axis=(2, 3))
    stray = (DN.any(axis=(2, 3)) | DM.any(axis=(2, 3))) & ~bits
    for bad, error, what in ((~finite, InvariantViolation, "is not finite"),
                             (stray, ValueError, "is nonzero on a layer its map does not train")):
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            raise error(f"client {client_deltas[i][0]}: layer {j} delta {what}")

    alpha = bits.sum(axis=0)
    w_prev, w_mean = (w[:, None, None] for w in weights(alpha))
    trained, count = (alpha > 0)[:, None, None], np.maximum(alpha, 1)[:, None, None]

    def blend(prev: np.ndarray, D: np.ndarray) -> np.ndarray:
        mean = sum(np.where(bits[..., None, None], D, -0.0), np.full(prev.shape, -0.0)) / count
        return np.where(trained, np.where(w_prev == 0, mean, w_prev * prev + w_mean * mean),
                        np.where(w_prev != 0, prev, 0.0))

    return Adapters(blend(prev_delta.N, DN), blend(prev_delta.M, DM)), alpha


def com_agg(prev_delta: Adapters, client_deltas: Sequence[ClientDelta], history: RoundWindow,
            carry_forward: bool = True) -> Adapters:
    """Compensated layer-wise aggregation; returns the new delta.

    Betas are the window means *before* this round's counts are pushed to
    ``history`` (in place, as the round after its last), so the blend
    always compares now against the recent past. Layers with no contributor
    carry the previous delta forward (or zero out when ``carry_forward`` is
    off or the layer has never been trained).
    """
    beta = np.array(history.means)

    def weights(alpha):
        total = np.where(alpha > 0, alpha + beta, 1.0)
        return np.where(alpha > 0, beta / total, (beta > 0) * float(carry_forward)), alpha / total

    new_delta, alpha = _blend(prev_delta, client_deltas, weights)
    history.push(history.round + 1, dict(enumerate(alpha.tolist())))
    return new_delta


def com_agg_fixed(prev_delta: Adapters, client_deltas: Sequence[ClientDelta]) -> Adapters:
    """Aggregation with both blend coefficients pinned to 1 (half and half)."""
    return _blend(prev_delta, client_deltas,
                  lambda alpha: (np.where(alpha > 0, 0.5, 1.0), np.where(alpha > 0, 0.5, 0.0)))[0]


def fed_avg(client_deltas: Sequence[ClientDelta], template: Adapters) -> Adapters:
    """Plain per-layer mean over contributors; zero where nobody trained."""
    return _blend(template, client_deltas,
                  lambda alpha: (np.zeros(len(alpha)), np.ones(len(alpha))))[0]


def apply_delta(params: Adapters, delta: Adapters) -> Adapters:
    """theta + delta; shapes must match exactly."""
    if params.N.shape != delta.N.shape:
        raise ValueError(f"delta shapes {list(delta.N.shape)}/{list(delta.M.shape)} do not "
                         f"match parameters {list(params.N.shape)}/{list(params.M.shape)}")
    return Adapters(params.N + delta.N, params.M + delta.M)
