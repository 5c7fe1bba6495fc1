"""Small dense network with frozen base weights and per-block low-rank adapters.

The network is an l-block chain: frozen input embedding, then l blocks of
``a_j = tanh(a_{j-1} @ (W0_j + scale * N_j @ M_j) + b_j)``, then a frozen
linear head into softmax cross-entropy. Only the adapter factors N (H x r)
and M (r x H) ever train, and only where the allocation map allows.

Backward is analytic and float64. Gradients still flow *through* frozen
blocks so an early trainable block learns even when everything above it is
frozen; what freezing removes is the need to keep that block's input around.
The forward cache mirrors the memory model's split: block outputs
``tanh(z_j)`` are kept from the earliest trainable block onward (the static
analog), block inputs only for trainable blocks (the dynamic analog).
Backward reads tanh' from those outputs and chains through the effective
weights forward used, so it computes neither again.

The adapters are read-only arrays held in tuples, and ``set_lora_state`` is
their only writer. An effective weight ``W0 + scale * N @ M`` changes only
when its block's adapters do, so the net keeps one per block: a write that
leaves a block's factors byte-equal keeps that block's arrays and built
weight, a write that changes them drops the built weight, and the next
``forward`` builds it again. A clone shares every array and built weight
with its source until its own writes replace them.

M starts at zero so the adapters contribute nothing until trained and the
initial network is exactly the frozen base. Each write that changes a block
gives it a fresh tick of one process-wide clock, and a clone inherits the
ticks. ``prefix(X, k)`` returns the activations entering block k as
``Activations`` stamped with the ticks of blocks 0..k-1 and the identity of
the frozen base, and a net ``accepts`` them while its own ticks below k are
the stamp: while its blocks below k hold exactly the writes they were
computed through. ``forward``, ``evaluate``, ``local_train`` and
``local_ig_scores`` take features, or accepted ``Activations`` entering a
block up to the earliest trainable one (backward never goes below it), and
run only the blocks from there up. Activations entering a block up to
``frozen_below``, the lowest block a write has ever changed, outlive a
round; a client's clone accepts its source's activations at its own
earliest trainable block, since its writes land on that block and above.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from fedlorasim.memory import AllocationMap


class StaleCacheError(ValueError):
    """Backward got a cache made by a net with other frozen weights, or
    before a write changed this net's adapters."""


class NonFiniteLossError(ArithmeticError):
    """Training or scoring hit a NaN/inf loss or gradient."""


#: LoRA parameter state: block index -> (N, M) float64 arrays.
LoraState = dict[int, tuple[np.ndarray, np.ndarray]]

#: Ticks for adapter writes; unique across every net in the process, so
#: equal ticks mean one write, inherited by clones.
_write_clock = itertools.count(1)


@dataclass(frozen=True, eq=False)
class Activations:
    """Read-only activations entering ``block``, made by ``ToyLoRANet.prefix``:
    ``base`` identifies the frozen weights of the net that computed them and
    its clones, ``stamp`` that net's write ticks of blocks 0..block-1 then.
    ``acts[rows]`` keeps all three."""

    block: int
    data: np.ndarray
    base: object
    stamp: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, rows) -> "Activations":
        data = self.data[rows]
        data.setflags(write=False)
        return Activations(self.block, data, self.base, self.stamp)


@dataclass
class ForwardCache:
    """Activations retained by one forward pass for a later backward.

    ``acts`` holds block outputs a_j = tanh(z_j) for blocks from the
    earliest trainable one onward; ``block_inputs`` holds a_{j-1} for
    trainable j. ``base`` and ``stamp`` are the identity of the frozen
    weights and the write ticks of every block of the net that made it, as
    in ``Activations``.
    """

    logits: np.ndarray
    acts: dict[int, np.ndarray]
    block_inputs: dict[int, np.ndarray]
    allocation: AllocationMap
    batch_size: int
    base: object
    stamp: tuple[int, ...]

    @property
    def static_count(self) -> int:
        return len(self.acts)

    @property
    def dynamic_count(self) -> int:
        return len(self.block_inputs)


class ToyLoRANet:
    """l-block tanh chain with frozen base and trainable low-rank adapters."""

    def __init__(
        self,
        num_blocks: int,
        hidden_size: int,
        lora_rank: int,
        input_dim: int,
        num_classes: int,
        lora_alpha: float | None,
        seed: int,
    ):
        if min(num_blocks, hidden_size, lora_rank, input_dim, num_classes) < 1:
            raise ValueError("all dimensions must be positive")
        self.num_blocks = num_blocks
        self.hidden_size = hidden_size
        self.lora_rank = lora_rank
        self.input_dim = input_dim
        self.num_classes = num_classes
        self.lora_alpha = float(lora_rank if lora_alpha is None else lora_alpha)
        self.scale = self.lora_alpha / lora_rank
        #: write tick of each block's adapters, 0 while unchanged; see ``accepts``
        self._changed_at = (0,) * num_blocks
        #: identity of the frozen weights, shared with every clone
        self._base = object()

        rng = np.random.default_rng(seed)
        h = hidden_size
        self.embed = rng.normal(0.0, 1.0 / np.sqrt(input_dim), (input_dim, h))
        self.W0 = [rng.normal(0.0, 1.0 / np.sqrt(h), (h, h)) for _ in range(num_blocks)]
        self.b = [np.zeros(h) for _ in range(num_blocks)]
        self.head = rng.normal(0.0, 1.0 / np.sqrt(h), (h, num_classes))
        self.N = tuple(rng.normal(0.0, 1.0 / np.sqrt(h), (h, lora_rank))
                       for _ in range(num_blocks))
        self.M = tuple(np.zeros((lora_rank, h)) for _ in range(num_blocks))
        for arr in (self.embed, self.head, *self.W0, *self.b, *self.N, *self.M):
            arr.setflags(write=False)
        #: effective weight of each block, None until forward builds it
        self._weights: list[np.ndarray | None] = [None] * num_blocks

    # ---- parameter plumbing -------------------------------------------------

    def get_lora_state(self) -> LoraState:
        return {j: (self.N[j], self.M[j]) for j in range(self.num_blocks)}

    def set_lora_state(self, state: LoraState) -> None:
        """The one writer of the adapters. A block whose given factors equal
        the held ones byte for byte keeps its arrays and built weight; a
        changed block stores read-only copies, drops its built weight and
        takes a new write tick."""
        changed = {}
        for j, (n, m) in state.items():
            if not 0 <= j < self.num_blocks:
                raise ValueError(f"block {j} is out of range for {self.num_blocks} blocks")
            if n.shape != self.N[j].shape or m.shape != self.M[j].shape:
                raise ValueError(f"block {j}: adapter shapes {n.shape}/{m.shape} do not fit")
            n, m = np.array(n, dtype=np.float64), np.array(m, dtype=np.float64)
            if n.tobytes() != self.N[j].tobytes() or m.tobytes() != self.M[j].tobytes():
                n.setflags(write=False)
                m.setflags(write=False)
                changed[j] = (n, m)
        if changed:
            N, M, ticks = list(self.N), list(self.M), list(self._changed_at)
            tick = next(_write_clock)
            for j, (n, m) in changed.items():
                N[j], M[j], ticks[j] = n, m, tick
                self._weights[j] = None
            self.N, self.M, self._changed_at = tuple(N), tuple(M), tuple(ticks)

    @property
    def frozen_below(self) -> int:
        """Lowest block whose adapters a write has changed; L while none has."""
        return next((j for j, t in enumerate(self._changed_at) if t), self.num_blocks)

    def accepts(self, acts: Activations) -> bool:
        """Whether ``acts`` were computed on these base weights through
        exactly the adapter writes this net's blocks below ``acts.block``
        hold now."""
        return acts.base is self._base and self._changed_at[:acts.block] == acts.stamp

    def clone(self) -> "ToyLoRANet":
        """Independent copy sharing every (read-only) array, built weight and
        write tick; writes on either side after the copy are its own."""
        other = object.__new__(ToyLoRANet)
        other.__dict__.update(self.__dict__)
        other._weights = list(self._weights)
        return other

    def effective_weight(self, j: int) -> np.ndarray:
        return self.W0[j] + self.scale * (self.N[j] @ self.M[j])

    # ---- forward / loss / backward -----------------------------------------

    def prefix(self, X: np.ndarray | Activations, k: int) -> Activations:
        """The activations entering block k, with forward's arithmetic.

        X holds features, or ``Activations`` this net accepts that enter a
        block up to k, from which the chain continues.
        """
        if not 0 <= k <= self.num_blocks:
            raise ValueError(f"prefix boundary {k} is outside 0..{self.num_blocks}")
        a, start = self._inputs(X, k)
        weights = self._weights
        for j in range(start, k):
            if weights[j] is None:
                weights[j] = self.effective_weight(j)
            a = np.tanh(a @ weights[j] + self.b[j])
        a.setflags(write=False)
        return Activations(k, a, self._base, self._changed_at[:k])

    def _inputs(self, X: np.ndarray | Activations, top: int) -> tuple[np.ndarray, int]:
        """(array, the block it enters) of features, or of ``Activations``
        this net accepts that enter a block up to ``top``."""
        if isinstance(X, Activations):
            if not self.accepts(X):
                raise ValueError(f"activations entering block {X.block} were not computed "
                                 f"through this net's current blocks below it")
            if X.block > top:
                raise ValueError(f"activations entering block {X.block} cannot start a pass "
                                 f"that must begin at block {top} or below")
            return X.data, X.block
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected features of shape (n, {self.input_dim}), got {X.shape}")
        return X @ self.embed, 0

    def forward(self, X: np.ndarray | Activations,
                allocation: AllocationMap) -> tuple[np.ndarray, ForwardCache]:
        """Logits and the cache backward needs; builds the missing weights.

        X holds features, or ``Activations`` this net accepts that enter a
        block up to the allocation's earliest trainable one.
        """
        if len(allocation) != self.num_blocks:
            raise ValueError(
                f"allocation has {len(allocation)} blocks, net has {self.num_blocks}"
            )
        first = allocation.earliest
        a, start = self._inputs(X, self.num_blocks if first is None else first)
        trainable = set(allocation.trainable_indices)
        weights = self._weights
        acts: dict[int, np.ndarray] = {}
        block_inputs: dict[int, np.ndarray] = {}
        for j in range(start, self.num_blocks):
            if j in trainable:
                block_inputs[j] = a
            if weights[j] is None:
                weights[j] = self.effective_weight(j)
            a = np.tanh(a @ weights[j] + self.b[j])
            if first is not None and j >= first:
                acts[j] = a
        logits = a @ self.head
        return logits, ForwardCache(
            logits=logits,
            acts=acts,
            block_inputs=block_inputs,
            allocation=allocation,
            batch_size=a.shape[0],
            base=self._base,
            stamp=self._changed_at,
        )

    def loss(self, logits: np.ndarray, y: np.ndarray, loss_scale: float = 1.0) -> float:
        """Mean softmax cross-entropy, optionally scaled by a constant."""
        y = np.asarray(y)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(-loss_scale * logp[np.arange(len(y)), y].mean())

    def backward(
        self,
        cache: ForwardCache,
        y: np.ndarray,
        loss_scale: float = 1.0,
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Adapter gradients of the mean cross-entropy for the blocks the
        cache's allocation trains.

        The signal is chained down through frozen blocks and stops at the
        earliest trainable one; blocks below it never matter. The cache
        must come from these frozen weights through exactly the writes this
        net holds now, so the weights it builds or keeps are the ones
        forward used.
        """
        if cache.base is not self._base or cache.stamp != self._changed_at:
            raise StaleCacheError("this cache was not made through this net's current weights")
        allocation = cache.allocation
        first = allocation.earliest
        if first is None:
            return {}
        y = np.asarray(y)
        if len(y) != cache.batch_size:
            raise ValueError("labels do not match the cached batch")
        logits = cache.logits
        shifted = logits - logits.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        dlogits = expd / expd.sum(axis=1, keepdims=True)
        dlogits[np.arange(len(y)), y] -= 1.0
        dlogits *= loss_scale / cache.batch_size

        grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        da = dlogits @ self.head.T
        trainable = set(allocation.trainable_indices)
        for j in range(self.num_blocks - 1, first - 1, -1):
            dz = da * (1.0 - cache.acts[j] ** 2)
            if j in trainable:
                a_in = cache.block_inputs[j]
                dW = a_in.T @ dz
                grads[j] = (self.scale * (dW @ self.M[j].T), self.scale * (self.N[j].T @ dW))
            if j > first:
                if self._weights[j] is None:
                    self._weights[j] = self.effective_weight(j)
                da = dz @ self._weights[j].T
        return grads

    def evaluate(self, X: np.ndarray | Activations, y: np.ndarray) -> tuple[float, float]:
        """(mean cross-entropy, accuracy) with nothing trainable; X as in
        ``forward``."""
        logits, _ = self.forward(X, AllocationMap.empty(self.num_blocks))
        loss = self.loss(logits, np.asarray(y))
        acc = float((logits.argmax(axis=1) == np.asarray(y)).mean())
        return loss, acc


def local_train(
    net: ToyLoRANet,
    X: np.ndarray | Activations,
    y: np.ndarray,
    allocation: AllocationMap,
    epochs: int,
    batch_size: int,
    lr: float,
    rng: np.random.Generator | None = None,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Plain SGD over the local data; returns adapter deltas per trained block.

    Updates ``net`` through ``set_lora_state``. Deltas are theta_after -
    theta_before and exist exactly for the allocation's trainable blocks
    (all-zero when lr is 0).
    Batches are sequential unless an rng is given to shuffle each epoch.
    X holds features or ``Activations`` (see ``ToyLoRANet.forward``); a
    batch takes its rows of either.
    """
    if not isinstance(X, Activations):
        X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if len(X) == 0:
        raise ValueError("local dataset is empty")
    if len(X) != len(y):
        raise ValueError("features and labels disagree in length")
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be positive")
    if lr < 0:
        raise ValueError("learning rate must be nonnegative")

    N0, M0 = net.N, net.M
    n = len(X)
    for epoch in range(epochs):
        order = rng.permutation(n) if rng is not None else np.arange(n)
        for lo in range(0, n, batch_size):
            idx = order[lo : lo + batch_size]
            logits, cache = net.forward(X[idx], allocation)
            loss = net.loss(logits, y[idx])
            if not np.isfinite(loss):
                raise NonFiniteLossError(
                    f"non-finite loss {loss} at epoch {epoch}, batch start {lo}, lr {lr}"
                )
            grads = net.backward(cache, y[idx])
            net.set_lora_state({
                j: (net.N[j] - lr * gn, net.M[j] - lr * gm) for j, (gn, gm) in grads.items()
            })
    return {j: (net.N[j] - N0[j], net.M[j] - M0[j]) for j in allocation.trainable_indices}
