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
initial network is exactly the frozen base. ``frozen_below`` is the lowest
block whose adapters a write has ever changed (L while none has; it never
rises, and a clone inherits it). The blocks below it still hold their
initial adapters, so for fixed inputs the activation entering any block
k <= ``frozen_below`` is fixed too: ``prefix`` computes it with forward's
arithmetic, and ``forward``, ``evaluate``, ``local_train`` and
``local_ig_scores`` take it in place of the features (``start=k``) and run
only blocks k and up. Backward never goes below the earliest trainable
block, so k may not exceed that block either.

A clone may start higher than ``frozen_below``. ``stable_below`` is the
highest start a net accepts. It equals ``frozen_below`` in a net built by
``__init__`` and in a fresh clone, and falls with it on every write that
changes a lower block. A net not yet written since it was built or cloned
may ``lift_boundary`` to any block k: it computes the activation entering k
and raises ``stable_below`` to k. A client's clone does this once at its own
earliest trainable block, then scores and trains from there, since its
writes land on that block and above.

The start check vouches for the blocks, not for the array: at a start up to
``frozen_below`` it holds for an activation computed by any net built on the
same base, since every block below still holds its initial adapters. Above
``frozen_below`` it holds only for the activation that net's own
``lift_boundary`` returned, and rows of it; the net cannot tell where an
array came from, so an activation computed elsewhere (by the global net in
an earlier round, say) is the caller's to keep out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedlorasim.memory import AllocationMap


class StaleCacheError(ValueError):
    """Backward got a cache produced before the net's parameters changed."""


class NonFiniteLossError(ArithmeticError):
    """Training or scoring hit a NaN/inf loss or gradient."""


#: LoRA parameter state: block index -> (N, M) float64 arrays.
LoraState = dict[int, tuple[np.ndarray, np.ndarray]]


@dataclass
class ForwardCache:
    """Activations retained by one forward pass for a later backward.

    ``acts`` holds block outputs a_j = tanh(z_j) for blocks from the
    earliest trainable one onward; ``block_inputs`` holds a_{j-1} for
    trainable j.
    """

    logits: np.ndarray
    acts: dict[int, np.ndarray]
    block_inputs: dict[int, np.ndarray]
    allocation: AllocationMap
    batch_size: int
    version: int

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
        self.version = 0
        #: lowest block whose adapters a write has changed; L while none has
        self.frozen_below = num_blocks
        #: highest start this net accepts; see the module docstring
        self.stable_below = num_blocks

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
        lowers ``frozen_below`` and ``stable_below``. ``version`` moves on
        every call."""
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
            N, M = list(self.N), list(self.M)
            for j, (n, m) in changed.items():
                N[j], M[j] = n, m
                self._weights[j] = None
            self.N, self.M = tuple(N), tuple(M)
            self.frozen_below = min(self.frozen_below, *changed)
            self.stable_below = min(self.stable_below, *changed)
        self.version += 1

    def clone(self) -> "ToyLoRANet":
        """Independent copy sharing every (read-only) array and built weight.

        The clone accepts starts up to its ``frozen_below`` only: the
        activations its source computed above that may be stale."""
        other = object.__new__(ToyLoRANet)
        other.__dict__.update(self.__dict__)
        other._weights = list(self._weights)
        other.version = 0
        other.stable_below = self.frozen_below
        return other

    def effective_weight(self, j: int) -> np.ndarray:
        return self.W0[j] + self.scale * (self.N[j] @ self.M[j])

    # ---- forward / loss / backward -----------------------------------------

    def prefix(self, X: np.ndarray, k: int, start: int | None = None) -> np.ndarray:
        """The activation entering block k, with forward's arithmetic.

        X holds features, or with ``start`` the activations entering that
        block (a start ``forward`` accepts, at most k). k may not exceed
        ``stable_below``, so the result stays valid for this net, and for
        its clones when k is at most ``frozen_below``, until a write changes
        a block below k.
        """
        return self._run_prefix(X, k, start, self.stable_below)

    def lift_boundary(self, X: np.ndarray, k: int, start: int | None = None) -> np.ndarray:
        """``prefix(X, k, start)`` for any block k, on a net not written since
        it was built or cloned; k then becomes the highest start it accepts,
        for the returned activation and rows of it (see the module
        docstring), until a write changes a block below k."""
        if self.version != 0:
            raise ValueError("only a net not written since it was built or cloned "
                             "may lift its boundary")
        a = self._run_prefix(X, k, start, self.num_blocks)
        self.stable_below = max(self.stable_below, k)
        return a

    def _run_prefix(self, X: np.ndarray, k: int, start: int | None, top: int) -> np.ndarray:
        """The activation entering block k, for k at most ``top``."""
        if start is None:
            X = np.asarray(X, dtype=np.float64)
            if X.ndim != 2 or X.shape[1] != self.input_dim:
                raise ValueError(f"expected features of shape (n, {self.input_dim}), got {X.shape}")
            a, start = X @ self.embed, 0
        else:
            a = self._start_activations(X, start)
        if not start <= k <= top:
            raise ValueError(f"prefix boundary {k} is outside {start}..{top} "
                             f"(frozen_below {self.frozen_below}, "
                             f"stable_below {self.stable_below})")
        weights = self._weights
        for j in range(start, k):
            if weights[j] is None:
                weights[j] = self.effective_weight(j)
            a = np.tanh(a @ weights[j] + self.b[j])
        return a

    def _start_activations(self, A: np.ndarray, start: int,
                           earliest: int | None = None) -> np.ndarray:
        """``A`` as float64 activations entering block ``start``, which may
        exceed neither ``stable_below`` nor ``earliest``."""
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[1] != self.hidden_size:
            raise ValueError(
                f"expected activations of shape (n, {self.hidden_size}), got {A.shape}")
        top = self.stable_below if earliest is None else min(self.stable_below, earliest)
        if not 0 <= start <= top:
            raise ValueError(f"start block {start} is outside 0..{top} "
                             f"(frozen_below {self.frozen_below}, "
                             f"stable_below {self.stable_below}, earliest {earliest})")
        return A

    def forward(self, X: np.ndarray, allocation: AllocationMap,
                start: int | None = None) -> tuple[np.ndarray, ForwardCache]:
        """Logits and the cache backward needs; builds the missing weights.

        X holds features, or with ``start=k`` the activations entering block
        k (``prefix(features, k)``), when k is at most ``stable_below`` and
        the allocation's earliest block.
        """
        if len(allocation) != self.num_blocks:
            raise ValueError(
                f"allocation has {len(allocation)} blocks, net has {self.num_blocks}"
            )
        first = allocation.earliest
        if start is None:
            a, start = self.prefix(X, 0), 0
        else:
            a = self._start_activations(X, start, first)
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
            version=self.version,
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
        allocation: AllocationMap | None = None,
        loss_scale: float = 1.0,
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Adapter gradients of the mean cross-entropy for trainable blocks.

        The signal is chained down through frozen blocks and stops at the
        earliest trainable one; blocks below it never matter. The version
        check makes the net's built weights the ones forward used.
        """
        if allocation is not None and allocation != cache.allocation:
            raise ValueError("allocation does not match the one used in forward")
        if cache.version != self.version:
            raise StaleCacheError("net parameters changed since this cache was made")
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
                da = dz @ self._weights[j].T
        return grads

    def evaluate(self, X: np.ndarray, y: np.ndarray,
                 start: int | None = None) -> tuple[float, float]:
        """(mean cross-entropy, accuracy) with nothing trainable; X and
        ``start`` as in ``forward``."""
        logits, _ = self.forward(X, AllocationMap.empty(self.num_blocks), start)
        loss = self.loss(logits, np.asarray(y))
        acc = float((logits.argmax(axis=1) == np.asarray(y)).mean())
        return loss, acc


def local_train(
    net: ToyLoRANet,
    X: np.ndarray,
    y: np.ndarray,
    allocation: AllocationMap,
    epochs: int,
    batch_size: int,
    lr: float,
    rng: np.random.Generator | None = None,
    start: int | None = None,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Plain SGD over the local data; returns adapter deltas per trained block.

    Updates ``net`` through ``set_lora_state``. Deltas are theta_after -
    theta_before and exist exactly for the allocation's trainable blocks
    (all-zero when lr is 0).
    Batches are sequential unless an rng is given to shuffle each epoch.
    X holds features, or with ``start`` the activations entering that block
    (see ``ToyLoRANet.forward``); a batch takes its rows of either.
    """
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
            logits, cache = net.forward(X[idx], allocation, start)
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
