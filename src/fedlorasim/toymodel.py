"""Small dense network with frozen base weights and per-block low-rank adapters.

The network is an l-block chain: frozen input embedding, then l blocks of
``a_j = tanh(a_{j-1} @ (W0_j + scale * N_j @ M_j) + b_j)``, then a frozen
linear head into softmax cross-entropy. Only the adapter factors N (H x r)
and M (r x H) ever train, and only where the allocation map allows.

The bias b_j is frozen at zero: no code writes it, and the memory model
(``simulator.toy_profile``) still bills it as a frozen parameter. The
block passes skip adding it, which changes no byte: a product accumulates
from +0.0, so it never gives -0.0, and adding +0.0 to anything else leaves
it as it is. In the same way a scale of 1, which ``lora_alpha`` left at its
default r gives, multiplies nothing.

Backward is analytic and float64. Gradients still flow *through* frozen
blocks so an early trainable block learns even when everything above it is
frozen; what freezing removes is the need to keep that block's input around.
The forward cache mirrors the memory model's split: block outputs
``tanh(z_j)`` are kept from the earliest trainable block onward (the static
analog), block inputs only for trainable blocks (the dynamic analog).
Backward reads tanh' from those outputs and chains through the effective
weights forward used, so it computes neither again.

The net holds its adapters as read-only per-block arrays in tuples, and
``W0`` as a tuple of read-only views of one (L, H, H) array; outside it the
adapters are one ``Adapters``, which ``get_lora_state`` copies out and
``set_lora_state``, their only writer from outside, takes. An effective
weight ``W0 + scale * N @ M`` changes only when its block's adapters do, so
the net keeps one per block: a write that leaves a block's factors
byte-equal keeps that block's arrays and built weight, a write that changes
them drops the built weight. The first weight read after a write that finds
a weight missing builds every block that write changed (the blocks
``set_lora_state`` changed, or a group's trained blocks after an SGD step)
in one stacked ``N @ M`` product, whose every matrix has the bytes of its
block's own, then adds ``W0``; ``effective_weight(j)`` hands out block j's
slice. A write no forward follows builds nothing. A block no write has
touched uses ``W0`` itself, which the sum equals byte for byte while M is
zero. A clone shares every array and built weight with its source until
its own writes replace them.

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
round.

The net has one call form, a group of clients in lockstep: ``forward``
takes one input per client and a ``MapStack`` of their maps, in pass order
(by earliest trainable block), and runs each block once for the stack,
``(C, B, H)`` activations against the shared ``(H, H)`` weight or a
``(C, H, H)`` stack of per-client ones; each numpy product on the stack
gives the bytes of the per-client one. A single client is a group of one.
Each client joins the stack at the block its input enters, so the clients
live at a block are a leading slice. Backward chains the signal down block
by block, but the adapter gradients are computed only for the group's
(block, client) pairs, the clients whose map trains a block, and for all of
them at once: ``Gradients`` holds one ``(P, H, r)``/``(P, r, H)`` stack in
the pair order of ``MapStack``. ``local_train`` trains a group on a clone of
the net given. The clone holds the factors of the blocks the group trains
as one ``(T, C, H, r)``/``(T, C, r, H)`` stack, one row per client, and an
SGD step is one update of a copy of it at the pairs; each trained block's
per-block arrays are read-only views of the newest stack. The rows of the
clients whose map does not train a block keep the shared factors, and the
clone keeps the ticks those rows hold, so each client's input, which enters
no block above its earliest trainable one, stays accepted for the whole
update. ``local_ig_scores`` runs the same pass on the net itself, with no
write.

Block arithmetic writes into the fresh result of the block's product (the
pre-activation, tanh' and the effective weight), never into an array that
is kept: ``Activations.data``, the cache's activations or the factors.
``prefix`` and ``evaluate`` run their rows through the embedding and the
blocks in chunks of ``ROW_CHUNK_BYTES``, so a large set such as a test set
never takes a whole-set array per block; only the head, whose product is
not row-invariant, runs over all rows at once.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from fedlorasim.memory import AllocationMap


class StaleCacheError(ValueError):
    """Backward got a cache made by a net with other frozen weights, or
    before a write changed this net's adapters."""


class NonFiniteLossError(ArithmeticError):
    """Training or scoring hit a NaN/inf loss or gradient."""


#: Ticks for adapter writes; unique across every net in the process, so
#: equal ticks mean one write, inherited by clones.
_write_clock = itertools.count(1)

#: Most bytes of activations one row chunk of ``ToyLoRANet.evaluate`` and
#: ``prefix`` holds (rows * H * 8): 256 rows at H = 128, so wide-train's
#: 2000-row test set runs as eight chunks, while a 500-row test set at
#: H <= 32 is one. A fresh (n, H) product per block over the whole test set
#: set wide-train's memory peak and caused most of its minor page faults.
ROW_CHUNK_BYTES = 256 * 1024


@dataclass(frozen=True, eq=False)
class Adapters:
    """Every block's LoRA factors stacked, ``N`` (L, H, r) and ``M`` (L, r, H),
    float64: the net's state, a global delta or a client's update (zero rows
    on the blocks it did not train). ``a[j]`` is block j's (N, M) pair, and
    iterating gives the block indices 0..L-1."""

    N: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        n, m = (np.asarray(x, dtype=np.float64) for x in (self.N, self.M))
        if n.ndim != 3 or not len(n) or m.shape != (len(n), n.shape[2], n.shape[1]):
            raise ValueError(f"adapter shapes {list(n.shape)}/{list(m.shape)} "
                             f"are not (L, H, r)/(L, r, H)")
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "M", m)

    def __iter__(self):
        return iter(range(len(self.N)))

    def __getitem__(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        return self.N[j], self.M[j]


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


@dataclass(frozen=True, eq=False)
class MapStack:
    """The allocation maps of a group of clients that run one pass together,
    one per client of ``ToyLoRANet.forward``'s client axis.

    The maps come in pass order, by earliest trainable block, and any other
    order is refused; ``earliest`` holds it per client (L for a map that
    trains nothing), so the clients whose backward reaches block j are a
    leading slice. ``trainers[j]`` holds the positions of the clients whose
    map trains block j, for every block some map trains; ``trained`` holds
    those blocks in ascending order.

    A group's gradients and SGD steps run over its (block, client) pairs
    in one stack, in backward's order: the trained blocks from the top one
    down, each with its trainers in group order. Pair p is client
    ``pair_client[p]`` at block ``pair_block[p]``, which is
    ``trained[pair_row[p]]``.
    """

    maps: tuple[AllocationMap, ...]
    earliest: tuple[int, ...] = field(init=False)
    trainers: dict[int, np.ndarray] = field(init=False)
    trained: np.ndarray = field(init=False)
    pair_block: np.ndarray = field(init=False)
    pair_client: np.ndarray = field(init=False)
    pair_row: np.ndarray = field(init=False)

    def __post_init__(self):
        maps = tuple(self.maps)
        if not maps:
            raise ValueError("a group needs at least one client")
        l = maps[0].num_blocks
        if any(m.num_blocks != l for m in maps):
            raise ValueError("the maps of a group must have equal block counts")
        earliest = tuple(l if m.earliest is None else m.earliest for m in maps)
        if list(earliest) != sorted(earliest):
            raise ValueError(f"maps must be ordered by earliest trainable block, got {earliest}")
        bits = np.array([m.bits for m in maps])
        trained = np.flatnonzero(bits.any(axis=0))
        # row-major over the trained blocks from the top down: each block's trainers in order
        down, pair_client = np.nonzero(bits.T[trained[::-1]])
        pair_row = len(trained) - 1 - down
        runs = np.split(pair_client, np.flatnonzero(np.diff(down)) + 1)
        trainers = dict(zip(trained[::-1].tolist(), runs))
        for name, value in (("maps", maps), ("earliest", earliest), ("trainers", trainers),
                            ("trained", trained), ("pair_block", trained[pair_row]),
                            ("pair_client", pair_client), ("pair_row", pair_row)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.maps)

    @property
    def num_blocks(self) -> int:
        return self.maps[0].num_blocks


class _WeightBuild:
    """The effective weights of the blocks one write changed (``blocks``,
    ascending, block ``blocks[k]`` at row k), from their stacked factors
    ``N``/``M``; ``weights`` holds them once built, shared by the net and
    its clones until their own writes replace it."""

    def __init__(self, blocks: list[int], N: np.ndarray, M: np.ndarray):
        self.blocks, self.N, self.M = blocks, N, M
        self.rows = {j: k for k, j in enumerate(blocks)}
        self.weights: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class Gradients:
    """Adapter gradients of a group's (block, client) pairs, ``N`` (P, H, r)
    and ``M`` (P, r, H), in the pair order of ``maps``. ``items()`` gives
    each trained block's (N, M) slice, stacked over the clients that train
    it in group order, from the top block down."""

    N: np.ndarray
    M: np.ndarray
    maps: MapStack

    def __post_init__(self):
        p = len(self.maps.pair_block)
        if len(self.N) != p or len(self.M) != p:
            raise ValueError(f"gradients of {len(self.N)}/{len(self.M)} pairs for a group "
                             f"of {p} (block, client) pairs")

    def items(self):
        lo = 0
        for j in self.maps.trained[::-1].tolist():
            hi = lo + len(self.maps.trainers[j])
            yield j, (self.N[lo:hi], self.M[lo:hi])
            lo = hi


@dataclass
class ForwardCache:
    """Activations retained by one forward pass for a later backward.

    Arrays carry the client axis of the pass: ``logits`` is (C, B, K),
    ``acts`` holds block outputs a_j = tanh(z_j) of the clients live at
    block j, for blocks from the group's earliest trainable one onward, and
    ``block_inputs`` holds their a_{j-1} for blocks some client trains.
    ``maps`` holds the clients' maps. ``base`` and ``stamp`` are the
    identity of the frozen weights and the write ticks of every block of the
    net that made it, as in ``Activations``.
    """

    logits: np.ndarray
    acts: dict[int, np.ndarray]
    block_inputs: dict[int, np.ndarray]
    maps: MapStack
    base: object
    stamp: tuple[int, ...]
    _softmax: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def static_count(self) -> int:
        return len(self.acts)

    @property
    def dynamic_count(self) -> int:
        return len(self.block_inputs)

    def softmax(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(logits less their row maximum, its exponential, that one's row
        sums), computed once per cache: ``losses`` and backward both read
        them."""
        if self._softmax is None:
            self._softmax = _softmax(self.logits)
        return self._softmax

    def labels(self, y) -> np.ndarray:
        """y as an array of the cached batch's (C, B) shape."""
        y = np.asarray(y)
        if y.shape != self.logits.shape[:2]:
            raise ValueError("labels do not match the cached batch")
        return y

    def losses(self, y) -> np.ndarray:
        """Each client's mean softmax cross-entropy for labels y (C, B)."""
        return _mean_cross_entropy(self.softmax(), self.labels(y))


def _softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(logits less their row maximum, its exponential, that one's row sums)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return shifted, expd, expd.sum(axis=-1, keepdims=True)


def _mean_cross_entropy(softmax: tuple[np.ndarray, ...], y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy over the rows of ``_softmax``'s logits, labels y
    of the logits' shape less the class axis."""
    shifted, _, sums = softmax
    picked = shifted.reshape(-1, shifted.shape[-1])[np.arange(y.size), y.ravel()].reshape(y.shape)
    # the sum over the rows divided by their count, as ``mean`` computes it
    return -np.add.reduce(picked - np.log(sums[..., 0]), axis=-1) / y.shape[-1]


def _row_chunks(n: int, rows: int) -> list[tuple[int, int]]:
    """(lo, hi) of consecutive chunks of ``rows`` rows (at least two) over n
    rows; a last chunk of one row joins the one before it, since numpy
    multiplies a single row as a vector, which can round differently."""
    stops = list(range(rows, n, rows))
    if stops and n - stops[-1] == 1:
        stops.pop()
    return list(zip([0, *stops], [*stops, n]))


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
        alpha = float(lora_rank if lora_alpha is None else lora_alpha)
        if not 0.0 < alpha < math.inf:
            raise ValueError(f"lora_alpha must be finite and above 0, got {lora_alpha}")
        self.num_blocks = num_blocks
        self.hidden_size = hidden_size
        self.lora_rank = lora_rank
        self.input_dim = input_dim
        self.num_classes = num_classes
        self.lora_alpha = alpha
        self.scale = alpha / lora_rank
        #: write tick of each block's adapters, 0 while unchanged
        self._changed_at = (0,) * num_blocks
        #: the ticks of the shared factors, which a client not training a
        #: block holds there; ``_changed_at`` until an SGD step of a group
        #: writes per-client rows (see ``accepts``)
        self._shared_at = self._changed_at
        #: size of the client axis once a group's SGD step has given the
        #: adapters one; None for a single net
        self.clients: int | None = None
        #: (maps, N, M) of the last SGD step: the (T, C, H, r)/(T, C, r, H)
        #: factors of the T blocks ``maps`` trains, which the per-block
        #: arrays of those blocks view; None once ``set_lora_state`` writes
        self._stack: tuple[MapStack, np.ndarray, np.ndarray] | None = None
        #: the effective weights of the blocks the last write changed,
        #: built together on the first read of one of them
        self._fresh: _WeightBuild | None = None
        #: identity of the frozen weights, shared with every clone
        self._base = object()

        rng = np.random.default_rng(seed)
        h = hidden_size
        self.embed = rng.normal(0.0, 1.0 / np.sqrt(input_dim), (input_dim, h))
        #: every block's frozen weight, one (L, H, H) array that ``W0`` views
        self._W0 = rng.normal(0.0, 1.0 / np.sqrt(h), (num_blocks, h, h))
        self._W0.setflags(write=False)
        self.W0 = tuple(self._W0)
        #: frozen at zero and never written: the memory model bills it, but
        #: the block passes skip adding it (see the module docstring)
        self.b = tuple(np.zeros(h) for _ in range(num_blocks))
        self.head = rng.normal(0.0, 1.0 / np.sqrt(h), (h, num_classes))
        self.N = tuple(rng.normal(0.0, 1.0 / np.sqrt(h), (h, lora_rank))
                       for _ in range(num_blocks))
        self.M = tuple(np.zeros((lora_rank, h)) for _ in range(num_blocks))
        for arr in (self.embed, self.head, *self.b, *self.N, *self.M):
            arr.setflags(write=False)
        #: effective weight of each block, None until forward builds it
        self._weights: list[np.ndarray | None] = [None] * num_blocks

    # ---- parameter plumbing -------------------------------------------------

    def get_lora_state(self) -> Adapters:
        """A copy of the adapters, stacked over the blocks."""
        return Adapters(np.stack(self.N), np.stack(self.M))

    def set_lora_state(self, state: Adapters) -> None:
        """The one writer of the adapters from outside. A block whose given
        factors equal the held ones byte for byte keeps its arrays and built
        weight; a changed block stores read-only copies, drops its built
        weight and takes a new write tick."""
        want = (self.num_blocks, self.hidden_size, self.lora_rank)
        if state.N.shape != want:
            raise ValueError(f"adapter shapes {list(state.N.shape)}/{list(state.M.shape)} "
                             f"do not fit (L, H, r) = {want}")
        changed = [j for j, (n, m) in enumerate(zip(state.N, state.M))
                   if n.tobytes() != self.N[j].tobytes() or m.tobytes() != self.M[j].tobytes()]
        if changed:
            n, m = state.N[changed], state.M[changed]
            n.setflags(write=False)
            m.setflags(write=False)
            self._stack = None
            self._store(n, m, changed, shared=True)

    def _store(self, n: np.ndarray, m: np.ndarray, changed: list[int], shared: bool) -> None:
        """Hold the read-only factors n (T, ..., H, r) and m (T, ..., r, H)
        of the T blocks ``changed``, ascending: their per-block arrays view
        them, their built weights are dropped, to be built together on the
        next read, and they take one new tick, which ``shared`` factors give
        every client."""
        N, M, ticks = list(self.N), list(self.M), list(self._changed_at)
        tick = next(_write_clock)
        for row, j in enumerate(changed):
            N[j], M[j], ticks[j] = n[row], m[row], tick
            self._weights[j] = None
        self.N, self.M, self._changed_at = tuple(N), tuple(M), tuple(ticks)
        self._fresh = _WeightBuild(changed, n, m)
        if shared:
            changed = set(changed)
            self._shared_at = tuple(tick if j in changed else t for j, t in enumerate(self._shared_at))

    def _factor_stack(self, maps: MapStack, clients: int) -> tuple[np.ndarray, np.ndarray]:
        """The (T, clients, H, r)/(T, clients, r, H) factors of the T blocks
        ``maps`` trains: the last SGD step's stack when it was taken with
        these maps, else a fresh one read from the per-block arrays, whose
        shared factors fill every client row."""
        if self._stack is not None and self._stack[0] is maps:
            return self._stack[1], self._stack[2]
        t, h, r = len(maps.trained), self.hidden_size, self.lora_rank
        n, m = np.empty((t, clients, h, r)), np.empty((t, clients, r, h))
        for row, j in enumerate(maps.trained.tolist()):
            n[row], m[row] = self.N[j], self.M[j]
        return n, m

    def _pair_factors(self, maps: MapStack) -> tuple[np.ndarray, np.ndarray]:
        """The factors each (block, client) pair of ``maps`` trains from,
        (P, H, r)/(P, r, H) in pair order; a net with no client axis holds
        one row, the shared factors, for every client."""
        n, m = self._factor_stack(maps, self.clients or 1)
        at = maps.pair_row, (maps.pair_client if self.clients else 0)
        return n[at], m[at]

    def _descend(self, grads: Gradients, lr: float) -> None:
        """One SGD step of a group from ``backward``'s gradients, as one
        update of a copy of the factor stack: each (block, client) pair's
        factors move by -lr times its gradient, and the rows of the clients
        whose map does not train a block keep the shared factors. The
        trained blocks' per-block arrays become read-only views of the new
        stack, and every trained block takes a tick."""
        maps = grads.maps
        n, m = (x.copy() for x in self._factor_stack(maps, len(maps)))
        at = maps.pair_row, maps.pair_client
        n[at] -= lr * grads.N
        m[at] -= lr * grads.M
        n.setflags(write=False)
        m.setflags(write=False)
        self.clients, self._stack = len(maps), (maps, n, m)
        self._store(n, m, maps.trained.tolist(), shared=False)

    @property
    def frozen_below(self) -> int:
        """Lowest block whose adapters a write has changed; L while none has."""
        return next((j for j, t in enumerate(self._changed_at) if t), self.num_blocks)

    def accepts(self, acts: Activations) -> bool:
        """Whether ``acts`` were computed on these base weights through
        exactly the adapter writes this net's blocks below ``acts.block``
        hold now. On a net with a client axis these are the shared factors,
        which a client holds in every block below its earliest trainable
        one."""
        return acts.base is self._base and self._shared_at[:acts.block] == acts.stamp

    def clone(self) -> "ToyLoRANet":
        """Independent copy sharing every (read-only) array, built weight and
        write tick; writes on either side after the copy are its own."""
        other = object.__new__(ToyLoRANet)
        other.__dict__.update(self.__dict__)
        other._weights = list(self._weights)
        return other

    def effective_weight(self, j: int) -> np.ndarray:
        """``W0 + scale * N @ M`` of block j, read-only; ``W0[j]`` itself
        while no write has touched the block, whose M is then still zero, so
        that the sum is W0 byte for byte. A block the last write changed
        gets its slice of the weights of every block that write changed,
        built on the first read of one of them."""
        if not self._changed_at[j]:
            return self.W0[j]
        fresh = self._fresh
        if j in fresh.rows:
            if fresh.weights is None:
                fresh.weights = self._weights_of(fresh.blocks, fresh.N, fresh.M)
            return fresh.weights[fresh.rows[j]]
        return self._weights_of([j], self.N[j][None], self.M[j][None])[0]

    def _weights_of(self, blocks: list[int], n: np.ndarray, m: np.ndarray) -> np.ndarray:
        """``W0 + scale * N @ M`` of ``blocks``, ascending, from their
        stacked factors n (T, ..., H, r) and m (T, ..., r, H): one stacked
        product, each of whose matrices has the bytes of its block's own,
        then W0 added in place (a view while the blocks are consecutive)."""
        w = n @ m
        if self.scale != 1.0:
            w *= self.scale
        lo, hi = blocks[0], blocks[-1] + 1
        w0 = self._W0[lo:hi] if hi - lo == len(blocks) else self._W0[blocks]
        w += w0 if w.ndim == 3 else w0[:, None]
        w.setflags(write=False)
        return w

    def _weight(self, j: int) -> np.ndarray:
        w = self._weights[j]
        if w is None:
            w = self._weights[j] = self.effective_weight(j)
        return w

    # ---- forward / loss / backward -----------------------------------------

    def prefix(self, X: np.ndarray | Activations, k: int) -> Activations:
        """The activations entering block k, with forward's arithmetic.

        X holds features, or ``Activations`` this net accepts that enter a
        block up to k, from which the chain continues.
        """
        if not 0 <= k <= self.num_blocks:
            raise ValueError(f"prefix boundary {k} is outside 0..{self.num_blocks}")
        if self.clients is not None:
            raise ValueError("a net with a client axis computes no prefix")
        a = self._rows_through(*self._entry(X, k), k)
        a.setflags(write=False)
        return Activations(k, a, self._base, self._changed_at[:k])

    def _rows_through(self, a: np.ndarray, start: int, embed: bool, stop: int) -> np.ndarray:
        """The activations entering block ``stop`` of rows ``a`` that enter
        block ``start``, features still to embed when ``embed``, on a net
        with no client axis.

        The rows go through the embedding and the blocks in chunks of
        ``ROW_CHUNK_BYTES`` (see ``_row_chunks``); each block works in the
        fresh result of its product, and the last product of each chunk
        writes into one (n, H) array. These products give each row the
        bytes of the whole set's.
        """
        if start == stop and not embed:
            return a
        out = np.empty((len(a), self.hidden_size))
        for lo, hi in _row_chunks(len(a), max(2, ROW_CHUNK_BYTES // (8 * self.hidden_size))):
            x = a[lo:hi]
            if embed:
                x = np.matmul(x, self.embed, out=out[lo:hi] if start == stop else None)
            for j in range(start, stop):
                z = np.matmul(x, self._weight(j), out=out[lo:hi] if j == stop - 1 else None)
                x = np.tanh(z, out=z)
        return out

    def _entry(self, X: np.ndarray | Activations, top: int) -> tuple[np.ndarray, int, bool]:
        """(array, the block it enters, whether it holds features the
        embedding has yet to map) of features, or of ``Activations`` this
        net accepts that enter a block up to ``top``."""
        if isinstance(X, Activations):
            if not self.accepts(X):
                raise ValueError(f"activations entering block {X.block} were not computed "
                                 f"through this net's current blocks below it")
            if X.block > top:
                raise ValueError(f"activations entering block {X.block} cannot start a pass "
                                 f"that must begin at block {top} or below")
            return X.data, X.block, False
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected features of shape (n, {self.input_dim}), got {X.shape}")
        return X, 0, True

    def forward(self, inputs: Sequence[np.ndarray | Activations], maps: MapStack):
        """Logits (C, B, K) of a group of C clients and the cache backward
        needs; builds the missing weights.

        ``inputs`` holds one input per client, all of one row count:
        features, or ``Activations`` this net accepts that enter a block up
        to the client's earliest trainable one, in the order of ``maps``,
        which holds the clients' maps in pass order. A net that has a client
        axis takes a group of its size.
        """
        if not isinstance(maps, MapStack) or isinstance(inputs, (np.ndarray, Activations)):
            raise TypeError("forward takes one input per client and a MapStack of their maps")
        inputs = tuple(inputs)
        l = self.num_blocks
        if maps.num_blocks != l:
            raise ValueError(f"allocation has {maps.num_blocks} blocks, net has {l}")
        if len(inputs) != len(maps) or self.clients not in (None, len(maps)):
            raise ValueError(f"{len(inputs)} inputs and {len(maps)} maps for a net "
                             f"with a client axis of {self.clients or 'none'}")
        arrays, starts, embed = zip(*(self._entry(x, top) for x, top in zip(inputs, maps.earliest)))
        arrays = [a @ self.embed if e else a for a, e in zip(arrays, embed)]
        if len({len(a) for a in arrays}) != 1:
            raise ValueError("the clients of a group need batches of one row count")
        if list(starts) != sorted(starts):
            raise ValueError(f"inputs entering blocks {starts} are not in the order of "
                             f"the clients' earliest trainable blocks {maps.earliest}")
        first = maps.earliest[0]
        live, a = 0, None
        acts: dict[int, np.ndarray] = {}
        block_inputs: dict[int, np.ndarray] = {}
        for j in range(starts[0], l + 1):
            # the clients whose input enters block j join the stack
            k = bisect_right(starts, j, lo=live)
            if k > live:
                # one joining client is a view: evaluation's test set is not copied
                joined = arrays[live][None] if k - live == 1 else np.stack(arrays[live:k])
                a = joined if a is None else np.concatenate([a, joined])
                live = k
            if j == l:
                break
            if j in maps.trainers:
                block_inputs[j] = a
            w = self._weight(j)
            a = a @ (w if w.ndim == 2 else w[:live])
            np.tanh(a, out=a)
            if j >= first:
                acts[j] = a
        logits = a @ self.head
        cache = ForwardCache(logits=logits, acts=acts, block_inputs=block_inputs, maps=maps,
                             base=self._base, stamp=self._changed_at)
        return logits, cache

    def backward(self, cache: ForwardCache, y: np.ndarray, loss_scale: float = 1.0) -> Gradients:
        """Adapter gradients of each client's mean cross-entropy, labels y
        (C, B), for the (block, client) pairs of the cache's maps.

        The signal is chained down through frozen blocks and stops at the
        earliest trainable one; blocks below it never matter. The cache
        must come from these frozen weights through exactly the writes this
        net holds now, so the weights it builds or keeps are the ones
        forward used. The chain runs block by block, and each trained
        block writes its clients' weight gradients ``X^T @ dz`` into one
        (P, H, H) stack, in pair order; the factor gradients of all P
        pairs are then two stacked products.
        """
        if cache.base is not self._base or cache.stamp != self._changed_at:
            raise StaleCacheError("this cache was not made through this net's current weights")
        maps = cache.maps
        first, earliest = maps.earliest[0], maps.earliest
        h, r = self.hidden_size, self.lora_rank
        if first == self.num_blocks:
            return Gradients(np.zeros((0, h, r)), np.zeros((0, r, h)), maps)
        y = cache.labels(y)
        c, b = y.shape
        _, expd, sums = cache.softmax()
        dlogits = expd / sums
        dlogits[np.arange(c)[:, None], np.arange(b), y] -= 1.0
        dlogits *= loss_scale / b

        dW = np.empty((len(maps.pair_block), h, h))
        lo = 0
        da = dlogits[:bisect_right(earliest, self.num_blocks - 1)] @ self.head.T
        for j in range(self.num_blocks - 1, first - 1, -1):
            k = len(da)
            dz = np.square(cache.acts[j][:k])
            np.subtract(1.0, dz, out=dz)
            dz *= da
            rows = maps.trainers.get(j)
            if rows is not None:
                # the clients training block j: every live one, or a gather
                take = slice(k) if len(rows) == k else rows
                np.matmul(cache.block_inputs[j][take].swapaxes(-1, -2), dz[take],
                          out=dW[lo : lo + len(rows)])
                lo += len(rows)
            if j > first:
                k = bisect_right(earliest, j - 1)
                w = self._weight(j)
                da = dz[:k] @ (w.T if w.ndim == 2 else w[:k].swapaxes(-1, -2))
        N, M = self._pair_factors(maps)
        gn, gm = dW @ M.swapaxes(-1, -2), N.swapaxes(-1, -2) @ dW
        if self.scale != 1.0:
            gn *= self.scale
            gm *= self.scale
        return Gradients(gn, gm, maps)

    def evaluate(self, X: np.ndarray | Activations, y: np.ndarray) -> tuple[float, float]:
        """(mean cross-entropy, accuracy) of a net with no client axis, with
        the bytes of a forward of one client that trains nothing; X as one
        input of ``forward``.

        The rows go through the blocks in chunks, as in ``prefix``, so that
        no block holds a product over the whole set. The head's product is
        not row-invariant on this BLAS, so it runs once over all rows.
        """
        if self.clients is not None:
            raise ValueError("a net with a client axis evaluates nothing")
        a = self._rows_through(*self._entry(X, self.num_blocks), self.num_blocks)
        y = np.asarray(y)
        if y.shape != (len(a),):
            raise ValueError(f"{y.shape} labels for {len(a)} rows")
        logits = a @ self.head
        return (float(_mean_cross_entropy(_softmax(logits), y)),
                float((logits.argmax(axis=-1) == y).mean()))


def local_train(
    net: ToyLoRANet,
    X: Sequence[np.ndarray | Activations],
    y: Sequence[np.ndarray],
    allocation: Sequence[AllocationMap],
    epochs: int,
    batch_size: int,
    lr: float,
    rng: Sequence[np.random.Generator | None] | None = None,
) -> list[Adapters]:
    """Plain SGD for a group of clients in lockstep; returns each client's
    adapter deltas.

    X, y and allocation hold one entry per client, in pass order (see
    ``MapStack``): features or ``Activations`` (see ``ToyLoRANet.forward``),
    labels of one count for every client, and its map. A client's deltas are
    theta_after - theta_before on the blocks its map trains (all-zero when
    lr is 0) and zero rows on the others. A client's batches are sequential
    unless its rng (one per client, or None for all) shuffles each of its
    epochs; a batch takes its rows of features or ``Activations``. The
    clients train a clone of ``net``, which stays as it was; each step is
    one forward and one backward of the group, whose one softmax gives the
    loss check and the gradient.
    """
    rngs = [None] * len(allocation) if rng is None else list(rng)
    X = [x if isinstance(x, Activations) else np.asarray(x, dtype=np.float64) for x in X]
    y = [np.asarray(labels) for labels in y]
    if not len(X) == len(y) == len(allocation) == len(rngs) >= 1:
        raise ValueError("a group needs one input, label set, map and rng per client")
    n = len(X[0])
    if n == 0:
        raise ValueError("local dataset is empty")
    if any(len(x) != len(labels) for x, labels in zip(X, y)):
        raise ValueError("features and labels disagree in length")
    if any(len(x) != n for x in X):
        raise ValueError("the clients of a group need datasets of one size")
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be positive")
    if not 0.0 <= lr < math.inf:
        raise ValueError(f"learning rate must be finite and nonnegative, got lr={lr}")

    maps = MapStack(tuple(allocation))
    group = net.clone()
    for epoch in range(epochs):
        perms = [np.arange(n) if r is None else r.permutation(n) for r in rngs]
        for lo in range(0, n, batch_size):
            idx = [p[lo : lo + batch_size] for p in perms]
            _, cache = group.forward([x[r] for x, r in zip(X, idx)], maps)
            labels = np.stack([yc[r] for yc, r in zip(y, idx)])
            losses = cache.losses(labels)
            bad = np.flatnonzero(~np.isfinite(losses))
            if bad.size:  # name the first client given whose loss is not finite
                raise NonFiniteLossError(f"non-finite loss {float(losses[bad[0]])} at epoch "
                                         f"{epoch}, batch start {lo}, lr {lr}")
            group._descend(group.backward(cache, labels), lr)

    l, h, r = net.num_blocks, net.hidden_size, net.lora_rank
    dN, dM = np.zeros((len(maps), l, h, r)), np.zeros((len(maps), l, r, h))
    (after_n, after_m), (before_n, before_m) = group._pair_factors(maps), net._pair_factors(maps)
    at = maps.pair_client, maps.pair_block
    dN[at] = after_n - before_n
    dM[at] = after_m - before_m
    return [Adapters(dn, dm) for dn, dm in zip(dN, dM)]
