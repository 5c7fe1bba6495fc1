"""Analytical GPU-memory model for partial low-rank fine-tuning.

The peak training footprint of an l-block model with per-block LoRA adapters
decomposes into four parts: parameters, optimizer state, activations, and a
fixed framework context. Parameters and context do not depend on which blocks
train. Optimizer state is proportional to the number of trainable blocks.
Activations split into two kinds per block:

* dynamic tensors are needed only if the block itself trains (its adapter
  gradients consume them), so freezing a block discards them;
* static tensors are needed by backpropagation through the block whenever any
  *earlier-or-equal* block trains, because the gradient signal must still flow
  through frozen blocks on its way down. The static bill therefore runs from
  the earliest trainable block to the end of the stack.

This asymmetry is why training the last u blocks is much cheaper than
training the first u, and it is what the allocator downstream exploits.

Each question has one scalar reference and one array form over int64:
``total_memory`` prices one map and ``map_costs`` a (k, l) matrix of maps;
``marginal_weight`` prices adding one block to one map and
``marginal_weights`` every block for every earliest block, as one
(l+1, l) table. Row l of that table, like an all-zero row of ``map_costs``,
is the empty map. Array costs stay below ``EXACT_COST_LIMIT``.

The scalar references work in exact Python ints. Unit helpers use decimal
conventions (MB = 1e6 bytes, GB = 1e9 bytes), which is how GPU vendors and
the reference measurements report sizes.
"""

from __future__ import annotations

import math
import operator
from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

MB = 10**6
GB = 10**9

#: Framework/runtime context in MB observed on the reference ViT-Base setup,
#: keyed by hardware capacity level (1 = smallest card).
VIT_CONTEXT_MB_BY_LEVEL = {1: 380, 2: 2280, 3: 4170, 4: 5800}

NAIVE_KINDS = ("ms", "mh", "el", "full")

#: Byte costs priced as arrays stay below this: int64 holds each of them,
#: and float64 holds each exactly.
EXACT_COST_LIMIT = 2**53

#: Types an allocation bit may have; bool is an int.
_BIT_TYPES = (int, np.integer, np.bool_)


class ProfileValidationError(ValueError):
    """A ModelProfile field is out of range or inconsistent."""


_ACT_FIELDS = ("static_act_per_sample", "dynamic_act_per_sample")


def is_int(v) -> bool:
    """A Python int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def finite_nonneg(values: Sequence[float]) -> bool:
    """Whether every one of ``values`` is a finite number >= 0 (True when
    there are none), in three C-level passes: a NaN makes the sum NaN, and
    min and max catch every other bad value."""
    if not values:
        return True
    total = sum(values)
    return total == total and min(values) >= 0 and max(values) < math.inf


def _check_ints(name: str, v) -> None:
    """Field ``name`` holds a plain int, or a list of them for activation fields."""
    if name in _ACT_FIELDS:
        if not isinstance(v, (list, tuple)) or not all(is_int(x) for x in v):
            raise ProfileValidationError(f"{name} must be a list of ints, got {v!r}")
    elif not is_int(v):
        raise ProfileValidationError(f"{name} must be an int, got {v!r}")


class MapMismatchError(ValueError):
    """An allocation map does not fit the profile it is used with."""


@dataclass(frozen=True)
class AllocationMap:
    """Binary choice of which blocks carry trainable adapters.

    Immutable; ``bits[j]`` is True when block j (0-based, block 0 closest to
    the input) trains its adapter this round. Each bit must be 0 or 1 (a
    bool, or a Python or numpy int). The trainable indices and the earliest
    trainable block (None if nothing trains) are computed once, when the map
    is made.
    """

    bits: tuple[bool, ...]
    trainable_indices: tuple[int, ...] = field(init=False, repr=False, compare=False)
    earliest: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bits = tuple(self.bits)
        if not bits:
            raise ValueError("allocation map needs at least one block")
        # Python bools pass in one set operation and Python ints in two;
        # anything else (numpy scalars, or a bad entry to name) is checked
        # one by one
        types = set(map(type, bits))
        if types != {bool}:
            if not (types <= {bool, int} and set(bits) <= {0, 1}):
                for j, b in enumerate(bits):
                    if not isinstance(b, _BIT_TYPES) or (b != 0 and b != 1):
                        raise ValueError(f"allocation bit {j} must be 0 or 1, got {b!r}")
            bits = tuple(map(bool, bits))
        # through a list: a tuple built from an iterator grows by resizing,
        # and resizing one per greedy pick fragments Python's small-object
        # pools (peak RSS +7% on the deep-knapsack benchmark)
        indices = tuple(list(compress(range(len(bits)), bits)))
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "trainable_indices", indices)
        object.__setattr__(self, "earliest", indices[0] if indices else None)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "AllocationMap":
        if isinstance(bits, np.ndarray):
            bits = bits.tolist()  # numpy ints and bools become Python ones
        return cls(tuple(bits))

    @classmethod
    def from_indices(cls, num_blocks: int, indices: Iterable[int]) -> "AllocationMap":
        idx = set(indices)
        for j in idx:
            if not isinstance(j, (int, np.integer)) or isinstance(j, (bool, np.bool_)):
                raise ValueError(f"block indices must be ints, got {j!r}")
        bad = [j for j in idx if not 0 <= j < num_blocks]
        if bad:
            raise ValueError(f"block indices out of range [0, {num_blocks}): {sorted(bad)}")
        bits = [False] * num_blocks
        for j in idx:
            bits[j] = True
        return cls(tuple(bits))

    @classmethod
    def empty(cls, num_blocks: int) -> "AllocationMap":
        return cls((False,) * num_blocks)

    @classmethod
    def full(cls, num_blocks: int) -> "AllocationMap":
        return cls((True,) * num_blocks)

    @classmethod
    def from_bitstring(cls, s: str) -> "AllocationMap":
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"bitstring must be nonempty over {{0,1}}, got {s!r}")
        return cls(tuple(c == "1" for c in s))

    def to_bitstring(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    @property
    def num_blocks(self) -> int:
        return len(self.bits)

    @property
    def count(self) -> int:
        return len(self.trainable_indices)

    def with_block(self, j: int) -> "AllocationMap":
        """This map with block j trainable too. Its other bits and indices
        were checked when this map was made, so only j is new: the grown
        map is built from them without reading all L bits again, once per
        greedy pick."""
        j = operator.index(j)
        if not 0 <= j < len(self.bits):
            raise ValueError(f"block {j} out of range [0, {len(self.bits)})")
        if self.bits[j]:
            return self
        bits = list(self.bits)
        bits[j] = True
        indices = list(self.trainable_indices)
        insort(indices, j)
        grown = object.__new__(AllocationMap)
        object.__setattr__(grown, "bits", tuple(bits))
        object.__setattr__(grown, "trainable_indices", tuple(indices))
        object.__setattr__(grown, "earliest", indices[0])
        return grown

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class ModelProfile:
    """Static memory description of one model architecture.

    Activation entries are element counts per sample per block; byte costs
    come out as count * batch * bytes_per_elem. ``optimizer_states`` is the
    per-parameter multiplier for gradient/optimizer bookkeeping of trainable
    adapter weights (3 covers gradient plus two moment buffers).
    """

    num_blocks: int
    hidden_size: int
    seq_len: int
    lora_rank: int
    bytes_per_elem: int
    optimizer_states: int
    frozen_param_bytes: int
    lora_param_count_per_block: int
    static_act_per_sample: tuple[int, ...]
    dynamic_act_per_sample: tuple[int, ...]
    context_bytes: int

    def __post_init__(self):
        for name in _ACT_FIELDS:
            _check_ints(name, getattr(self, name))
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("num_blocks", "hidden_size", "seq_len", "lora_rank", "bytes_per_elem"):
            v = getattr(self, name)
            if not is_int(v) or v < 1:
                raise ProfileValidationError(f"{name} must be a positive int, got {v!r}")
        for name in ("optimizer_states", "frozen_param_bytes", "lora_param_count_per_block", "context_bytes"):
            v = getattr(self, name)
            if not is_int(v) or v < 0:
                raise ProfileValidationError(f"{name} must be a nonnegative int, got {v!r}")
        for name in _ACT_FIELDS:
            seq = getattr(self, name)
            if len(seq) != self.num_blocks:
                raise ProfileValidationError(
                    f"{name} has {len(seq)} entries, profile has {self.num_blocks} blocks"
                )
            if any(x < 0 for x in seq):
                raise ProfileValidationError(f"{name} entries must be nonnegative")

    @cached_property
    def static_tail_elems(self) -> tuple[int, ...]:
        """static_tail_elems[i] = sum of static activation elements for blocks i..l-1.

        Length l+1; the trailing 0 makes the empty-allocation case uniform.
        """
        tail = [0] * (self.num_blocks + 1)
        for i in range(self.num_blocks - 1, -1, -1):
            tail[i] = tail[i + 1] + self.static_act_per_sample[i]
        return tuple(tail)

    @cached_property
    def _tail_array(self) -> np.ndarray:
        """``static_tail_elems`` as int64."""
        return np.array(self.static_tail_elems, dtype=np.int64)

    @cached_property
    def _dyn_array(self) -> np.ndarray:
        return np.array(self.dynamic_act_per_sample, dtype=np.int64)

    @cached_property
    def _top_elem_bytes(self) -> int:
        """Activation bytes per sample of the all-trainable map, the dearest."""
        return self.bytes_per_elem * (sum(self.dynamic_act_per_sample) + self.static_tail_elems[0])

    @cached_property
    def _fixed_bytes(self) -> int:
        """Parameters plus context: what every map pays."""
        return self.param_bytes + self.context_bytes

    @cached_property
    def _opt_bytes(self) -> int:
        """Optimizer bytes of one trainable block."""
        return self.optimizer_states * self.bytes_per_elem * self.lora_param_count_per_block

    @property
    def lora_param_bytes_per_block(self) -> int:
        return self.lora_param_count_per_block * self.bytes_per_elem

    @property
    def param_bytes(self) -> int:
        """Resident parameter bytes: frozen base plus every block's adapter.

        Adapters sit in memory for all blocks regardless of which ones train;
        only optimizer state and activations vary with the allocation.
        """
        return self.frozen_param_bytes + self.num_blocks * self.lora_param_bytes_per_block

    def check_map(self, amap: AllocationMap) -> None:
        if len(amap) != self.num_blocks:
            raise MapMismatchError(
                f"map has {len(amap)} blocks, profile has {self.num_blocks}"
            )


@dataclass(frozen=True)
class MemoryBreakdown:
    """Peak-memory estimate split by source, all in exact bytes."""

    params_bytes: int
    optimizer_bytes: int
    activation_dynamic_bytes: int
    activation_static_bytes: int
    context_bytes: int
    total_bytes: int

    @property
    def activation_bytes(self) -> int:
        return self.activation_dynamic_bytes + self.activation_static_bytes

    @property
    def total_gb(self) -> float:
        return self.total_bytes / GB

    def as_dict(self) -> dict:
        return {
            "params_bytes": self.params_bytes,
            "optimizer_bytes": self.optimizer_bytes,
            "activation_dynamic_bytes": self.activation_dynamic_bytes,
            "activation_static_bytes": self.activation_static_bytes,
            "context_bytes": self.context_bytes,
            "total_bytes": self.total_bytes,
            "total_gb": self.total_gb,
        }


def check_batch(batch: int) -> None:
    if not is_int(batch) or batch < 1:
        raise ValueError(f"batch must be a positive int, got {batch!r}")


def total_memory(profile: ModelProfile, amap: AllocationMap, batch: int) -> MemoryBreakdown:
    """Peak training memory for one client under a given allocation map.

    Dynamic activations are billed only for trainable blocks. Static
    activations are billed for every block from the earliest trainable one to
    the top of the stack, since backprop still traverses frozen blocks there.
    An empty map costs parameters plus context only.
    """
    profile.check_map(amap)
    check_batch(batch)
    eta = profile.bytes_per_elem
    params = profile.param_bytes
    trainable = amap.trainable_indices
    optimizer = profile.optimizer_states * eta * profile.lora_param_count_per_block * len(trainable)
    dyn_elems = sum(profile.dynamic_act_per_sample[j] for j in trainable)
    dynamic = batch * eta * dyn_elems
    first = amap.earliest
    static_elems = profile.static_tail_elems[first] if first is not None else 0
    static = batch * eta * static_elems
    total = params + optimizer + dynamic + static + profile.context_bytes
    return MemoryBreakdown(
        params_bytes=params,
        optimizer_bytes=optimizer,
        activation_dynamic_bytes=dynamic,
        activation_static_bytes=static,
        context_bytes=profile.context_bytes,
        total_bytes=total,
    )


def marginal_weight(profile: ModelProfile, current: AllocationMap, j: int, batch: int) -> int:
    """Exact byte increase of total_memory when block j is added to ``current``.

    For an empty current map this is the full footprint of the singleton map
    {j} (the first pick pays for parameters and context too); afterwards it is
    the optimizer increment, block j's dynamic activations, and any extension
    of the static range if j lies before the earliest already-trainable block.
    """
    profile.check_map(current)
    check_batch(batch)
    if not 0 <= j < profile.num_blocks:
        raise ValueError(f"block {j} out of range [0, {profile.num_blocks})")
    if current.bits[j]:
        raise ValueError(f"block {j} is already in the allocation map")
    first = current.earliest
    if first is None:
        return total_memory(profile, AllocationMap.from_indices(profile.num_blocks, [j]), batch).total_bytes
    eta = profile.bytes_per_elem
    weight = profile.optimizer_states * eta * profile.lora_param_count_per_block
    weight += batch * eta * profile.dynamic_act_per_sample[j]
    if j < first:
        weight += batch * eta * (profile.static_tail_elems[j] - profile.static_tail_elems[first])
    return weight


def check_exact_costs(profile: ModelProfile, batch: int) -> None:
    """Raise unless every cost of ``profile`` at ``batch`` is below
    ``EXACT_COST_LIMIT``; the all-trainable map, the dearest, bounds them all,
    and is priced here in exact Python ints from its per-sample part, which
    the profile computes once."""
    check_batch(batch)
    top = profile._fixed_bytes + profile.num_blocks * profile._opt_bytes
    top += batch * profile._top_elem_bytes
    if top >= EXACT_COST_LIMIT:
        raise ValueError(f"the all-trainable map costs {top} B; costs must stay below 2**53 B")


def marginal_weights(profile: ModelProfile, batch: int) -> np.ndarray:
    """Every block's marginal weight for every earliest block, as one (l+1, l) int64 table.

    A block's price depends on the current map only through its earliest
    trainable block, so row f prices every candidate: entry [f, j] equals
    ``marginal_weight(profile, m, j, batch)`` for every map m with
    ``m.earliest == f`` and j not in m. Row l is the empty map, as in
    ``map_costs``: entry j is the full footprint of the singleton {j}.
    Entries for blocks already in m carry no meaning.
    """
    check_exact_costs(profile, batch)
    tail = profile._tail_array
    # elements per sample: a block's dynamic ones, plus the static ones from
    # it up to the earliest block (none from a block at or above it)
    elems = profile._dyn_array + np.maximum(0, tail[:-1] - tail[:, None])
    table = profile._opt_bytes + batch * profile.bytes_per_elem * elems
    table[-1] += profile._fixed_bytes
    return table


def map_costs(profile: ModelProfile, bits, batch: int) -> np.ndarray:
    """``total_memory(...).total_bytes`` of every row of a (k, l) 0/1 matrix, as int64.

    Row i is the map whose block j trains when ``bits[i, j]`` is 1. It is
    priced in closed form: fixed bytes, optimizer bytes per trainable block,
    and per sample the dynamic elements of the trainable blocks plus the
    static ones from the earliest of them to the top. An all-zero row has
    earliest block l, where ``static_tail_elems[l] = 0``, so it costs
    parameters plus context. One call prices a whole batch of maps without
    building a map or a breakdown per row; ``total_memory`` stays the scalar
    reference.
    """
    check_exact_costs(profile, batch)
    bits = np.asarray(bits)
    l = profile.num_blocks
    if bits.ndim != 2:
        raise ValueError(f"bits must be a 2-D (maps, blocks) matrix, got shape {bits.shape}")
    if bits.shape[1] != l:
        raise MapMismatchError(f"bits has {bits.shape[1]} blocks per map, profile has {l}")
    if bits.dtype != np.bool_:
        if not np.issubdtype(bits.dtype, np.integer):
            raise ValueError(f"bits must hold bools or ints, got dtype {bits.dtype}")
        if bits.size and (bits.min() < 0 or bits.max() > 1):
            i, j = np.argwhere((bits != 0) & (bits != 1))[0]
            raise ValueError(f"bits[{i}, {j}] must be 0 or 1, got {bits[i, j]}")
        # as bools, every int dtype prices in int64 (uint64 with int64 gives float64)
        bits = bits.astype(np.bool_)
    earliest = np.where(bits.any(axis=1), bits.argmax(axis=1), l)
    elems = bits @ profile._dyn_array + profile._tail_array[earliest]
    count = bits.sum(axis=1, dtype=np.int64)
    return profile._fixed_bytes + profile._opt_bytes * count + batch * profile.bytes_per_elem * elems


def naive_map(num_blocks: int, kind: str, u: int | None = None) -> AllocationMap:
    """Fixed allocation heuristics used as baselines.

    ``ms`` trains the last u blocks (cheapest static range), ``mh`` the first
    u (most expensive), ``el`` and ``full`` train everything (``el`` differs
    only in how the caller treats clients that cannot afford it).
    """
    kind = kind.lower()
    if kind not in NAIVE_KINDS:
        raise ValueError(f"kind must be one of {NAIVE_KINDS}, got {kind!r}")
    if num_blocks < 1:
        raise ValueError("num_blocks must be positive")
    if kind in ("el", "full"):
        return AllocationMap.full(num_blocks)
    if u is None:
        raise ValueError(f"kind {kind!r} needs a block count u")
    if not 0 <= u <= num_blocks:
        raise ValueError(f"u must be in [0, {num_blocks}], got {u}")
    if kind == "ms":
        return AllocationMap.from_indices(num_blocks, range(num_blocks - u, num_blocks))
    return AllocationMap.from_indices(num_blocks, range(u))


def transformer_static_elems(seq_len: int, hidden_size: int) -> int:
    """Per-sample static activation elements of one transformer block.

    Nine sequence-by-hidden tensors (pre-norm, QKV, attention output and the
    MLP intermediates backward needs to traverse the block) plus two
    sequence-by-sequence attention maps.
    """
    return 9 * seq_len * hidden_size + 2 * seq_len * seq_len


def transformer_dynamic_elems(seq_len: int, hidden_size: int, lora_rank: int) -> int:
    """Per-sample adapter-only activation elements of one transformer block.

    Two adapter input copies and two rank-sized intermediates; needed only
    when the block's adapter actually trains.
    """
    return 2 * seq_len * hidden_size + 2 * seq_len * lora_rank


def profile_from_config(d: dict) -> ModelProfile:
    """Build a profile from a declarative JSON-style dict.

    Activation lists may be given per block or omitted, in which case they
    are generated from (seq_len, hidden_size, lora_rank) with the transformer
    formulas; same for the adapter parameter count. The frozen footprint
    comes as bytes or as a parameter count times bytes_per_elem. Every value
    must be a plain int (bools and floats are rejected); an explicit null
    reads as absent.
    """
    if not isinstance(d, dict):
        raise ProfileValidationError(f"profile config must be a JSON object, got {type(d).__name__}")
    d = {k: v for k, v in d.items() if v is not None}
    known = {
        "num_blocks", "hidden_size", "seq_len", "lora_rank", "bytes_per_elem",
        "optimizer_states", "frozen_param_bytes", "frozen_param_count",
        "lora_param_count_per_block", "static_act_per_sample",
        "dynamic_act_per_sample", "context_bytes",
    }
    extra = d.keys() - known
    if extra:
        raise ProfileValidationError(f"profile config has unknown fields: {sorted(extra)}")
    missing = {"num_blocks", "hidden_size", "seq_len", "lora_rank"} - d.keys()
    if missing:
        raise ProfileValidationError(f"profile config missing fields: {sorted(missing)}")
    for name, v in d.items():
        _check_ints(name, v)
    l, h, t, r = d["num_blocks"], d["hidden_size"], d["seq_len"], d["lora_rank"]
    eta = d.get("bytes_per_elem", 4)

    if "frozen_param_bytes" in d and "frozen_param_count" in d:
        raise ProfileValidationError(
            "give frozen_param_bytes or frozen_param_count, not both"
        )
    if "frozen_param_bytes" in d:
        frozen = d["frozen_param_bytes"]
    elif "frozen_param_count" in d:
        frozen = d["frozen_param_count"] * eta
    else:
        raise ProfileValidationError(
            "profile config needs frozen_param_bytes or frozen_param_count"
        )

    return ModelProfile(
        num_blocks=l,
        hidden_size=h,
        seq_len=t,
        lora_rank=r,
        bytes_per_elem=eta,
        optimizer_states=d.get("optimizer_states", 3),
        frozen_param_bytes=frozen,
        lora_param_count_per_block=d.get("lora_param_count_per_block", 2 * 2 * h * r),
        static_act_per_sample=d.get("static_act_per_sample", (transformer_static_elems(t, h),) * l),
        dynamic_act_per_sample=d.get("dynamic_act_per_sample",
                                     (transformer_dynamic_elems(t, h, r),) * l),
        context_bytes=d.get("context_bytes", 0),
    )


def reference_vit_profile(context_bytes: int | None = None) -> ModelProfile:
    """Memory profile of the ViT-Base configuration used for calibration.

    12 blocks, hidden 768, 197 tokens, rank-16 adapters on two attention
    projections per block (each adapter is a down/up pair, so 2*2*768*16
    trainable elements per block), fp32 everywhere. Default context is the
    largest observed runtime context.
    """
    if context_bytes is None:
        context_bytes = VIT_CONTEXT_MB_BY_LEVEL[4] * MB
    return profile_from_config({
        "num_blocks": 12, "hidden_size": 768, "seq_len": 197, "lora_rank": 16,
        "frozen_param_count": 86_389_248, "context_bytes": context_bytes,
    })
