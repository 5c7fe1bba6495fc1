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

All byte quantities are exact Python ints. Unit helpers use decimal
conventions (MB = 1e6 bytes, GB = 1e9 bytes), which is how GPU vendors and
the reference measurements report sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

MB = 10**6
GB = 10**9

#: Framework/runtime context in MB observed on the reference ViT-Base setup,
#: keyed by hardware capacity level (1 = smallest card).
VIT_CONTEXT_MB_BY_LEVEL = {1: 380, 2: 2280, 3: 4170, 4: 5800}

NAIVE_KINDS = ("ms", "mh", "el", "full")


class ProfileValidationError(ValueError):
    """A ModelProfile field is out of range or inconsistent."""


_ACT_FIELDS = ("static_act_per_sample", "dynamic_act_per_sample")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_ints(name: str, v) -> None:
    """Field ``name`` holds a plain int, or a list of them for activation fields."""
    if name in _ACT_FIELDS:
        if not isinstance(v, (list, tuple)) or not all(_is_int(x) for x in v):
            raise ProfileValidationError(f"{name} must be a list of ints, got {v!r}")
    elif not _is_int(v):
        raise ProfileValidationError(f"{name} must be an int, got {v!r}")


class MapMismatchError(ValueError):
    """An allocation map does not fit the profile it is used with."""


@dataclass(frozen=True)
class AllocationMap:
    """Binary choice of which blocks carry trainable adapters.

    Immutable; ``bits[j]`` is True when block j (0-based, block 0 closest to
    the input) trains its adapter this round.
    """

    bits: tuple[bool, ...]

    def __post_init__(self):
        if len(self.bits) == 0:
            raise ValueError("allocation map needs at least one block")
        object.__setattr__(self, "bits", tuple(bool(b) for b in self.bits))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "AllocationMap":
        return cls(tuple(bool(b) for b in bits))

    @classmethod
    def from_indices(cls, num_blocks: int, indices: Iterable[int]) -> "AllocationMap":
        idx = set(indices)
        bad = [j for j in idx if not 0 <= j < num_blocks]
        if bad:
            raise ValueError(f"block indices out of range [0, {num_blocks}): {sorted(bad)}")
        return cls(tuple(j in idx for j in range(num_blocks)))

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
        return sum(self.bits)

    @property
    def trainable_indices(self) -> tuple[int, ...]:
        return tuple(j for j, b in enumerate(self.bits) if b)

    @property
    def earliest(self) -> int | None:
        """Index of the first trainable block, or None if nothing trains."""
        for j, b in enumerate(self.bits):
            if b:
                return j
        return None

    def with_block(self, j: int) -> "AllocationMap":
        if not 0 <= j < len(self.bits):
            raise ValueError(f"block {j} out of range [0, {len(self.bits)})")
        bits = list(self.bits)
        bits[j] = True
        return AllocationMap(tuple(bits))

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
            if not _is_int(v) or v < 1:
                raise ProfileValidationError(f"{name} must be a positive int, got {v!r}")
        for name in ("optimizer_states", "frozen_param_bytes", "lora_param_count_per_block", "context_bytes"):
            v = getattr(self, name)
            if not _is_int(v) or v < 0:
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


def _check_batch(batch: int) -> None:
    if not _is_int(batch) or batch < 1:
        raise ValueError(f"batch must be a positive int, got {batch!r}")


def total_memory(profile: ModelProfile, amap: AllocationMap, batch: int) -> MemoryBreakdown:
    """Peak training memory for one client under a given allocation map.

    Dynamic activations are billed only for trainable blocks. Static
    activations are billed for every block from the earliest trainable one to
    the top of the stack, since backprop still traverses frozen blocks there.
    An empty map costs parameters plus context only.
    """
    profile.check_map(amap)
    _check_batch(batch)
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
    _check_batch(batch)
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


def marginal_weights(profile: ModelProfile, batch: int, first: int | None) -> list[int]:
    """Every block's marginal weight at once, for maps whose earliest block is ``first``.

    A block's price depends on the current map only through its earliest
    trainable block, so one vector prices every candidate: entry j equals
    ``marginal_weight(profile, m, j, batch)`` for every map m with
    ``m.earliest == first`` and j not in m. ``first=None`` is the empty map,
    where entry j is the full footprint of the singleton {j}. Entries for
    blocks already in m carry no meaning.
    """
    _check_batch(batch)
    l = profile.num_blocks
    if first is not None and not (_is_int(first) and 0 <= first < l):
        raise ValueError(f"first must be None or a block in [0, {l}), got {first!r}")
    eta = profile.bytes_per_elem
    scale = batch * eta
    opt = profile.optimizer_states * eta * profile.lora_param_count_per_block
    dyn = profile.dynamic_act_per_sample
    tail = profile.static_tail_elems
    if first is None:
        fixed = profile.param_bytes + profile.context_bytes + opt
        return [fixed + scale * (dyn[j] + tail[j]) for j in range(l)]
    cut = tail[first]
    return [opt + scale * (dyn[j] + tail[j] - cut) if j < first else opt + scale * dyn[j]
            for j in range(l)]


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
    l, h, t, r = 12, 768, 197, 16
    if context_bytes is None:
        context_bytes = VIT_CONTEXT_MB_BY_LEVEL[4] * MB
    static = transformer_static_elems(t, h)
    dynamic = transformer_dynamic_elems(t, h, r)
    return ModelProfile(
        num_blocks=l,
        hidden_size=h,
        seq_len=t,
        lora_rank=r,
        bytes_per_elem=4,
        optimizer_states=3,
        frozen_param_bytes=86_389_248 * 4,
        lora_param_count_per_block=2 * 2 * h * r,
        static_act_per_sample=(static,) * l,
        dynamic_act_per_sample=(dynamic,) * l,
        context_bytes=context_bytes,
    )
