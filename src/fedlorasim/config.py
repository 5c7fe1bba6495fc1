"""Declarative experiment configuration with path-qualified validation.

One JSON file drives a whole run: model dimensions, data generation,
partition scheme, client fleet, strategy, aggregation rule, and schedule.
Each field declares its default and its bound once, on the dataclass; one
reader (``_read``) walks the fields of every section. Validation errors name
the offending field as a dotted path so a config typo in a long file is
findable.
"""

import json
import math
import sys
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from fedlorasim.data import SCHEMES

STRATEGIES = ("fedpilot", "fedra_random", "ms", "mh", "el", "full")
AGGREGATIONS = ("comagg", "comagg_fixed", "fedavg")


class ConfigError(ValueError):
    """A config field is missing, unknown, or out of range."""


def _setting(default, check=None):
    """A field's default and its bound: ``check(value)`` returns an error or None."""
    return field(default=default, metadata={"check": check})


def _at_least(lo):
    return lambda v: None if v >= lo else f"must be >= {lo}"


def _above(lo):
    return lambda v: None if v > lo else f"must be > {lo}"


def _one_of(options):
    return lambda v: None if v in options else f"must be one of {options}"


def _positive_entries(v):
    return None if v and min(v) > 0 else "must be a nonempty list of positive ints"


def _scalar(kind: type, v, where: str):
    """``v`` as ``kind``: an int passes for a float, a bool never for a
    number, and a float must be finite."""
    if kind is float and isinstance(v, int) and not isinstance(v, bool):
        if abs(v) > sys.float_info.max:
            raise ConfigError(f"{where}: must be finite, got an int too large for a float")
        return float(v)
    if not isinstance(v, kind) or isinstance(v, bool) and kind is not bool:
        raise ConfigError(f"{where}: expected {kind.__name__}, got {type(v).__name__}")
    if kind is float and not math.isfinite(v):
        raise ConfigError(f"{where}: must be finite, got {v}")
    return v


def _value(hint, v, where: str):
    """Convert one non-null JSON value to the field type ``hint``."""
    if isinstance(hint, types.UnionType):  # ``X | None``; null never gets here
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    if is_dataclass(hint):
        return _read(hint, v, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(v, (list, tuple)):
            raise ConfigError(f"{where}: expected list, got {type(v).__name__}")
        kind = typing.get_args(hint)[0]
        return tuple(_scalar(kind, x, f"{where}[{i}]") for i, x in enumerate(v))
    return _scalar(hint, v, where)


def _read(cls, d, path: str):
    """Build section ``cls`` from dict ``d`` found at dotted ``path``.

    Absent fields and explicit nulls take the field default; unknown fields,
    wrong types and out-of-bound values fail naming the field. Types come
    from the evaluated annotations (``f.type``), so this module does not use
    postponed annotations.
    """
    where = path or "config"
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: must be a JSON object, got {type(d).__name__}")
    extra = d.keys() - {f.name for f in fields(cls)}
    if extra:
        raise ConfigError(f"{where}: unknown fields {sorted(extra)}")
    values = {}
    for f in fields(cls):
        if d.get(f.name) is None:
            continue
        full = f"{path}.{f.name}" if path else f.name
        v = _value(f.type, d[f.name], full)
        check = f.metadata.get("check")
        err = check(v) if check else None
        if err:
            raise ConfigError(f"{full}: {err}")
        values[f.name] = v
    return cls(**values)


@dataclass(frozen=True)
class ModelConfig:
    num_blocks: int = _setting(12, _at_least(1))
    hidden_size: int = _setting(16, _at_least(1))
    lora_rank: int = _setting(2, _at_least(1))
    input_dim: int = _setting(32, _at_least(1))
    num_classes: int = _setting(10, _at_least(2))
    lora_alpha: float | None = _setting(None, _above(0))


@dataclass(frozen=True)
class DataConfig:
    #: the 80/20 split keeps round(0.8 * n) rows of each class for
    #: training, which leaves no test row below 3
    samples_per_class: int = _setting(250, _at_least(3))
    noise_scale: float = _setting(1.0, _at_least(0))
    center_scale: float = _setting(1.0, _above(0))


@dataclass(frozen=True)
class PartitionConfig:
    scheme: str = _setting("iid", _one_of(SCHEMES))
    classes_per_client: int | None = _setting(None, _at_least(1))
    alpha: float | None = _setting(None, _above(0))

    def __post_init__(self):
        if self.scheme in ("pathological", "pathological_dirichlet") and self.classes_per_client is None:
            raise ConfigError(f"partition.classes_per_client: required for scheme {self.scheme!r}")
        if self.scheme in ("dirichlet", "pathological_dirichlet") and self.alpha is None:
            raise ConfigError(f"partition.alpha: required for scheme {self.scheme!r}")

    def label(self) -> str:
        if self.scheme == "iid":
            return "iid"
        if self.scheme == "pathological":
            return f"path{self.classes_per_client}"
        if self.scheme == "dirichlet":
            return f"dir{self.alpha:g}"
        return f"path{self.classes_per_client}dir{self.alpha:g}"


@dataclass(frozen=True)
class ClientConfig:
    num_clients: int = _setting(20, _at_least(1))
    batch_size: int = _setting(32, _at_least(1))
    sampling_rate: float = _setting(0.5, lambda v: None if 0 < v <= 1 else "must be in (0, 1]")
    capacity_ratio: tuple[int, ...] = _setting((4, 3, 2, 1), _positive_entries)
    capacity_margin: float = _setting(1.05, _at_least(1.0))
    capacity_levels: tuple[int, ...] | None = _setting(None, _positive_entries)
    context_bytes: int = _setting(4096, _at_least(0))

    def __post_init__(self):
        levels, ratio = self.capacity_levels, self.capacity_ratio
        if levels is not None and len(levels) != len(ratio):
            raise ConfigError(f"clients.capacity_levels: needs one entry per ratio level "
                              f"({len(ratio)}), got {len(levels)}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = _setting(0, _at_least(0))
    rounds: int = _setting(60, _at_least(0))
    strategy: str = _setting("fedpilot", _one_of(STRATEGIES))
    aggregation: str = _setting("comagg", _one_of(AGGREGATIONS))
    lr: float = _setting(0.5, _at_least(0))
    epochs: int = _setting(1, _at_least(1))
    t_ig: int = _setting(10, _at_least(1))
    t_agg: int = _setting(10, _at_least(1))
    ig_dataset_size: int = _setting(50, _at_least(1))
    allocation_every: int = _setting(1, _at_least(1))
    checkpoint_every: int = _setting(0, _at_least(0))
    comagg_carry_forward: bool = True
    label: str | None = None
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    clients: ClientConfig = field(default_factory=ClientConfig)

    def __post_init__(self):
        # the pathological schemes deal every class to some client, k classes each
        if self.partition.scheme not in ("pathological", "pathological_dirichlet"):
            return
        k, classes = self.partition.classes_per_client, self.model.num_classes
        if k > classes:
            raise ConfigError(f"partition.classes_per_client: {k} exceeds "
                              f"model.num_classes = {classes}")
        if self.clients.num_clients * k < classes:
            raise ConfigError(f"partition.classes_per_client: clients.num_clients = "
                              f"{self.clients.num_clients} clients x {k} classes cannot "
                              f"cover model.num_classes = {classes}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return _read(cls, d, "")

    def to_dict(self) -> dict:
        return asdict(self)

    def distribution_label(self) -> str:
        return self.label if self.label is not None else self.partition.label()


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return ExperimentConfig.from_dict(raw)
