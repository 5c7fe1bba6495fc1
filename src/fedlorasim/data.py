"""Synthetic classification data and client partitioning schemes.

The task is a Gaussian mixture: one center per class, isotropic noise. It is
deliberately easy; what matters downstream is the *distribution* of samples
across clients, which is where the heterogeneity schemes come in:

* ``iid`` deals every class round-robin so all clients look alike;
* ``pathological`` gives each client exactly k classes (label skew);
* ``dirichlet`` keeps all classes everywhere but skews the quantities;
* ``pathological_dirichlet`` composes both, the worst of the two skews.

One loop over classes builds every scheme: a class's shuffled samples go to
its holders (the clients dealt that class under label skew, else every
client) by an equal ``np.array_split``, by largest-remainder counts of a
Dirichlet draw under quantity skew, or, for ``iid``, round-robin.
Partitions are exact: the client index lists are disjoint and their union is
the whole training set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

SCHEMES = ("iid", "pathological", "dirichlet", "pathological_dirichlet")


class PartitionError(ValueError):
    """The requested partition cannot be built from this data."""


@dataclass(frozen=True)
class LabeledData:
    """Feature matrix (n, d) float64 with integer labels (n,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"labels shape {y.shape} does not match {X.shape[0]} samples")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, indices: Sequence[int]) -> "LabeledData":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledData(self.X[idx], self.y[idx])


@dataclass(frozen=True)
class SyntheticTask:
    """Gaussian-mixture classification task description."""

    num_classes: int
    feature_dim: int
    samples_per_class: int
    noise_scale: float
    centers: np.ndarray

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.feature_dim < 1 or self.samples_per_class < 1:
            raise ValueError("feature_dim and samples_per_class must be positive")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.shape != (self.num_classes, self.feature_dim):
            raise ValueError(
                f"centers shape {centers.shape} != ({self.num_classes}, {self.feature_dim})"
            )
        for a in range(self.num_classes):
            for b in range(a + 1, self.num_classes):
                if np.array_equal(centers[a], centers[b]):
                    raise ValueError(f"class centers {a} and {b} coincide")
        object.__setattr__(self, "centers", centers)

    @classmethod
    def make(
        cls,
        num_classes: int,
        feature_dim: int,
        samples_per_class: int,
        noise_scale: float,
        center_scale: float,
        seed: int,
    ) -> "SyntheticTask":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 90001]))
        centers = rng.normal(0.0, center_scale, size=(num_classes, feature_dim))
        return cls(num_classes, feature_dim, samples_per_class, noise_scale, centers)


def generate(task: SyntheticTask, seed: int) -> tuple[LabeledData, LabeledData]:
    """Draw the dataset and split it 80/20 stratified by class.

    Deterministic in (task, seed). Both splits come back label-shuffled so
    downstream batching never sees class-sorted runs.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 90002]))
    train_X, train_y, test_X, test_y = [], [], [], []
    for c in range(task.num_classes):
        pts = task.centers[c] + rng.normal(0.0, task.noise_scale,
                                           size=(task.samples_per_class, task.feature_dim))
        n_train = int(round(0.8 * task.samples_per_class))
        train_X.append(pts[:n_train])
        train_y.append(np.full(n_train, c, dtype=np.int64))
        test_X.append(pts[n_train:])
        test_y.append(np.full(task.samples_per_class - n_train, c, dtype=np.int64))
    Xtr = np.concatenate(train_X)
    ytr = np.concatenate(train_y)
    Xte = np.concatenate(test_X)
    yte = np.concatenate(test_y)
    p = rng.permutation(len(ytr))
    q = rng.permutation(len(yte))
    return LabeledData(Xtr[p], ytr[p]), LabeledData(Xte[q], yte[q])


@dataclass(frozen=True)
class PartitionSpec:
    """How to split the training set across clients."""

    scheme: str
    num_clients: int
    seed: int
    classes_per_client: int | None = None
    alpha: float | None = None
    min_samples_per_client: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.num_clients < 1:
            raise ValueError("num_clients must be positive")
        if self.scheme in ("pathological", "pathological_dirichlet"):
            if self.classes_per_client is None or self.classes_per_client < 1:
                raise ValueError("pathological schemes need classes_per_client >= 1")
        if self.scheme in ("dirichlet", "pathological_dirichlet"):
            if self.alpha is None or self.alpha <= 0:
                raise ValueError("dirichlet schemes need alpha > 0")
        if self.min_samples_per_client < 0:
            raise ValueError("min_samples_per_client must be >= 0")


def _class_indices(y: np.ndarray) -> dict[int, np.ndarray]:
    return {int(c): np.flatnonzero(y == c) for c in np.unique(y)}


def _holders_pathological(classes: list[int], v: int, k: int, rng) -> dict[int, list[int]]:
    """Client -> class assignment: k consecutive picks from a shuffled cycle."""
    order = list(rng.permutation(classes))
    holders: dict[int, list[int]] = {c: [] for c in classes}
    for i in range(v):
        for m in range(k):
            c = order[(i * k + m) % len(order)]
            holders[c].append(i)
    return holders


def _largest_remainder_counts(p: np.ndarray, n: int) -> np.ndarray:
    """Integer counts summing to n, proportional to p (largest remainder)."""
    raw = p * n
    counts = np.floor(raw).astype(np.int64)
    short = n - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def partition(data: LabeledData, spec: PartitionSpec) -> tuple[list[LabeledData], list[list[int]]]:
    """Split ``data`` into per-client datasets plus an index manifest.

    The manifest entry for client i lists that client's row indices into
    ``data``; entries are disjoint and cover everything.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 90003]))
    v = spec.num_clients
    by_class = _class_indices(data.y)
    classes = sorted(by_class)
    num_classes = len(classes)
    label_skew = spec.scheme in ("pathological", "pathological_dirichlet")
    quantity_skew = spec.scheme in ("dirichlet", "pathological_dirichlet")

    if label_skew:
        k = spec.classes_per_client
        if k > num_classes:
            raise PartitionError(f"classes_per_client {k} exceeds {num_classes} classes")
        if k * v < num_classes:
            raise PartitionError(
                f"{v} clients x {k} classes cannot cover {num_classes} classes"
            )

    for _ in range(1000):
        assign: list[list[int]] = [[] for _ in range(v)]
        holders = (_holders_pathological(classes, v, spec.classes_per_client, rng)
                   if label_skew else dict.fromkeys(classes, range(v)))
        for ci, c in enumerate(classes):
            idx = rng.permutation(by_class[c])
            hs = holders[c]
            if quantity_skew:
                counts = _largest_remainder_counts(rng.dirichlet([spec.alpha] * len(hs)), len(idx))
                parts = np.split(idx, np.cumsum(counts)[:-1])
            elif label_skew:
                parts = np.array_split(idx, len(hs))
            else:  # iid: deal round-robin, class ci's first sample to client ci mod v
                parts = [idx[(i - ci) % v :: v] for i in hs]
            for i, part in zip(hs, parts):
                assign[i].extend(int(s) for s in part)

        sizes = [len(a) for a in assign]
        if min(sizes) < spec.min_samples_per_client:
            if quantity_skew:
                continue  # quantity skew went too far; redraw
            cid = sizes.index(min(sizes))
            raise PartitionError(
                f"client {cid} has only {sizes[cid]} samples, below the floor "
                f"{spec.min_samples_per_client} (scheme {spec.scheme} cannot resample)"
            )
        return [data.subset(a) for a in assign], assign

    raise PartitionError(
        f"could not satisfy min_samples_per_client={spec.min_samples_per_client} "
        f"after 1000 draws"
    )


def split_batches(X: np.ndarray, y: np.ndarray, batch_size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sequential mini-batches covering the data once (last one may be short)."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if len(X) == 0:
        raise ValueError("cannot batch an empty dataset")
    return [(X[s : s + batch_size], y[s : s + batch_size]) for s in range(0, len(X), batch_size)]
