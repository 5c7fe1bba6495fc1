"""Data generation and partitioning: exactness, skew shapes, determinism."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from conftest import split_batches
from fedlorasim.data import (
    LabeledData,
    PartitionError,
    PartitionSpec,
    SyntheticTask,
    generate,
    partition,
)


def small_task(**kw):
    kw.setdefault("num_classes", 10)
    kw.setdefault("feature_dim", 8)
    kw.setdefault("samples_per_class", 50)
    kw.setdefault("noise_scale", 0.5)
    kw.setdefault("center_scale", 1.0)
    kw.setdefault("seed", 0)
    return SyntheticTask.make(**kw)


def assert_exact_partition(manifest, n):
    flat = sorted(i for part in manifest for i in part)
    assert flat == list(range(n))


def test_generate_deterministic_and_stratified():
    task = small_task()
    tr1, te1 = generate(task, seed=5)
    tr2, te2 = generate(task, seed=5)
    np.testing.assert_array_equal(tr1.X, tr2.X)
    np.testing.assert_array_equal(te1.y, te2.y)
    assert len(tr1) == 10 * 40 and len(te1) == 10 * 10
    for c in range(10):
        assert (tr1.y == c).sum() == 40
        assert (te1.y == c).sum() == 10
    tr3, _ = generate(task, seed=6)
    assert np.abs(tr1.X - tr3.X).max() > 0


def test_zero_noise_collapses_classes_to_centers():
    task = small_task(noise_scale=0.0, num_classes=3, samples_per_class=5)
    tr, te = generate(task, seed=1)
    for c in range(3):
        rows = tr.X[tr.y == c]
        np.testing.assert_array_equal(rows, np.tile(task.centers[c], (len(rows), 1)))


def test_task_validation():
    with pytest.raises(ValueError):
        small_task(num_classes=1)
    with pytest.raises(ValueError):
        small_task(noise_scale=-0.1)
    centers = np.zeros((3, 4))
    with pytest.raises(ValueError, match="coincide"):
        SyntheticTask(3, 4, 5, 1.0, centers)
    with pytest.raises(ValueError):
        LabeledData(np.zeros((3, 2)), np.zeros(4, dtype=int))


def test_iid_partition_balanced_histograms():
    task = small_task(samples_per_class=100)
    tr, _ = generate(task, seed=2)
    spec = PartitionSpec(scheme="iid", num_clients=4, seed=3)
    parts, manifest = partition(tr, spec)
    assert_exact_partition(manifest, len(tr))
    global_frac = 1.0 / task.num_classes
    for part in parts:
        for c in range(task.num_classes):
            frac = (part.y == c).mean()
            assert abs(frac - global_frac) < 0.05


def test_pathological_exact_class_support():
    task = small_task()
    tr, _ = generate(task, seed=4)
    spec = PartitionSpec(scheme="pathological", num_clients=10, seed=5, classes_per_client=2)
    parts, manifest = partition(tr, spec)
    assert_exact_partition(manifest, len(tr))
    for part in parts:
        assert len(np.unique(part.y)) == 2
    # union of supports covers every class
    held = set()
    for part in parts:
        held.update(np.unique(part.y).tolist())
    assert held == set(range(10))


def test_pathological_single_class_clients():
    task = small_task()
    tr, _ = generate(task, seed=6)
    spec = PartitionSpec(scheme="pathological", num_clients=10, seed=7, classes_per_client=1)
    parts, _ = partition(tr, spec)
    for part in parts:
        assert len(np.unique(part.y)) == 1


def test_pathological_coverage_errors():
    task = small_task()
    tr, _ = generate(task, seed=8)
    with pytest.raises(PartitionError):
        partition(tr, PartitionSpec(scheme="pathological", num_clients=4, seed=0, classes_per_client=2))
    with pytest.raises(PartitionError):
        partition(tr, PartitionSpec(scheme="pathological", num_clients=4, seed=0, classes_per_client=11))


def test_dirichlet_partition_exact_and_skewed():
    task = small_task(samples_per_class=100)
    tr, _ = generate(task, seed=9)
    spec = PartitionSpec(scheme="dirichlet", num_clients=5, seed=10, alpha=0.3)
    parts, manifest = partition(tr, spec)
    assert_exact_partition(manifest, len(tr))
    sizes = np.array([len(p) for p in parts])
    assert sizes.sum() == len(tr)
    assert sizes.std() > 0


def test_dirichlet_min_floor_resampling():
    task = small_task(samples_per_class=100)
    tr, _ = generate(task, seed=11)
    spec = PartitionSpec(scheme="dirichlet", num_clients=4, seed=12, alpha=0.5,
                         min_samples_per_client=64)
    parts, _ = partition(tr, spec)
    assert min(len(p) for p in parts) >= 64
    # an impossible floor fails loudly after the retry budget
    bad = PartitionSpec(scheme="dirichlet", num_clients=4, seed=12, alpha=0.5,
                        min_samples_per_client=10**6)
    with pytest.raises(PartitionError):
        partition(tr, bad)
    # a scheme that cannot redraw names the first client below the floor
    sparse = PartitionSpec(scheme="iid", num_clients=len(tr) + 3, seed=12)
    parts, _ = partition(tr, sparse)
    first_empty = [len(p) for p in parts].index(0)
    with pytest.raises(PartitionError, match=f"client {first_empty} has only 0 samples, below the floor 1"):
        partition(tr, dataclasses.replace(sparse, min_samples_per_client=1))


def test_pathological_dirichlet_composes():
    task = small_task(samples_per_class=100)
    tr, _ = generate(task, seed=13)
    spec = PartitionSpec(scheme="pathological_dirichlet", num_clients=10, seed=14,
                         classes_per_client=3, alpha=1.0, min_samples_per_client=8)
    parts, manifest = partition(tr, spec)
    assert_exact_partition(manifest, len(tr))
    for part in parts:
        assert 1 <= len(np.unique(part.y)) <= 3
        assert len(part) >= 8


# Each scheme's manifests for 7 clients at seeds 0-4, as one sha256. The
# floor of 16 samples makes both Dirichlet schemes redraw at some seeds.
PINNED_MANIFESTS = {
    "iid": ({}, "f464c078565df8ae940f5e7927daa3ef9cfb53d5d2b2aa065d91f818ca85ed90"),
    "pathological-k2": (
        {"scheme": "pathological", "classes_per_client": 2},
        "a8b454f14370be420e8625e0adc3d8eb59122907744d1fc84b025f6b5f297241"),
    "dirichlet-a0.3": (
        {"scheme": "dirichlet", "alpha": 0.3, "min_samples_per_client": 16},
        "c68be20e73850ce85d92475d7f8da8df5e4be0548d3653deb5ac98a6aa68c61f"),
    "dirichlet-a5": (
        {"scheme": "dirichlet", "alpha": 5.0, "min_samples_per_client": 16},
        "f92fe7c469de845ad5fdc5baa1f0650a20ea5ae9380fdcbc965163285627262c"),
    "pathological_dirichlet-k3-a0.5": (
        {"scheme": "pathological_dirichlet", "classes_per_client": 3, "alpha": 0.5,
         "min_samples_per_client": 16},
        "73435d6e6956b62fb82b64dbf5689e4a75950b3987bd4077571b705e2f8b102f"),
}


@pytest.mark.parametrize("name", list(PINNED_MANIFESTS))
def test_partition_manifests_match_pinned_digests(name):
    kw, digest = PINNED_MANIFESTS[name]
    manifests = []
    for seed in range(5):
        tr, _ = generate(small_task(seed=seed), seed)
        spec = PartitionSpec(**{"scheme": "iid", **kw}, num_clients=7, seed=seed)
        manifests.append(partition(tr, spec)[1])
    assert hashlib.sha256(json.dumps(manifests).encode()).hexdigest() == digest


def test_partition_determinism():
    task = small_task()
    tr, _ = generate(task, seed=15)
    spec = PartitionSpec(scheme="dirichlet", num_clients=6, seed=16, alpha=1.0)
    _, m1 = partition(tr, spec)
    _, m2 = partition(tr, spec)
    assert m1 == m2
    _, m3 = partition(tr, PartitionSpec(scheme="dirichlet", num_clients=6, seed=17, alpha=1.0))
    assert m1 != m3


def test_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(scheme="mystery", num_clients=2, seed=0)
    with pytest.raises(ValueError):
        PartitionSpec(scheme="pathological", num_clients=2, seed=0)
    with pytest.raises(ValueError):
        PartitionSpec(scheme="dirichlet", num_clients=2, seed=0, alpha=0.0)
    with pytest.raises(ValueError):
        PartitionSpec(scheme="iid", num_clients=0, seed=0)


def test_split_batches():
    X = np.arange(20).reshape(10, 2).astype(float)
    y = np.arange(10)
    batches = split_batches(X, y, 4)
    assert [len(b[1]) for b in batches] == [4, 4, 2]
    np.testing.assert_array_equal(np.concatenate([b[1] for b in batches]), y)
    with pytest.raises(ValueError):
        split_batches(X, y, 0)
    with pytest.raises(ValueError):
        split_batches(X[:0], y[:0], 4)


def test_subset():
    d = LabeledData(np.arange(12).reshape(6, 2).astype(float), np.arange(6))
    s = d.subset([1, 3])
    np.testing.assert_array_equal(s.y, [1, 3])
    assert len(s) == 2
