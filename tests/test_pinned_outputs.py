"""Pinned output bytes: refactors must leave the run files unchanged.

Two runs of the same code agreeing (test_09) does not show that a change
kept the old behaviour. These digests of ``metrics.jsonl`` and
``summary.json`` were recorded before the three aggregation rules were
merged into one blend loop, for ``configs/quick.json`` at 12 rounds. A
change that moves a byte of them must say why and re-record the digests.
``configs/quick.json`` has H = 16 and L = 8, so two more configs built from it
pin a wide net (H = 128, ``ms`` + ``fedavg``) and a deep one (L = 48,
``fedpilot`` + ``comagg`` under binding capacity tiers, so its lowest trained
block is far from block 0); both were recorded before the toy net started
forwards from cached frozen-prefix activations.

The digests come from numpy 2.4.6 linked against scipy-openblas 0.3.31
(DYNAMIC_ARCH, Haswell kernels) under CPython 3.11.7 on x86-64. Another
numpy or BLAS build may round differently and fail this test without any
change to the simulator.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from fedlorasim.config import ExperimentConfig
from fedlorasim.memory import naive_map, total_memory
from fedlorasim.simulator import run_experiment, toy_profile

QUICK = Path(__file__).resolve().parents[1] / "configs" / "quick.json"

# (strategy, aggregation, carry_forward): (metrics.jsonl sha256, summary.json sha256)
PINNED = {
    ("fedpilot", "comagg", True): (
        "dbaf0cf4f3e3436a03b29c30d3f078a26bedfde45cca32037275494330946bb1",
        "d1610bdb1d73ef7a5f0c18e2d12b4302e62dd8a5449629d3c2e7e7cc35962046",
    ),
    ("fedpilot", "comagg", False): (
        "c3ae38c4df6cc634cc211b5805997aac8b4c69c898e5ebf42d9ecbf4692d4a75",
        "ad91012b751cdf13ed860125cf5f78c3411da10e8567f5daf58bff5cb474848a",
    ),
    ("fedpilot", "comagg_fixed", True): (
        "387d4ad70c2d329866f6d1db2c3cf8bd441a4141816c3c25e4bb949395483f5b",
        "6d3129c7fa7ebf9e9d08ee1cbd0c8b4312b84bf5f907cb3fd70c7199beca832b",
    ),
    ("fedpilot", "fedavg", True): (
        "3343250b59e7a0997bae5ae0fd17d0b6a24a4d0ce6ba9f4fd5bf73860af85c6f",
        "432e39546b5cfc0c3b288489111a55cf1175a32623cdbfc5f444ed31da9b7c5f",
    ),
    ("fedra_random", "comagg", True): (
        "f00eb6c85446a2667194cc7c8c35fa8a2b631941a57e1a48b23d41bfcfcdac9a",
        "a537954bbc1191045490d0f3000146797c209bfa6b43723581235916d1e1eced",
    ),
    ("ms", "fedavg", True): (
        "da2054bdea4a02820bf7fa11705a68eeb59a303ba3da3981a155bf0988bcb4a8",
        "36c5800e84dfcf40de0714a1514c5a02170a11d5319f8d145f81b344a49f8e2f",
    ),
    ("full", "comagg_fixed", True): (
        "1636caf14537dbac1cbcf5b185b62bee8a443609dbf188e5e2696da2f02ee4f8",
        "1f31628e2c45ee0562bb3d96f5ed8368dc54bc73056f3579eff5aeb6abba8d42",
    ),
}


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: f"{c[0]}-{c[1]}-cf{int(c[2])}")
def test_quick_config_outputs_match_pinned_digests(case, tmp_path):
    strategy, aggregation, carry_forward = case
    d = json.loads(QUICK.read_text())
    d.update(rounds=12, strategy=strategy, aggregation=aggregation,
             comagg_carry_forward=carry_forward)
    run_experiment(ExperimentConfig.from_dict(d), tmp_path, quiet=True)
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("metrics.jsonl", "summary.json"))
    assert got == PINNED[case]


def _wide_config(d: dict) -> dict:
    d.update(rounds=6, strategy="ms", aggregation="fedavg")
    d["model"]["hidden_size"] = 128
    return d


def _deep_config(d: dict) -> dict:
    # tier u affords the last-u naive map plus 2%: no client trains the
    # whole stack, and the lowest trained block moves between rounds
    d.update(rounds=12)
    d["model"]["num_blocks"] = 48
    probe = ExperimentConfig.from_dict(d)
    profile, b = toy_profile(probe), probe.clients.batch_size
    d["clients"]["capacity_levels"] = [
        int(1.02 * total_memory(profile, naive_map(48, "ms", u), b).total_bytes)
        for u in (6, 12, 18, 24)
    ]
    return d


# name: (config builder over quick.json, (metrics.jsonl sha256, summary.json sha256))
PINNED_SHAPES = {
    "wide-h128-ms-fedavg": (_wide_config, (
        "c7dff95684f67eca5095ca9907f66a87ad703f2662160b8722c0ccbfdba95683",
        "e9ea54926359c964ff184ce9ee17ecd6ed559b323ad2fd83a7e595ac6135af37",
    )),
    "deep-l48-fedpilot-comagg": (_deep_config, (
        "24a2fbb50bb55708a6a6ab44af7fb60a310d4a00c6fa32e0b6dee4aafcae0f17",
        "bf5e46541013311636b53339e87b1bb1ae0703788e736b496610599560026916",
    )),
}


@pytest.mark.parametrize("name", list(PINNED_SHAPES))
def test_wide_and_deep_outputs_match_pinned_digests(name, tmp_path):
    build, digests = PINNED_SHAPES[name]
    cfg = ExperimentConfig.from_dict(build(json.loads(QUICK.read_text())))
    run_experiment(cfg, tmp_path, quiet=True)
    got = tuple(hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
                for fname in ("metrics.jsonl", "summary.json"))
    assert got == digests
