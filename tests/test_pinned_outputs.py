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
forwards from cached frozen-prefix activations. The checkpoints a quick
run writes every 4 rounds are pinned too, recorded before the global
adapters, deltas and client updates became stacked ``Adapters`` arrays: the
checkpoint codec still packs one entry per block, so its bytes must not move.

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


# (strategy, aggregation, carry_forward): sha256 of checkpoints/round_0004,
# round_0008 and round_0012.json, in that order
PINNED_CHECKPOINTS = {
    ("fedpilot", "comagg", True): (
        "22b8204fd2bf5547a6a7e06498b979d7398e62175a4b33cc1e5911d82256af14",
        "54d7d9826478789d00c9f9fd3c99eba267ed1716bd064a214d974f1989ff2b76",
        "5555d4427898e322a240b035e7e862c6980918b0775e12bc155a1b9638b8ef7c",
    ),
    ("fedpilot", "comagg", False): (
        "bae9eea891bd130b4fcf530a781edeb07218c1aa07bac82c08e6548d7773fda5",
        "c7bded5953bf3a1e69530949adba8e272402cc515524a070bdc61ebd2caa2a91",
        "bb2e4fef1b81abe219f2feb9bc6fb120fee47daca16b9d6e21acc5e28d35149d",
    ),
    ("fedpilot", "comagg_fixed", True): (
        "452e7ff72a8a87ad790d1d368ffa5c15b9c5194b0c5246a221eb8c7ec4572fe2",
        "de17c28c43f50da0380dc0ea95ea4de369d9266598c101f7cf2fa1ab84045bb6",
        "c23411f58bf70cd9e2843d9190da6e2ad5e1e105fd26b474d54d2c4efc095d71",
    ),
    ("fedpilot", "fedavg", True): (
        "5cbec39abea09a19c9151a4f04a18088efd8e355053c29db6088a29d53ac7ad9",
        "bd147f40412cfdaf344caf9b4015c8e188f5d710b1e68739554858f1af0b16ea",
        "fa8f9ec1a5ebdf95b172568a225685f71e235db23359ada79fd63bb091eed4a6",
    ),
    ("fedra_random", "comagg", True): (
        "301b0864583f2342976eeec1497966707e0efcd528805e9e12d2b0598884cdf9",
        "396b04464b0d17d3a42c40610e729c590349d0e5f2536043f9d2e7bbdb63c516",
        "b87f12e7c1a9b71f40c72d47f45751b9c0fae27624d65ad86292b6a3a032102f",
    ),
    ("ms", "fedavg", True): (
        "69d61b2e6dece71bd6370a120580256b22ef643adb516578bc78e6bedd4a58cf",
        "f8b614f0c1c73ee4daea3a3030f8dad177c7ccb19c888c94b6f68948eb55c4b6",
        "ba57526158fb963cbcf37bf95e6e638271a8cba0af438837a062818e5523c1f7",
    ),
    ("full", "comagg_fixed", True): (
        "f16dd8f76693ed782a2064a6371efbd67c1dff1deb914cdcce506808c0fa75ef",
        "164f9f8c89ba7445d060c01ef784684b166971537756834499d5f12d832460ea",
        "0b6df49e7bdd13814492ade0df9455c9f87f6c5db9578eac101035bca2784615",
    ),
}


@pytest.mark.parametrize("case", list(PINNED_CHECKPOINTS),
                         ids=lambda c: f"{c[0]}-{c[1]}-cf{int(c[2])}")
def test_quick_config_checkpoints_match_pinned_digests(case, tmp_path):
    strategy, aggregation, carry_forward = case
    d = json.loads(QUICK.read_text())
    d.update(rounds=12, strategy=strategy, aggregation=aggregation,
             comagg_carry_forward=carry_forward, checkpoint_every=4)
    run_experiment(ExperimentConfig.from_dict(d), tmp_path, quiet=True)
    files = sorted((tmp_path / "checkpoints").glob("round_*.json"))
    assert [f.name for f in files] == ["round_0004.json", "round_0008.json", "round_0012.json"]
    assert tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files) == PINNED_CHECKPOINTS[case]


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
