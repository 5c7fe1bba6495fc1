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
run writes every 4 rounds are pinned too, recorded when the codec came to
pack each ``Adapters`` as one stacked [N, M] pair; those checkpoints hold
the numbers that the one-entry-per-block codec before it wrote.

The digests come from numpy 2.4.6 linked against scipy-openblas 0.3.31
(DYNAMIC_ARCH, Haswell kernels) under CPython 3.11.7 on x86-64. Another
numpy or BLAS build may round differently and fail this test without any
change to the simulator.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fedlorasim.allocator import KnapsackInstance, optimize_allocation
from fedlorasim.cli import main
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
    ('fedpilot', 'comagg', True): (
        "64df997a4c34dcee702bc8a36c4135a9ad4b08982d1f9927d42cedb46d54db0c",
        "49069aa5e580a8ddf1f260d83a492a3874e8c59a91679dfeebfa43367e58ec1a",
        "bff51a1661ae0b0f1b4ea31c24237615f878d701df1ba9c285f813bc6650f803",
    ),
    ('fedpilot', 'comagg', False): (
        "9c025cfe08da8dce96db7cfa45d48424a92684731d433aa1942ccb5d6494ceda",
        "6d5dc0cb714e2ea412a72db98af413e327a85e97ba9d5a192bb0867f6e38f992",
        "62d6cb98f53c7f41eec9217844f964018b122953b7fab17ae29630ae08288c71",
    ),
    ('fedpilot', 'comagg_fixed', True): (
        "9e226c5ca7be182d45f28cfacbd2e2d6c884220ac982242510c8c9f7d47f23df",
        "a2a423a342010e30b6dfd8a32c8a34109f606cdde3954c5afef4ed0f3db57ab2",
        "716cd349e08d5e6aa166caacdfaecf5d536286d856992d5a7182c5dcb9323346",
    ),
    ('fedpilot', 'fedavg', True): (
        "5a9ed8ab634781c8dad6061c86c852ef89891e886c4bc911178553fedc2e247e",
        "5bde7e705004edec25200b73fe007aa81db4a74e3f49e0d50d1148acb833b6b2",
        "b1eda22809620372837dd29bed6d48d36ea344122880968fe9e42a3f39ed4a3e",
    ),
    ('fedra_random', 'comagg', True): (
        "d9997101501852033405d438fb2c116233db854bc3896dc63eabe124efa116e6",
        "e55ecbd77f2e239446a76bcf677842c9c7417ab999dfb78cec84dee7d3328009",
        "21f58952fd95b88e38aae2d2630d04d0ade6caf1b736dd601dac088dbcd13a54",
    ),
    ('ms', 'fedavg', True): (
        "f7b81c5254f65ca748195caa47d16e663795e4247ce6815025c319dcc72ad044",
        "4fda2d49fe03ea52c8fff4f552b3ffd83245d15745a86da9a322da119379b282",
        "9f1e2930ae69b470eff2375e238497f00c54775c4aacfab5e198c46e132b2b2c",
    ),
    ('full', 'comagg_fixed', True): (
        "74db5a9ea73ee094d30e04ab173f00cd986e2f7efcb305ac7d2802e7b1046b1e",
        "74e786c94b25f9b0dfa3dcf62c74550ca2e053a53fe56e45e8e3597508b6d68b",
        "f02364998ef3e773e357db3b0bad1081964dde851ebe00fc23e227f12f0d1c70",
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


# The allocator's bytes: ``fedlorasim allocate`` on the reference ViT
# profile over a grid of capacities and value vectors at batches 1 and 496,
# and one round-shaped ``optimize_allocation`` call at L = 96. The grid
# holds empty maps (every block dearer than the budget), partial and full
# maps, a capacity past every cost, ties, zeros, and a spiky vector whose
# guard pass fires at 26.5 GB and batch 496 (block 4 alone beats the
# greedy's map). Recorded before the greedy stopped growing a map per pick.
REFERENCE_PROFILE = QUICK.parent / "reference_profile.json"
ALLOCATE_CAPACITIES = (2_650_000_000, 2_700_000_000, 9 * 10**9, 16 * 10**9, 26_500_000_000, 2**60)
ALLOCATE_VALUES = {
    "uniform": (1.0,) * 12,
    "ascending": tuple(float(j + 1) for j in range(12)),
    "descending": tuple(float(12 - j) for j in range(12)),
    "spiky": (0.0, 0.0, 0.0, 0.0, 9.0, 0.0, 0.5, 0.0, 0.25, 0.0, 0.01, 0.01),
}

# (batch, value vector): sha256 of the six capacities' stdout, in order
PINNED_ALLOCATE = {
    (1, "uniform"): "8d942a455d9a98a23d769362bebfcbca6718703e6fa9ba44992544d7d6118c96",
    (1, "ascending"): "b0c4b22d448a0a20145afa159c2ae4cdb31e9c46f75b35f256e9dbb7db0cbdb4",
    (1, "descending"): "8ade8bc65f5d66d7bb27c920f605747c2e55711a6edc0c28d176f96e38d196de",
    (1, "spiky"): "933d0e9776d819e46361754396967fd05aa74f56ac068287d721acde959922e2",
    (496, "uniform"): "e7738c2a23055f7ee71a6d8708981ae6caa55ba5ee6a8b997c464373412d1ab4",
    (496, "ascending"): "534e082799e772c9d3245d24fde0a3146048c218dd9fa016c4b4438ee6fd76d1",
    (496, "descending"): "dc158be7fe3b12849835f1442970305afc2a7a10b190b20383ef135082348464",
    (496, "spiky"): "c21fe350b43621104c76a6ed38ef2c8682c093369765dba00aa03094e0b552c8",
}


@pytest.mark.parametrize("case", list(PINNED_ALLOCATE), ids=lambda c: f"b{c[0]}-{c[1]}")
def test_allocate_outputs_match_pinned_digests(case, capsys):
    batch, name = case
    out = []
    for capacity in ALLOCATE_CAPACITIES:
        rc = main(["allocate", "--profile", str(REFERENCE_PROFILE), "--capacity", str(capacity),
                   "--values", ",".join(map(repr, ALLOCATE_VALUES[name])), "--batch", str(batch)])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, ""), capacity
        out.append(captured.out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == PINNED_ALLOCATE[case]


def test_allocate_infeasible_capacity_error_is_pinned(capsys):
    rc = main(["allocate", "--profile", str(REFERENCE_PROFILE), "--capacity", "2600000000",
               "--values", ",".join(["1.0"] * 12), "--batch", "496"])
    assert rc == 1
    assert capsys.readouterr() == (
        "", "error: fixed footprint 2627916288 B exceeds capacity 2600000000 B\n")


def deep_round_instances() -> list[KnapsackInstance]:
    """Five instances of a ``deep-knapsack``-shaped round (toy profile, L = 96,
    H = 16, batch 32): one per capacity tier (the last-u map plus 2%, u in
    12, 24, 36, 48) with skewed random values, and a fifth at the top tier
    whose one valuable shallow block fires the guard pass."""
    d = json.loads(QUICK.read_text())
    d["model"].update(num_blocks=96, hidden_size=16, input_dim=32, num_classes=10)
    d["clients"]["batch_size"] = 32
    cfg = ExperimentConfig.from_dict(d)
    profile, b = toy_profile(cfg), cfg.clients.batch_size
    caps = [int(1.02 * total_memory(profile, naive_map(96, "ms", u), b).total_bytes)
            for u in (12, 24, 36, 48)]
    rng = np.random.default_rng(23)
    spike = [0.001] * 96
    spike[40] = 50.0
    return ([KnapsackInstance(profile, c, b, tuple(10.0 * rng.random(96) ** 4)) for c in caps]
            + [KnapsackInstance(profile, caps[-1], b, tuple(spike))])


PINNED_DEEP_ROUND = "f7f30c29a7ca1d91eac8c072c87c3533df2a255c9ea520ace1e6663652c1a478"


def test_deep_round_allocation_matches_pinned_digest():
    results = optimize_allocation(deep_round_instances())
    # the guard pass fires on the fifth row only: it starts at block 40
    assert [r.selection_trace[0].block for r in results] == [95, 95, 95, 95, 40]
    got = hashlib.sha256(json.dumps([r.as_dict() for r in results]).encode()).hexdigest()
    assert got == PINNED_DEEP_ROUND
