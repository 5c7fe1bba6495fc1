"""Experiment config reading: defaults, types, bounds, and dotted-path errors."""

import json
from pathlib import Path

import pytest

from fedlorasim.cli import main
from fedlorasim.config import ConfigError, ExperimentConfig, load_config

QUICK = Path(__file__).resolve().parent.parent / "configs" / "quick.json"


def test_empty_dict_reads_as_all_defaults():
    assert ExperimentConfig.from_dict({}) == ExperimentConfig()


def test_null_reads_as_the_default():
    cfg = ExperimentConfig.from_dict({
        "rounds": None, "label": None, "model": {"num_blocks": None},
        "clients": None, "partition": {"scheme": None},
    })
    assert cfg == ExperimentConfig()


def test_int_is_accepted_for_a_float():
    cfg = ExperimentConfig.from_dict({"lr": 1, "data": {"noise_scale": 0},
                                      "clients": {"sampling_rate": 1}})
    assert cfg.lr == 1.0 and isinstance(cfg.lr, float)
    assert isinstance(cfg.data.noise_scale, float)
    assert isinstance(cfg.clients.sampling_rate, float)


def test_lists_become_tuples():
    cfg = ExperimentConfig.from_dict({"clients": {"capacity_ratio": [1, 1],
                                                  "capacity_levels": [50, 60]}})
    assert cfg.clients.capacity_ratio == (1, 1)
    assert cfg.clients.capacity_levels == (50, 60)


@pytest.mark.parametrize("d, where", [
    # a section that is not a JSON object
    ({"model": 5}, "model"),
    ({"data": [1]}, "data"),
    ({"partition": "iid"}, "partition"),
    ({"clients": True}, "clients"),
    # unknown fields
    ({"bogus": 1}, "config"),
    ({"model": {"layers": 3}}, "model"),
    # wrong types; a bool is never a number, not even inside a list
    ({"seed": "0"}, "seed"),
    ({"rounds": 2.5}, "rounds"),
    ({"epochs": True}, "epochs"),
    ({"comagg_carry_forward": 1}, "comagg_carry_forward"),
    ({"clients": {"capacity_ratio": [4, True]}}, r"clients.capacity_ratio\[1\]"),
    ({"clients": {"capacity_levels": [True, 2, 3, 4]}}, r"clients.capacity_levels\[0\]"),
    ({"clients": {"capacity_levels": [1.5, 2, 3, 4]}}, r"clients.capacity_levels\[0\]"),
    ({"clients": {"capacity_ratio": 4}}, "clients.capacity_ratio"),
    # out-of-range values
    ({"rounds": -1}, "rounds"),
    ({"strategy": "warp_drive"}, "strategy"),
    ({"model": {"num_classes": 1}}, "model.num_classes"),
    ({"model": {"lora_alpha": 0}}, "model.lora_alpha"),
    ({"data": {"center_scale": 0}}, "data.center_scale"),
    ({"partition": {"scheme": "zipf"}}, "partition.scheme"),
    ({"clients": {"sampling_rate": 1.5}}, "clients.sampling_rate"),
    ({"clients": {"capacity_margin": 0.9}}, "clients.capacity_margin"),
    ({"clients": {"capacity_ratio": []}}, "clients.capacity_ratio"),
    ({"clients": {"capacity_levels": [0, 1, 2, 3]}}, "clients.capacity_levels"),
    # rules that span fields
    ({"partition": {"scheme": "pathological"}}, "partition.classes_per_client"),
    ({"partition": {"scheme": "dirichlet"}}, "partition.alpha"),
    ({"partition": {"scheme": "pathological_dirichlet", "alpha": 0.5}},
     "partition.classes_per_client"),
    ({"clients": {"capacity_levels": [1, 2, 3]}}, "clients.capacity_levels"),
])
def test_bad_field_is_rejected_naming_its_path(d, where):
    with pytest.raises(ConfigError, match=rf"^{where}: "):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize("d", [
    {"partition": {"scheme": "pathological", "classes_per_client": 2}},
    {"partition": {"scheme": "pathological_dirichlet", "classes_per_client": 2, "alpha": 0.5}},
    {"clients": {"capacity_ratio": [1, 1], "capacity_levels": [10, 20]}},
])
def test_cross_field_rules_accept_complete_settings(d):
    ExperimentConfig.from_dict(d)


def test_quick_config_round_trips_through_to_dict():
    cfg = load_config(QUICK)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize("d, where", [
    ({"model": 5}, "model"),
    ({"clients": {"capacity_levels": [True, 2, 3, 4]}}, "clients.capacity_levels[0]"),
])
def test_simulate_rejects_bad_config_without_a_traceback(tmp_path, capsys, d, where):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()
