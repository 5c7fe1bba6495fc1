"""Experiment config reading: defaults, types, bounds, and dotted-path errors."""

import json
import math
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from fedlorasim.cli import main
from fedlorasim.config import ConfigError, ExperimentConfig, load_config
from fedlorasim.simulator import run_experiment

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


def tiny_split(samples_per_class: int) -> dict:
    """configs/quick.json on two iid clients with batches of 4."""
    d = json.loads(QUICK.read_text())
    d.update(rounds=2, partition={"scheme": "iid"})
    d["clients"].update(num_clients=2, batch_size=4)
    d["data"]["samples_per_class"] = samples_per_class
    return d


@pytest.mark.parametrize("samples_per_class", [1, 2])
def test_samples_per_class_that_leave_no_test_row_are_refused(tmp_path, capsys,
                                                              samples_per_class):
    # the 80/20 split keeps round(0.8 * n) rows of each class for training,
    # so 1 or 2 leave the test set empty: round 0 averaged nothing, and the
    # run died in json.dumps on its NaN loss
    d = tiny_split(samples_per_class)
    with pytest.raises(ConfigError, match=r"^data.samples_per_class: must be >= 3"):
        ExperimentConfig.from_dict(d)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith("error: data.samples_per_class: ")
    assert not (tmp_path / "run").exists()


def test_the_fewest_samples_per_class_give_a_finite_run(tmp_path):
    # 3 keep one test row of each class
    summary = run_experiment(ExperimentConfig.from_dict(tiny_split(3)), tmp_path, quiet=True)
    rows = [json.loads(s) for s in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert len(rows) == 3 and all(math.isfinite(r["loss"]) for r in rows)
    assert summary["final_accuracy"] == rows[-1]["accuracy"]


def float_fields(cls=ExperimentConfig, path=""):
    """The dotted path of every float field, found from the type hints."""
    for f in fields(cls):
        if is_dataclass(f.type):
            yield from float_fields(f.type, f"{path}{f.name}.")
        elif f.type in (float, float | None):
            yield path + f.name


FLOAT_FIELDS = list(float_fields())


def nested(where: str, v) -> dict:
    head, _, rest = where.partition(".")
    return {head: nested(rest, v) if rest else v}


def test_every_float_field_is_found():
    assert FLOAT_FIELDS == ["lr", "model.lora_alpha", "data.noise_scale", "data.center_scale",
                            "partition.alpha", "clients.sampling_rate", "clients.capacity_margin"]


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), -10**400])
@pytest.mark.parametrize("where", FLOAT_FIELDS)
def test_non_finite_float_is_rejected_naming_its_path(where, bad):
    with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: must be finite"):
        ExperimentConfig.from_dict(nested(where, bad))


@pytest.mark.parametrize("where", FLOAT_FIELDS)
def test_simulate_rejects_infinity_before_the_run(tmp_path, capsys, where):
    raw = json.loads(QUICK.read_text())
    section, _, name = where.rpartition(".")
    (raw.setdefault(section, {}) if section else raw)[name] = float("inf")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))  # written as the JSON token Infinity
    assert "Infinity" in path.read_text()
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: must be finite")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()
