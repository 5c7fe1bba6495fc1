"""Command-line entry points: argument handling, outputs, exit codes."""

import json

import pytest

from fedlorasim.cli import main
from fedlorasim.memory import (
    profile_from_config,
    reference_vit_profile,
    transformer_dynamic_elems,
    transformer_static_elems,
)


VIT_PROFILE = {
    "num_blocks": 12,
    "hidden_size": 768,
    "seq_len": 197,
    "lora_rank": 16,
    "bytes_per_elem": 4,
    "optimizer_states": 3,
    "frozen_param_count": 86_389_248,
    "context_bytes": 2280 * 10**6,
}


def small_config(tmp_path, **overrides):
    cfg = {
        "seed": 5,
        "rounds": 2,
        "model": {"num_blocks": 4, "hidden_size": 8, "lora_rank": 2,
                  "input_dim": 10, "num_classes": 5},
        "data": {"samples_per_class": 40},
        "clients": {"num_clients": 4, "batch_size": 16, "sampling_rate": 1.0},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def write_profile(tmp_path, payload=None):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(payload or VIT_PROFILE))
    return path


def test_profile_from_config_generates_activation_lists():
    p = profile_from_config(VIT_PROFILE)
    ref = reference_vit_profile(context_bytes=2280 * 10**6)
    assert p == ref
    assert p.static_act_per_sample[0] == transformer_static_elems(197, 768)
    assert p.dynamic_act_per_sample[0] == transformer_dynamic_elems(197, 768, 16)


def test_profile_from_config_accepts_explicit_lists():
    d = dict(VIT_PROFILE)
    d["static_act_per_sample"] = list(range(1, 13))
    d["dynamic_act_per_sample"] = [5] * 12
    p = profile_from_config(d)
    assert p.static_act_per_sample == tuple(range(1, 13))
    assert p.dynamic_act_per_sample == (5,) * 12


def test_profile_from_config_rejects_bad_input():
    from fedlorasim.memory import ProfileValidationError

    with pytest.raises(ProfileValidationError, match="missing"):
        profile_from_config({"num_blocks": 12})
    with pytest.raises(ProfileValidationError, match="unknown"):
        profile_from_config({**VIT_PROFILE, "bogus": 1})
    with pytest.raises(ProfileValidationError, match="not both"):
        profile_from_config({**VIT_PROFILE, "frozen_param_bytes": 4})
    no_frozen = {k: v for k, v in VIT_PROFILE.items() if k != "frozen_param_count"}
    with pytest.raises(ProfileValidationError, match="frozen_param"):
        profile_from_config(no_frozen)
    # values are never truncated or coerced: floats, bools and float lists fail
    # naming the field
    for field, value in [("num_blocks", 12.9), ("bytes_per_elem", True),
                         ("static_act_per_sample", [2.7, 3.9]),
                         ("dynamic_act_per_sample", 5), ("context_bytes", "0")]:
        with pytest.raises(ProfileValidationError, match=field):
            profile_from_config({**VIT_PROFILE, field: value})


def test_memory_subcommand_rejects_float_profile_field(tmp_path, capsys):
    profile = write_profile(tmp_path, {**VIT_PROFILE, "num_blocks": 12.9})
    rc = main(["memory", "--profile", str(profile), "--map", "0" * 12, "--batch", "4"])
    assert rc == 1
    assert "num_blocks" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [[1, 2], "vit", 12])
def test_memory_subcommand_rejects_non_object_profile(tmp_path, capsys, payload):
    profile = write_profile(tmp_path, payload)
    rc = main(["memory", "--profile", str(profile), "--map", "0" * 12, "--batch", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {profile}: profile config must be a JSON object")


def test_memory_subcommand_names_profile_with_invalid_json(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text("{bad json")
    rc = main(["memory", "--profile", str(profile), "--map", "0" * 12, "--batch", "4"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {profile}: not valid JSON")


def test_memory_subcommand_prints_breakdown(tmp_path, capsys):
    profile = write_profile(tmp_path)
    rc = main(["memory", "--profile", str(profile), "--map", "000000111111",
               "--batch", "496"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["map"] == "000000111111"
    assert out["trainable_blocks"] == [6, 7, 8, 9, 10, 11]
    assert out["total_bytes"] == 23_441_766_144
    assert out["total_gb"] == pytest.approx(23.44, abs=0.01)


def test_allocate_subcommand_with_inline_values(tmp_path, capsys):
    profile = write_profile(tmp_path)
    rc = main(["allocate", "--profile", str(profile), "--capacity", str(24 * 10**9),
               "--values", ",".join(["1.0"] * 12), "--batch", "496"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["map"] == "000000111111"
    assert out["memory"]["total_bytes"] <= 24 * 10**9
    assert len(out["selection_trace"]) == 6


def test_allocate_subcommand_with_values_file(tmp_path, capsys):
    profile = write_profile(tmp_path)
    values = tmp_path / "values.json"
    values.write_text(json.dumps([1.0] * 12))
    rc = main(["allocate", "--profile", str(profile), "--capacity", str(24 * 10**9),
               "--values", str(values), "--batch", "496"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["map"] == "000000111111"


@pytest.mark.parametrize("bad, shown", [(True, "values[0] must be a number, got True"),
                                         ("2", "values[0] must be a number, got '2'")])
def test_allocate_values_file_rejects_non_numbers(tmp_path, capsys, bad, shown):
    profile = write_profile(tmp_path)
    values = tmp_path / "values.json"
    values.write_text(json.dumps([bad] + [1.0] * 11))
    rc = main(["allocate", "--profile", str(profile), "--capacity", str(24 * 10**9),
               "--values", str(values), "--batch", "496"])
    assert rc == 1
    assert shown in capsys.readouterr().err


def test_allocate_values_file_with_invalid_json(tmp_path, capsys):
    profile = write_profile(tmp_path)
    values = tmp_path / "values.json"
    values.write_text("[1.0, ")
    rc = main(["allocate", "--profile", str(profile), "--capacity", str(24 * 10**9),
               "--values", str(values), "--batch", "496"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {values}: not valid JSON")


def test_allocate_values_spec_neither_file_nor_list(tmp_path, capsys):
    profile = write_profile(tmp_path)
    rc = main(["allocate", "--profile", str(profile), "--capacity", str(24 * 10**9),
               "--values", str(tmp_path / "nosuch.json"), "--batch", "496"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "nosuch.json" in err and "neither an existing file nor" in err


def test_allocate_infeasible_capacity_is_an_error(tmp_path, capsys):
    profile = write_profile(tmp_path)
    rc = main(["allocate", "--profile", str(profile), "--capacity", "1000",
               "--values", ",".join(["1.0"] * 12), "--batch", "496"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_subcommand_writes_run_dir(tmp_path, capsys):
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["out_dir"] == str(out)
    assert payload["seed"] == 5
    assert (out / "metrics.jsonl").exists()
    assert (out / "summary.json").exists()
    assert (out / "partition.json").exists()
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 3  # round 0 plus two training rounds


def test_simulate_seed_override(tmp_path, capsys):
    cfg = small_config(tmp_path)
    rc = main(["simulate", "--config", str(cfg), "--seed", "9",
               "--out", str(tmp_path / "run9")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 9
    summary = json.loads((tmp_path / "run9" / "summary.json").read_text())
    assert summary["seed"] == 9 and summary["config"]["seed"] == 9


def test_simulate_negative_seed_override_names_the_field(tmp_path, capsys):
    # the override meets the config's bound before the run directory exists
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    rc = main(["simulate", "--config", str(cfg), "--seed", "-1", "--out", str(out)])
    assert rc == 1
    assert "error: seed: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_bad_config_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"strategy": "warp_drive"}))
    rc = main(["simulate", "--config", str(path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_missing_config_file(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "absent.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_report_subcommand_end_to_end(tmp_path, capsys):
    cfg = small_config(tmp_path)
    for seed in (1, 2):
        assert main(["simulate", "--config", str(cfg), "--seed", str(seed),
                     "--out", str(tmp_path / "runs" / f"s{seed}")]) == 0
    capsys.readouterr()
    rc = main(["report", "--in", str(tmp_path / "runs"), "--out", str(tmp_path / "rep")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["groups"][0]["seeds"] == [1, 2]
    assert (tmp_path / "rep" / "tables" / "accuracy.csv").exists()


def test_report_empty_input_is_an_error(tmp_path, capsys):
    (tmp_path / "runs").mkdir()
    rc = main(["report", "--in", str(tmp_path / "runs"), "--out", str(tmp_path / "rep")])
    assert rc == 1
    assert "no metrics.jsonl" in capsys.readouterr().err


def test_bad_bitstring_is_an_error(tmp_path, capsys):
    profile = write_profile(tmp_path)
    rc = main(["memory", "--profile", str(profile), "--map", "0101x1",
               "--batch", "4"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
