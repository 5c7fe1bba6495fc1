"""Report generation: parsing, grouping, tables, consistency with raw logs."""

import csv
import json
import math
import re

import pytest

from fedlorasim.cli import main
from fedlorasim.config import ExperimentConfig
from fedlorasim.reporting import (
    ReportError,
    discover_runs,
    generate_report,
    load_metrics,
    load_run,
    summarize,
)
from fedlorasim.simulator import ROW_KEYS, SUMMARY_KEYS, run_experiment


def fake_run(dirpath, strategy="fedpilot", aggregation="comagg", distribution="iid",
             seed=0, rounds=3, layers=4, accuracy=None, layer_counts=None, participants=2):
    """Write a minimal plausible run directory by hand."""
    dirpath.mkdir(parents=True, exist_ok=True)
    accuracy = accuracy or [0.1 + 0.1 * t for t in range(rounds + 1)]
    rows = []
    for t in range(rounds + 1):
        counts = [0] * layers if t == 0 else (layer_counts or [participants] * layers)
        rows.append({
            "round": t,
            "accuracy": accuracy[t],
            "loss": 2.0 - 0.1 * t,
            "participants": 0 if t == 0 else participants,
            "mean_utilization": 0.0 if t == 0 else 0.8,
            "layer_counts": counts,
            "clients": [],
        })
    with open(dirpath / "metrics.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    utilization = 0.0  # as the simulator sums rows 1..T
    for row in rows[1:]:
        utilization += row["mean_utilization"]
    with open(dirpath / "summary.json", "w") as fh:
        json.dump({
            "strategy": strategy,
            "aggregation": aggregation,
            "distribution": distribution,
            "seed": seed,
            "rounds": rounds,
            "final_accuracy": accuracy[-1],
            "best_accuracy": max(accuracy),
            "final_loss": 2.0 - 0.1 * rounds,
            "mean_utilization": utilization / rounds if rounds else 0.0,
            "config": {},
        }, fh)
    return dirpath


def test_load_metrics_parses_rows(tmp_path):
    run = fake_run(tmp_path / "r")
    rows = load_metrics(run / "metrics.jsonl")
    assert len(rows) == 4
    assert rows[0]["round"] == 0 and rows[-1]["round"] == 3


def test_load_metrics_reports_line_number_for_bad_json(tmp_path):
    run = fake_run(tmp_path / "r")
    path = run / "metrics.jsonl"
    lines = path.read_text().splitlines()
    lines[2] = '{"round": 2, "accuracy":'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReportError, match=r"metrics\.jsonl:3: not valid JSON"):
        load_metrics(path)


def test_load_metrics_rejects_empty_and_nonsequential(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ReportError, match="no metrics rows"):
        load_metrics(empty)
    run = fake_run(tmp_path / "r")
    path = run / "metrics.jsonl"
    lines = path.read_text().splitlines()
    del lines[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReportError, match="not sequential"):
        load_metrics(path)


def test_load_run_requires_summary(tmp_path):
    run = fake_run(tmp_path / "r")
    (run / "summary.json").unlink()
    with pytest.raises(ReportError, match="no summary.json"):
        load_run(run)


def test_summary_that_is_not_an_object_is_a_report_error(tmp_path, capsys):
    run = fake_run(tmp_path / "runs" / "r")
    summary = run / "summary.json"
    summary.write_text(json.dumps(["not", "an", "object"]))
    with pytest.raises(ReportError, match=str(summary)):
        load_run(run)
    rc = main(["report", "--in", str(tmp_path / "runs"), "--out", str(tmp_path / "rep")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {summary}: ")


def test_metrics_rows_short_of_the_summary_rounds_are_a_report_error(tmp_path, capsys):
    run = fake_run(tmp_path / "runs" / "r", rounds=3)
    metrics = run / "metrics.jsonl"
    metrics.write_text("".join(metrics.read_text().splitlines(keepends=True)[:3]))
    with pytest.raises(ReportError, match=f"{metrics}: 3 rows, but summary.json says 3 rounds"):
        load_run(run)
    rc = main(["report", "--in", str(tmp_path / "runs"), "--out", str(tmp_path / "rep")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {metrics}: ")


def test_short_layer_counts_row_is_a_report_error(tmp_path, capsys):
    run = fake_run(tmp_path / "runs" / "r", rounds=3, layers=4)
    metrics = run / "metrics.jsonl"
    rows = [json.loads(s) for s in metrics.read_text().splitlines()]
    rows[2]["layer_counts"] = rows[2]["layer_counts"][:3]
    metrics.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ReportError, match=f"{metrics}:3: layer_counts"):
        load_run(run)
    rc = main(["report", "--in", str(tmp_path / "runs"), "--out", str(tmp_path / "rep")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {metrics}:3: ")


@pytest.mark.parametrize("participants, counts, named", [
    (2, [5, 0, 0, 0], r"layer_counts\[0\] must be in \[0, participants = 2\], got 5"),
    (2, [0, 0, -1, 0], r"layer_counts\[2\] must be in \[0, participants = 2\], got -1"),
    (-2, [-1, 0, 0, 0], "participants must be >= 0, got -2"),
])
def test_impossible_counts_are_a_report_error(tmp_path, capsys, participants, counts, named):
    # a selection frequency above 1 or below 0 has no meaning
    run = fake_run(tmp_path / "runs" / "r", layers=4, participants=participants,
                   layer_counts=counts)
    metrics = run / "metrics.jsonl"
    with pytest.raises(ReportError, match=f"{metrics}:2: {named}"):
        load_run(run)
    rc = main(["report", "--in", str(tmp_path / "runs"), "--out", str(tmp_path / "rep")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {metrics}:2: ")
    assert not (tmp_path / "rep").exists()


MISSING = object()

# values of the wrong type for each type a declaration uses; a bool is never
# a number, and 1.0 and True equal row 1's round, so the round sequence alone
# would let them pass
WRONG = {
    int: [1.0, True, 1.5, "3", None, float("inf")],
    float: ["0.5", True, None, [0.5], float("nan"), float("inf"), -float("inf")],
    str: [3, ["x"], None],
    dict: [[], "x", None],
    list[int]: ["x", None, {}, [2, 2, "2", 2], [2, 2.5, 2, 2], [2, True, 2, 2]],
    list[dict]: ["x", None, {}, [1]],
}

# more wrong values, some equal to the key's value in a fake run (participants
# 2, seed 0, rounds 3)
EXTRA_WRONG = {"participants": [2.0, False], "seed": [0.0, False], "rounds": [3.0, 3.9]}


def key_cases(table: dict) -> list:
    return [pytest.param(key, value, id=f"{key}-{'missing' if value is MISSING else i}")
            for key, kind in table.items()
            for i, value in enumerate([MISSING, *WRONG[kind], *EXTRA_WRONG.get(key, [])])]


def expected_error(where, key, value) -> str:
    """The start of the error naming ``where`` and ``key``, as a pattern."""
    if value is MISSING:
        return re.escape(f"{where}: missing key {key!r}")
    return re.escape(f"{where}: {key}") + r"(\[\d+\])? must be "


def assert_report_fails(tmp_path, capsys, run, error):
    with pytest.raises(ReportError, match=f"^{error}"):
        load_run(run)
    out = tmp_path / "rep"
    rc = main(["report", "--in", str(tmp_path / "runs"), "--out", str(out)])
    assert rc == 1
    assert re.match(f"error: {error}", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("key, value", key_cases(ROW_KEYS))
def test_row_missing_a_declared_key_or_of_the_wrong_type_is_a_report_error(
        tmp_path, capsys, key, value):
    run = fake_run(tmp_path / "runs" / "r", rounds=3, layers=4)
    metrics = run / "metrics.jsonl"
    rows = [json.loads(s) for s in metrics.read_text().splitlines()]
    if value is MISSING:
        del rows[1][key]
    else:
        rows[1][key] = value
    metrics.write_text("".join(json.dumps(r) + "\n" for r in rows))  # NaN/Infinity tokens
    assert_report_fails(tmp_path, capsys, run, expected_error(f"{metrics}:2", key, value))


@pytest.mark.parametrize("key, value", key_cases(SUMMARY_KEYS))
def test_summary_missing_a_declared_key_or_of_the_wrong_type_is_a_report_error(
        tmp_path, capsys, key, value):
    run = fake_run(tmp_path / "runs" / "r", rounds=3)
    summary = run / "summary.json"
    payload = json.loads(summary.read_text())
    if value is MISSING:
        del payload[key]
    else:
        payload[key] = value
    summary.write_text(json.dumps(payload))
    assert_report_fails(tmp_path, capsys, run, expected_error(summary, key, value))


def test_a_run_writes_exactly_the_declared_keys_in_order(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "seed": 1, "rounds": 2, "strategy": "fedpilot",
        "model": {"num_blocks": 4, "hidden_size": 8, "lora_rank": 2,
                  "input_dim": 10, "num_classes": 5},
        "data": {"samples_per_class": 40},
        "clients": {"num_clients": 4, "batch_size": 16, "sampling_rate": 1.0},
    })
    run_experiment(cfg, tmp_path, quiet=True)
    rows = [json.loads(s) for s in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert [list(r) for r in rows] == [list(ROW_KEYS)] * 3
    assert list(json.loads((tmp_path / "summary.json").read_text())) == list(SUMMARY_KEYS)
    assert load_run(tmp_path).summary["rounds"] == 2  # every value of its declared type


@pytest.mark.parametrize("key", ["final_accuracy", "final_loss", "best_accuracy",
                                 "mean_utilization"])
def test_a_summary_that_disagrees_with_its_rows_is_refused(tmp_path, key):
    # a real run loads; one hand-edited value of summary.json, every other
    # key and every row as written, is refused, naming the file and the key
    cfg = ExperimentConfig.from_dict({
        "seed": 2, "rounds": 3, "strategy": "fedpilot",
        "model": {"num_blocks": 4, "hidden_size": 8, "lora_rank": 2,
                  "input_dim": 10, "num_classes": 5},
        "data": {"samples_per_class": 40},
        "clients": {"num_clients": 4, "batch_size": 16, "sampling_rate": 0.5},
    })
    run_experiment(cfg, tmp_path, quiet=True)
    path = tmp_path / "summary.json"
    summary = json.loads(path.read_text())
    assert load_run(tmp_path).summary == summary
    # the smallest step up and 0.99, which a mean or a maximum could also miss
    for value in (math.nextafter(summary[key], math.inf), 0.99):
        path.write_text(json.dumps({**summary, key: value}))
        with pytest.raises(ReportError, match=rf"^{re.escape(str(path))}: {key} is {value!r}, "
                                              rf"but the rows of metrics.jsonl give "):
            load_run(tmp_path)


def test_single_run_summary_echoes_final_metrics(tmp_path):
    fake_run(tmp_path / "runs" / "a", seed=3, rounds=5)
    summaries = generate_report(tmp_path / "runs", tmp_path / "report")
    assert len(summaries) == 1
    s = summaries[0]
    assert s.seeds == (3,)
    assert s.mean_final_accuracy == pytest.approx(0.1 + 0.1 * 5)
    assert s.mean_best_accuracy == s.mean_final_accuracy
    assert s.accuracy_by_round[0] == pytest.approx(0.1)


def test_two_seeds_report_mean_and_range(tmp_path):
    fake_run(tmp_path / "runs" / "a", seed=0, accuracy=[0.1, 0.2, 0.3, 0.4])
    fake_run(tmp_path / "runs" / "b", seed=1, accuracy=[0.1, 0.3, 0.5, 0.6])
    summaries = generate_report(tmp_path / "runs", tmp_path / "report")
    assert len(summaries) == 1
    s = summaries[0]
    assert s.seeds == (0, 1)
    assert s.mean_final_accuracy == pytest.approx(0.5)
    with open(tmp_path / "report" / "summary.json") as fh:
        payload = json.load(fh)
    assert payload[0]["final_accuracy_min"] == pytest.approx(0.4)
    assert payload[0]["final_accuracy_max"] == pytest.approx(0.6)
    assert payload[0]["mean_final_accuracy"] == pytest.approx(0.5)


def test_groups_split_by_strategy_and_distribution(tmp_path):
    fake_run(tmp_path / "runs" / "a", strategy="fedpilot", distribution="iid", seed=0)
    fake_run(tmp_path / "runs" / "b", strategy="fedpilot", distribution="path2", seed=0)
    fake_run(tmp_path / "runs" / "c", strategy="mh", distribution="iid", seed=0)
    summaries = generate_report(tmp_path / "runs", tmp_path / "report")
    keys = {(s.strategy, s.distribution) for s in summaries}
    assert keys == {("fedpilot", "iid"), ("fedpilot", "path2"), ("mh", "iid")}


def test_duplicate_seed_in_group_rejected(tmp_path):
    fake_run(tmp_path / "runs" / "a", seed=1)
    fake_run(tmp_path / "runs" / "b", seed=1)
    with pytest.raises(ReportError, match="duplicate seeds"):
        summarize([load_run(tmp_path / "runs" / "a"), load_run(tmp_path / "runs" / "b")])


def test_mismatched_rounds_in_group_rejected(tmp_path):
    fake_run(tmp_path / "runs" / "a", seed=0, rounds=3)
    fake_run(tmp_path / "runs" / "b", seed=1, rounds=4,
             accuracy=[0.1, 0.2, 0.3, 0.4, 0.5])
    with pytest.raises(ReportError, match="disagree on rounds"):
        summarize([load_run(tmp_path / "runs" / "a"), load_run(tmp_path / "runs" / "b")])


def test_selection_frequency_consistent_with_raw_logs(tmp_path):
    """Layers trained by every participant have row sums of rounds x clients."""
    cfg = ExperimentConfig.from_dict({
        "seed": 1, "rounds": 3, "strategy": "full",
        "model": {"num_blocks": 4, "hidden_size": 8, "lora_rank": 2,
                  "input_dim": 10, "num_classes": 5},
        "data": {"samples_per_class": 40},
        "clients": {"num_clients": 4, "batch_size": 16, "sampling_rate": 1.0},
    })
    run_experiment(cfg, tmp_path / "runs" / "full_s1", quiet=True)
    summaries = generate_report(tmp_path / "runs", tmp_path / "report")
    s = summaries[0]
    rows = load_metrics(tmp_path / "runs" / "full_s1" / "metrics.jsonl")
    for j in range(s.num_layers):
        assert sum(s.layer_counts_by_round[t][j] for t in range(s.rounds)) == 3 * 4
        for t in range(1, s.rounds + 1):
            assert s.selection_frequency(j, t) == 1.0
            assert s.layer_counts_by_round[t - 1][j] == rows[t]["layer_counts"][j]


def test_frequencies_stay_in_unit_interval(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "seed": 2, "rounds": 3, "strategy": "fedpilot",
        "model": {"num_blocks": 4, "hidden_size": 8, "lora_rank": 2,
                  "input_dim": 10, "num_classes": 5},
        "data": {"samples_per_class": 40},
        "clients": {"num_clients": 4, "batch_size": 16, "sampling_rate": 1.0},
    })
    run_experiment(cfg, tmp_path / "runs" / "fp_s2", quiet=True)
    summaries = generate_report(tmp_path / "runs", tmp_path / "report")
    s = summaries[0]
    for t in range(1, s.rounds + 1):
        for j in range(s.num_layers):
            assert 0.0 <= s.selection_frequency(j, t) <= 1.0


def test_csv_tables_have_expected_shape(tmp_path):
    fake_run(tmp_path / "runs" / "a", strategy="fedpilot", distribution="iid", seed=0)
    fake_run(tmp_path / "runs" / "b", strategy="fedpilot", distribution="dir0.5", seed=0)
    fake_run(tmp_path / "runs" / "c", strategy="mh", distribution="iid", seed=0)
    generate_report(tmp_path / "runs", tmp_path / "report")
    tables = tmp_path / "report" / "tables"
    expected = {"accuracy.csv", "accuracy_pivot.csv", "utilization.csv",
                "accuracy_vs_round.csv", "selection_frequency.csv"}
    assert {p.name for p in tables.iterdir()} == expected

    with open(tables / "accuracy_pivot.csv") as fh:
        pivot = list(csv.reader(fh))
    assert pivot[0] == ["strategy", "dir0.5", "iid"]
    names = [row[0] for row in pivot[1:]]
    assert names == ["fedpilot+comagg", "mh+comagg"]
    fedpilot_row = pivot[1]
    assert fedpilot_row[1] != "" and fedpilot_row[2] != ""
    mh_row = pivot[2]
    assert mh_row[1] == ""  # mh was never run on dir0.5

    with open(tables / "selection_frequency.csv") as fh:
        freq = list(csv.reader(fh))
    assert freq[0] == ["strategy", "aggregation", "distribution", "round", "layer",
                       "count", "participants", "frequency"]
    assert len(freq) - 1 == 3 * 3 * 4  # groups x rounds x layers


def test_report_is_pure_function_of_inputs(tmp_path):
    fake_run(tmp_path / "runs" / "a", seed=0)
    fake_run(tmp_path / "runs" / "b", seed=1)
    generate_report(tmp_path / "runs", tmp_path / "r1")
    generate_report(tmp_path / "runs", tmp_path / "r2")
    for name in ["summary.json", "tables/accuracy.csv", "tables/accuracy_pivot.csv",
                 "tables/utilization.csv", "tables/accuracy_vs_round.csv",
                 "tables/selection_frequency.csv"]:
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_discover_runs_needs_directory(tmp_path):
    with pytest.raises(ReportError, match="not a directory"):
        discover_runs(tmp_path / "absent")
    with pytest.raises(ReportError, match="no metrics.jsonl"):
        generate_report(tmp_path, tmp_path / "out")
