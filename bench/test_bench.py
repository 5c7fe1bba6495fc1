"""Tests of the benchmark itself, at reduced rounds.

    python -m pytest -q bench/test_bench.py

Every workload runs in a fresh process, as the benchmark is meant to run,
with a few rounds per simulator run so the whole file takes well under a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import run as bench_run  # noqa: E402
import tracer  # noqa: E402


def run_bench(workload: str, trace: int, seed: int = 3, rounds: int = 2, cwd: Path = ROOT,
              script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--rounds", str(rounds)],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def parse(proc) -> tuple[dict, dict[str, tuple[str, str]]]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split("#")[0].split()
            printed[name] = (value, unit)
    return json.loads(lines[-1]), printed


def check_metrics(result, printed, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert printed[m["name"]] == (repr(got["value"]), m["unit"]), m["name"]
    assert printed["failed_share"] == ("0.0", "share")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload):
    result, printed = parse(run_bench(workload, trace=0))
    check_metrics(result, printed, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())

    result, printed = parse(run_bench(workload, trace=1))
    check_metrics(result, printed, SPEC["per_layer"])


def test_exact_counters_repeat_across_traced_runs():
    for workload in WORKLOADS:
        a, _ = parse(run_bench(workload, trace=1, seed=5, rounds=3))
        b, _ = parse(run_bench(workload, trace=1, seed=5, rounds=3))
        for name in tracer.EXACT:
            assert a["metrics"][name] == b["metrics"][name], (workload, name)
        if workload == "trend-sweep":
            # every counted path runs in the trend workload
            assert all(a["metrics"][name]["value"] > 0 for name in tracer.EXACT), a["metrics"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _small_run(tmp_path: Path):
    import workloads
    from fedlorasim.simulator import run_experiment

    _, cfg = workloads.build("trend-sweep", seed=1, rounds=3).runs[0]
    run_experiment(cfg, tmp_path, quiet=True)
    return cfg


def _rewrite_rows(path: Path, edit) -> None:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    edit(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def test_output_checks_pass_on_a_real_run_and_catch_broken_outputs(tmp_path):
    cfg = _small_run(tmp_path)
    assert bench_run.check_run(tmp_path, cfg)[0] == []
    metrics = tmp_path / "metrics.jsonl"
    good = metrics.read_text()

    _rewrite_rows(metrics, lambda rows: rows.pop())
    assert any("rows" in p for p in bench_run.check_run(tmp_path, cfg)[0])

    metrics.write_text(good)
    _rewrite_rows(metrics, lambda rows: rows[1].update(loss=float("nan")))
    assert any("loss" in p for p in bench_run.check_run(tmp_path, cfg)[0])

    metrics.write_text(good)
    part = json.loads((tmp_path / "partition.json").read_text())
    for a in part["assignments"]:
        a["capacity_bytes"] = 1
    (tmp_path / "partition.json").write_text(json.dumps(part))
    assert any("uses" in p for p in bench_run.check_run(tmp_path, cfg)[0])


@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_that_raises_gives_an_incorrect_result(monkeypatch, capsys, trace):
    import fedlorasim.simulator

    def boom(*args, **kwargs):
        raise fedlorasim.simulator.InvariantViolation("raised on purpose")

    monkeypatch.setattr(fedlorasim.simulator, "run_experiment", boom)
    status = bench_run.main(["--workload", "deep-knapsack", "--seed", "0", "--seconds", "1",
                             "--trace", str(trace), "--rounds", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 1
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "metric failed_share 1.0 share" in "\n".join(lines)


def test_tail_percentile_leaves_ten_samples_beyond_up_to_the_cap():
    assert bench_run.tail_percentile(240) == 95
    assert bench_run.tail_percentile(30) == 66
    assert bench_run.tail_percentile(12) == 50
    for n in (21, 40, 100, 180):
        q = bench_run.tail_percentile(n)
        assert n * (100 - q) / 100 >= 10
        assert n * (100 - (q + 1)) / 100 < 10
    assert bench_run.tail_percentile(210) == bench_run.tail_percentile(2400) == bench_run.TAIL_CAP
