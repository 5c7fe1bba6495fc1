"""Turn per-run metrics files into cross-seed comparison tables.

A run directory is whatever the simulator wrote: metrics.jsonl next to
summary.json. This module finds every such directory under a root, groups
runs sharing (strategy, aggregation, distribution), averages across seeds,
and emits plot-ready CSV tables plus one machine-readable summary. Outputs
are pure functions of the input files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

from fedlorasim.simulator import ROW_KEYS, SUMMARY_KEYS

_TYPE_NAMES = {int: "an int", float: "a finite number", str: "a string", list: "a list",
               dict: "an object"}


class ReportError(ValueError):
    """Input files are missing, malformed, or mutually inconsistent."""


def _check_value(value, kind: type, name: str) -> None:
    # a bool is no number; json reads NaN and Infinity, which no table may show
    ok = not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)
    if not ok or (kind is float and not math.isfinite(value)):
        raise ReportError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")


def _check_keys(obj: dict, table: dict, where: str) -> None:
    """Raise unless ``obj`` holds every key of ``table`` (``ROW_KEYS`` or
    ``SUMMARY_KEYS``) with a value of its type, naming ``where`` and the key."""
    for key, kind in table.items():
        if key not in obj:
            raise ReportError(f"{where}: missing key {key!r}")
        outer = getattr(kind, "__origin__", kind)  # list for list[int]
        _check_value(obj[key], outer, f"{where}: {key}")
        for i, item in enumerate(obj[key] if outer is not kind else ()):
            _check_value(item, kind.__args__[0], f"{where}: {key}[{i}]")


def load_metrics(path: str | Path) -> list[dict]:
    """Parse one metrics JSONL file, pointing at the offending line on failure."""
    path = Path(path)
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReportError(f"{path}:{lineno}: not valid JSON ({exc.msg})") from exc
            if not isinstance(row, dict):
                raise ReportError(f"{path}:{lineno}: expected an object, got {type(row).__name__}")
            _check_keys(row, ROW_KEYS, f"{path}:{lineno}")
            participants = row["participants"]
            if participants < 0:
                raise ReportError(f"{path}:{lineno}: participants must be >= 0, got {participants}")
            counts = row["layer_counts"]
            if rows and len(counts) != len(rows[0]["layer_counts"]):
                raise ReportError(f"{path}:{lineno}: layer_counts must be as long as "
                                  f"the first row's")
            # no layer is trained by more clients than the round has
            bad = [j for j, c in enumerate(counts) if not 0 <= c <= participants]
            if bad:
                raise ReportError(f"{path}:{lineno}: layer_counts[{bad[0]}] must be in "
                                  f"[0, participants = {participants}], got {counts[bad[0]]}")
            rows.append(row)
    if not rows:
        raise ReportError(f"{path}: no metrics rows")
    expected = list(range(len(rows)))
    got = [r["round"] for r in rows]
    if got != expected:
        raise ReportError(f"{path}: rounds {got[:5]}... are not sequential from 0")
    return rows


@dataclass(frozen=True)
class RunRecord:
    """One simulator run: its directory, its summary.json (``SUMMARY_KEYS``)
    and its parsed metrics rows (``ROW_KEYS``)."""

    path: str
    summary: dict
    rows: tuple

    @property
    def num_layers(self) -> int:
        return len(self.rows[0]["layer_counts"])


def load_run(run_dir: str | Path) -> RunRecord:
    run_dir = Path(run_dir)
    summary_path = run_dir / "summary.json"
    if not summary_path.exists():
        raise ReportError(f"{run_dir}: metrics.jsonl has no summary.json beside it")
    with open(summary_path) as fh:
        try:
            summary = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ReportError(f"{summary_path}: not valid JSON ({exc.msg})") from exc
    if not isinstance(summary, dict):
        raise ReportError(f"{summary_path}: must hold a JSON object")
    metrics_path = run_dir / "metrics.jsonl"
    rows = load_metrics(metrics_path)
    _check_keys(summary, SUMMARY_KEYS, str(summary_path))
    rounds = summary["rounds"]
    if len(rows) != rounds + 1:
        raise ReportError(f"{metrics_path}: {len(rows)} rows, but summary.json says "
                          f"{rounds} rounds, which need {rounds + 1}")
    utilization = 0.0  # rows 1..T in order, added as the writer adds them
    for row in rows[1:]:
        utilization += row["mean_utilization"]
    for key, want in (("final_accuracy", rows[-1]["accuracy"]), ("final_loss", rows[-1]["loss"]),
                      ("best_accuracy", max(row["accuracy"] for row in rows)),
                      ("mean_utilization", utilization / rounds if rounds else 0.0)):
        if summary[key] != want:
            raise ReportError(f"{summary_path}: {key} is {summary[key]!r}, but the rows of "
                              f"metrics.jsonl give {want!r}")
    return RunRecord(path=str(run_dir), summary=summary, rows=tuple(rows))


def discover_runs(root: str | Path) -> list[Path]:
    """Every directory under ``root`` holding a metrics.jsonl, sorted by path."""
    root = Path(root)
    if not root.is_dir():
        raise ReportError(f"{root}: not a directory")
    return sorted(p.parent for p in root.rglob("metrics.jsonl"))


@dataclass
class RunSummary:
    """Cross-seed aggregate for one (strategy, aggregation, distribution) cell."""

    strategy: str
    aggregation: str
    distribution: str
    seeds: tuple[int, ...]
    final_accuracies: tuple[float, ...]
    best_accuracies: tuple[float, ...]
    mean_utilizations: tuple[float, ...]
    rounds: int
    num_layers: int
    accuracy_by_round: tuple[float, ...]
    accuracy_min_by_round: tuple[float, ...]
    accuracy_max_by_round: tuple[float, ...]
    # per training round, summed over seeds (round 0 has no selections)
    layer_counts_by_round: tuple[tuple[int, ...], ...]
    participants_by_round: tuple[int, ...]

    @property
    def mean_final_accuracy(self) -> float:
        return sum(self.final_accuracies) / len(self.final_accuracies)

    @property
    def mean_best_accuracy(self) -> float:
        return sum(self.best_accuracies) / len(self.best_accuracies)

    @property
    def mean_utilization(self) -> float:
        return sum(self.mean_utilizations) / len(self.mean_utilizations)

    def selection_frequency(self, layer: int, t: int) -> float:
        """Share of round-t participants (all seeds pooled) training ``layer``."""
        part = self.participants_by_round[t - 1]
        if part == 0:
            return 0.0
        return self.layer_counts_by_round[t - 1][layer] / part

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "aggregation": self.aggregation,
            "distribution": self.distribution,
            "seeds": list(self.seeds),
            "final_accuracies": list(self.final_accuracies),
            "best_accuracies": list(self.best_accuracies),
            "mean_utilizations": list(self.mean_utilizations),
            "rounds": self.rounds,
            "mean_final_accuracy": self.mean_final_accuracy,
            "final_accuracy_min": min(self.final_accuracies),
            "final_accuracy_max": max(self.final_accuracies),
            "mean_best_accuracy": self.mean_best_accuracy,
            "mean_utilization": self.mean_utilization,
        }


def _group_key(run: RunRecord) -> tuple[str, str, str]:
    return tuple(run.summary[k] for k in ("strategy", "aggregation", "distribution"))


def summarize(runs: list[RunRecord]) -> list[RunSummary]:
    """Group runs by strategy, aggregation and distribution; pool their seeds."""
    if not runs:
        raise ReportError("no runs to summarize")
    groups: dict[tuple, list[RunRecord]] = {}
    for run in runs:
        groups.setdefault(_group_key(run), []).append(run)

    out = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda r: r.summary["seed"])
        seeds = [r.summary["seed"] for r in members]
        if len(set(seeds)) != len(seeds):
            dupes = sorted({s for s in seeds if seeds.count(s) > 1})
            raise ReportError(f"group {key}: duplicate seeds {dupes}")
        rounds = {r.summary["rounds"] for r in members}
        layers = {r.num_layers for r in members}
        if len(rounds) != 1 or len(layers) != 1:
            raise ReportError(f"group {key}: runs disagree on rounds or layer count")
        T = rounds.pop()
        L = layers.pop()

        acc = [[r.rows[t]["accuracy"] for r in members] for t in range(T + 1)]
        counts = tuple(
            tuple(sum(r.rows[t]["layer_counts"][j] for r in members) for j in range(L))
            for t in range(1, T + 1)
        )
        parts = tuple(sum(r.rows[t]["participants"] for r in members) for t in range(1, T + 1))
        out.append(RunSummary(
            strategy=key[0],
            aggregation=key[1],
            distribution=key[2],
            seeds=tuple(seeds),
            final_accuracies=tuple(float(r.summary["final_accuracy"]) for r in members),
            best_accuracies=tuple(float(r.summary["best_accuracy"]) for r in members),
            mean_utilizations=tuple(float(r.summary["mean_utilization"]) for r in members),
            rounds=T,
            num_layers=L,
            accuracy_by_round=tuple(sum(a) / len(a) for a in acc),
            accuracy_min_by_round=tuple(min(a) for a in acc),
            accuracy_max_by_round=tuple(max(a) for a in acc),
            layer_counts_by_round=counts,
            participants_by_round=parts,
        ))
    return out


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_report(summaries: list[RunSummary], out_dir: str | Path) -> None:
    """summary.json plus tables/*.csv under ``out_dir``."""
    out = Path(out_dir)
    tables = out / "tables"
    tables.mkdir(parents=True, exist_ok=True)

    with open(out / "summary.json", "w") as fh:
        json.dump([s.as_dict() for s in summaries], fh, indent=2, allow_nan=False)

    _write_csv(
        tables / "accuracy.csv",
        ["strategy", "aggregation", "distribution", "seeds",
         "final_accuracy_mean", "final_accuracy_min", "final_accuracy_max",
         "best_accuracy_mean", "mean_utilization"],
        [
            [s.strategy, s.aggregation, s.distribution, len(s.seeds),
             f"{s.mean_final_accuracy:.6f}", f"{min(s.final_accuracies):.6f}",
             f"{max(s.final_accuracies):.6f}", f"{s.mean_best_accuracy:.6f}",
             f"{s.mean_utilization:.6f}"]
            for s in summaries
        ],
    )

    # strategy/aggregation rows against distribution columns, the headline table
    distributions = sorted({s.distribution for s in summaries})
    cells = {(f"{s.strategy}+{s.aggregation}", s.distribution): s.mean_final_accuracy
             for s in summaries}
    row_names = sorted({f"{s.strategy}+{s.aggregation}" for s in summaries})
    _write_csv(
        tables / "accuracy_pivot.csv",
        ["strategy"] + distributions,
        [
            [name] + [f"{cells[(name, d)]:.6f}" if (name, d) in cells else "" for d in distributions]
            for name in row_names
        ],
    )

    _write_csv(
        tables / "utilization.csv",
        ["strategy", "aggregation", "distribution", "seed", "mean_utilization", "final_accuracy"],
        [
            [s.strategy, s.aggregation, s.distribution, seed, f"{u:.6f}", f"{a:.6f}"]
            for s in summaries
            for seed, u, a in zip(s.seeds, s.mean_utilizations, s.final_accuracies)
        ],
    )

    _write_csv(
        tables / "accuracy_vs_round.csv",
        ["strategy", "aggregation", "distribution", "round",
         "accuracy_mean", "accuracy_min", "accuracy_max"],
        [
            [s.strategy, s.aggregation, s.distribution, t,
             f"{s.accuracy_by_round[t]:.6f}", f"{s.accuracy_min_by_round[t]:.6f}",
             f"{s.accuracy_max_by_round[t]:.6f}"]
            for s in summaries
            for t in range(s.rounds + 1)
        ],
    )

    _write_csv(
        tables / "selection_frequency.csv",
        ["strategy", "aggregation", "distribution", "round", "layer",
         "count", "participants", "frequency"],
        [
            [s.strategy, s.aggregation, s.distribution, t, j,
             s.layer_counts_by_round[t - 1][j], s.participants_by_round[t - 1],
             f"{s.selection_frequency(j, t):.6f}"]
            for s in summaries
            for t in range(1, s.rounds + 1)
            for j in range(s.num_layers)
        ],
    )


def generate_report(in_dir: str | Path, out_dir: str | Path) -> list[RunSummary]:
    """Discover, load, group, and write; returns the grouped summaries."""
    dirs = discover_runs(in_dir)
    if not dirs:
        raise ReportError(f"{in_dir}: no metrics.jsonl found underneath")
    summaries = summarize([load_run(d) for d in dirs])
    write_report(summaries, out_dir)
    return summaries
