#!/usr/bin/env python3
"""fedlorasim benchmark: one workload, one seed, one fresh process.

    python3 bench/run.py --workload trend-sweep --seed 0 --seconds 40 --trace 0

Runs the workload's simulator runs (and report) through the public API
again and again for ``--seconds`` seconds, checks every output, and prints
one line per metric followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Times are scaled to a
reference machine speed read by bench/speed.py around every step. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer ones
from the trace, plus the tracing overhead. Exit status is 0 when every check passed, 1
when one failed (after printing the result) and 2 when the benchmark could
not start. See bench/README.md for the metric definitions.

Everything the benchmark writes goes under ``.bench_out/`` at the root of
the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("trend-sweep", "deep-knapsack", "wide-train")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Extra set-ups per run in every untraced pass, each stopped at its first
#: round; a run's set-up time is the median of these and its real set-up.
SETUP_REPEATS = 10
#: round_ms_tail never goes above p95, so its percentile stays put when a
#: faster program fits more passes, and so more rounds, into a run.
TAIL_CAP = 95

# name -> unit; the order is the order of the printed report
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "client_updates_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


class StartError(Exception):
    """The benchmark cannot run here (for example, no package source)."""


def _import_package():
    src = ROOT / "src"
    if not (src / "fedlorasim" / "__init__.py").is_file():
        raise StartError(f"no package source at {src / 'fedlorasim'}")
    sys.path.insert(0, str(src))
    import fedlorasim

    if Path(fedlorasim.__file__).resolve().parent != (src / "fedlorasim").resolve():
        raise StartError(f"imported fedlorasim from {fedlorasim.__file__}, not from {src}")
    return fedlorasim


def git_commit() -> str:
    """HEAD of the checkout's repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds_override": args.rounds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run(run_dir: Path, cfg) -> tuple[list[str], int]:
    """Output checks for one simulator run; returns (problems, client updates)."""
    problems = []
    rows = [json.loads(line) for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
    if len(rows) != cfg.rounds + 1:
        problems.append(f"metrics.jsonl has {len(rows)} rows, expected {cfg.rounds + 1}")
    capacity = {a["id"]: a["capacity_bytes"]
                for a in json.loads((run_dir / "partition.json").read_text())["assignments"]}
    updates = 0
    for t, row in enumerate(rows):
        where = f"round {row.get('round')}"
        if row["round"] != t:
            problems.append(f"row {t} is {where}")
        for key in ("accuracy", "loss"):
            if not math.isfinite(row[key]):
                problems.append(f"{where}: {key} is {row[key]}")
        counts = [0] * cfg.model.num_blocks
        took_part = [c for c in row["clients"] if c["participated"]]
        for c in took_part:
            if c["memory_bytes"] is None or c["memory_bytes"] > capacity[c["id"]]:
                problems.append(f"{where}: client {c['id']} uses {c['memory_bytes']} B "
                                f"of {capacity[c['id']]} B")
            for j, bit in enumerate(c["allocation"]):
                counts[j] += bit == "1"
        if row["participants"] != len(took_part):
            problems.append(f"{where}: participants {row['participants']} != {len(took_part)}")
        if row["layer_counts"] != counts:
            problems.append(f"{where}: layer_counts disagree with the client allocations")
        updates += len(took_part)
    summary = json.loads((run_dir / "summary.json").read_text())
    if rows and summary["final_accuracy"] != rows[-1]["accuracy"]:
        problems.append("summary.json final_accuracy is not the last round's accuracy")
    return problems, updates


def check_report(summaries, runs) -> list[str]:
    want = sorted((cfg.strategy, cfg.aggregation) for _, cfg in runs)
    got = sorted((s.strategy, s.aggregation) for s in summaries)
    return [] if got == want else [f"report groups {got} != runs {want}"]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it,
    between 50 and TAIL_CAP."""
    return min(TAIL_CAP, max(50, math.floor(100 * (1 - 10 / n)))) if n else 50


def percentile(values, q):
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class RoundClock:
    """Stands in for simulator.run_round: reads the speed factor, then times the round.

    The factor is read outside the round's timing. ``first`` is when the
    first round's reading began, and ``probe_s`` sums the time spent reading,
    so the run's other steps can leave it out.
    """

    def __init__(self, fn, factor):
        self.fn = fn
        self.factor = factor
        self.reset()

    def reset(self) -> None:
        self.first = None
        self.times: list[float] = []
        self.factors: list[float] = []
        self.probe_s = 0.0

    def __call__(self, *args, **kwargs):
        p0 = perf_counter()
        if self.first is None:
            self.first = p0
        self.factors.append(self.factor())
        t0 = perf_counter()
        self.probe_s += t0 - p0
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.times.append(perf_counter() - t0)


class _SetupDone(Exception):
    """Raised in place of the first round to stop a set-up-only run."""


def _stop_at_first_round(*args, **kwargs):
    raise _SetupDone


class Bench:
    def __init__(self, fl, workload, out_dir: Path, probe):
        self.fl = fl
        self.probe = probe
        self.wl = workload
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[dict[str, str]] = []
        self.passes = 0

    def _fail(self, what: str, detail: str) -> None:
        self.failed += 1
        self.problems.append(f"{what}: {detail}")
        print(f"# FAILED {what}: {detail}", file=sys.stderr)

    def run_pass(self, tracer=None) -> dict:
        """One pass of the workload; returns its timings and digests."""
        sim = self.fl.simulator
        pass_dir = self.out_dir / f"pass{self.passes}"
        shutil.rmtree(pass_dir, ignore_errors=True)
        factor = self.probe.factor
        if tracer is not None:
            factor = tracer.timed("bench.speed_probe", factor)
        clock = RoundClock(sim.run_round, factor)
        steps, ok_runs, report_s = {}, [], None
        try:
            for i, (label, cfg) in enumerate(self.wl.runs):
                self.attempted += 1
                if tracer is not None:
                    tracer.run_id = self.passes * len(self.wl.runs) + i
                clock.reset()
                try:
                    # untraced passes only, so set-up-only runs leave no spans
                    extra = [] if tracer is not None else [
                        self.time_setup(cfg, pass_dir / "setup" / label, factor)
                        for _ in range(SETUP_REPEATS)]
                    sim.run_round = clock
                    setup_factor = factor()
                    t_enter = perf_counter()
                    sim.run_experiment(cfg, pass_dir / "runs" / label, quiet=True)
                except Exception:
                    self._fail(label, traceback.format_exc())
                    continue
                t_exit = perf_counter()
                end_factor = factor()
                ok_runs.append((label, cfg))
                if clock.times:
                    setup = clock.first - t_enter
                    steps[label] = {
                        "setup": setup, "extra_setups": extra, "rounds": clock.times,
                        "io": t_exit - t_enter - setup - sum(clock.times) - clock.probe_s,
                        "factors": [setup_factor, *clock.factors, end_factor],
                    }
            summaries = None
            if self.wl.report:
                self.attempted += 1
                if tracer is not None:
                    tracer.run_id = -1
                report_factor = factor()
                t_report = perf_counter()
                try:
                    summaries = self.fl.reporting.generate_report(pass_dir / "runs", pass_dir / "report")
                except Exception:
                    self._fail("report", traceback.format_exc())
                report_s = perf_counter() - t_report
                report_factor = (report_factor + factor()) / 2
        finally:
            sim.run_round = clock.fn

        digests, updates = {}, 0
        for label, cfg in ok_runs:
            run_dir = pass_dir / "runs" / label
            try:
                problems, n = check_run(run_dir, cfg)
                digests[label] = sha256(run_dir / "metrics.jsonl")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems, n = [f"unreadable output: {exc!r}"], 0
            if problems:
                self._fail(label, "; ".join(problems[:5]))
            updates += n
        if summaries is not None:
            problems = check_report(summaries, self.wl.runs)
            if problems:
                self._fail("report", "; ".join(problems))
            digests["report"] = sha256(pass_dir / "report" / "summary.json")
        shutil.rmtree(pass_dir, ignore_errors=True)
        self.passes += 1
        self.digests.append(digests)
        return {"steps": steps, "report": None if report_s is None else (report_s, report_factor),
                "updates": updates}

    def time_setup(self, cfg, run_dir: Path, factor) -> float:
        """One set-up of ``cfg``, stopped at its first round; scaled seconds."""
        sim = self.fl.simulator
        sim.run_round = _stop_at_first_round
        f = factor()
        t0 = perf_counter()
        try:
            sim.run_experiment(cfg, run_dir, quiet=True)
        except _SetupDone:
            return (perf_counter() - t0) * (f + factor()) / 2
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        raise RuntimeError("set-up-only run ended without reaching its first round")

    def digests_agree(self) -> bool:
        first = self.digests[0]
        for k, d in enumerate(self.digests[1:], start=1):
            if d != first:
                self.problems.append(f"pass {k} metrics digests differ from pass 0")
                print(f"# FAILED determinism: pass {k} digests {d} != pass 0 {first}", file=sys.stderr)
                return False
        return True


def pass_figures(p: dict) -> dict[str, float]:
    """Figures of one pass at the reference speed, and its scaled rounds.

    Each step is scaled by the mean of the speed factors read just before
    and just after it: a run's set-up by the readings before it entered
    run_experiment and before its first round, each round by its own
    reading and the next round's (the last round's next reading is taken
    after run_experiment returns), and the output writing by that final
    reading. When the machine's speed changes within a step, the mean of
    two readings tracks it better than one: on a shared 2-core machine it
    cut the pass-to-pass variation of one deep-knapsack round's scaled time
    from about 10% to about 7%. A run's set-up time is the median of its
    real set-up and its set-up-only repeats. A pass whose runs all raised
    has no rounds and reads 0.
    """
    setup, rounds, wall, raw_wall = 0.0, [], 0.0, 0.0
    for s in p["steps"].values():
        f = s["factors"]
        k = [(a + b) / 2 for a, b in zip(f, f[1:])]
        scaled = [r * x for r, x in zip(s["rounds"], k[1:])]
        setup += statistics.median([s["setup"] * k[0], *s["extra_setups"]])
        rounds.extend(scaled)
        wall += s["setup"] * k[0] + sum(scaled) + s["io"] * f[-1]
        raw_wall += s["setup"] + sum(s["rounds"]) + s["io"]
    if p["report"] is not None:
        wall += p["report"][0] * p["report"][1]
        raw_wall += p["report"][0]
    factors = [k for s in p["steps"].values() for k in s["factors"]]
    return {
        "setup_s": setup,
        "wall_s": wall,
        "rounds_per_s": len(rounds) / sum(rounds) if rounds else 0.0,
        "client_updates_per_s": p["updates"] / wall if wall else 0.0,
        "raw_wall_s": raw_wall,
        "speed_factor": statistics.median(factors) if factors else 0.0,
        "rounds": rounds,
    }


#: End-to-end metrics that are the median over passes of a per-pass figure;
#: the round percentiles are taken over the rounds of all passes pooled.
PER_PASS = ("setup_s", "wall_s", "rounds_per_s", "client_updates_per_s")


def e2e_metrics(passes: list[dict]) -> tuple[dict[str, float], dict]:
    """End-to-end metrics of the untraced passes, plus peak RSS."""
    figures = [pass_figures(p) for p in passes]
    out = {k: statistics.median(f[k] for f in figures) for k in PER_PASS}
    pooled = [r for f in figures for r in f["rounds"]]
    q = tail_percentile(len(pooled))
    out["round_ms_p50"] = 1e3 * percentile(pooled, 50) if pooled else 0.0
    out["round_ms_tail"] = 1e3 * percentile(pooled, q) if pooled else 0.0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    info = {"tail_percentile": q, "pooled_rounds": len(pooled), "passes": len(passes),
            "per_pass": [{k: v for k, v in f.items() if k != "rounds"} for f in figures]}
    return out, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float,
                    help="measuring time; passes start while the last one would still fit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=None,
                    help="override every run's round count (smoke tests)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.rounds is not None and args.rounds < 1):
        ap.error("--seed must be >= 0, --seconds > 0 and --rounds >= 1")

    try:
        fl = _import_package()
    except StartError as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 2
    import speed
    import tracer as tracing
    import workloads

    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True))
    wl = workloads.build(args.workload, args.seed, args.rounds)
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    bench = Bench(fl, wl, OUT / tag, speed.SpeedProbe(wl.runs[0][1].model.hidden_size))

    deadline = perf_counter() + args.seconds
    untraced, traced, layers, bases = [], [], [], []
    tr = tracing.Tracer() if args.trace else None
    longest = 0.0
    while True:
        t0 = perf_counter()
        untraced.append(bench.run_pass())
        if tr is not None:
            sid_lo, counts_lo = tr.next_sid, dict(tr.counts)
            tr.install()
            try:
                traced.append(bench.run_pass(tracer=tr))
            finally:
                tr.restore()
            counts = {k: v - counts_lo.get(k, 0) for k, v in tr.counts.items()}
            m, b = tracing.layer_metrics(tr, sid_lo, tr.next_sid, counts)
            layers.append(m)
            bases.append(b)
        longest = max(longest, perf_counter() - t0)
        if bench.failed or perf_counter() + longest > deadline:
            break

    shutil.rmtree(bench.out_dir, ignore_errors=True)
    correct = bench.failed == 0 and bench.digests_agree()
    for label, digest in bench.digests[0].items():
        print(f"# sha256 {label} {digest}")
    failed_share = bench.failed / bench.attempted
    # failed_share is printed, not put in the result's metrics: it is 0 on a
    # good run, and the result carries it as "failed" over "attempted"
    print(f"metric failed_share {failed_share!r} share  # {bench.failed}/{bench.attempted} runs")

    e2e, info = e2e_metrics(untraced)
    result = {"env": env, "digests": bench.digests[0], "problems": bench.problems,
              "attempted": bench.attempted, "failed": bench.failed, "e2e": e2e, "e2e_info": info}
    if tr is None:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in E2E_UNITS.items()}
        print(f"# {info['passes']} passes; round_ms_p50 and round_ms_tail (p{info['tail_percentile']}) "
              f"over {info['pooled_rounds']} pooled rounds, the other times medians over passes; "
              f"all at the reference speed")
        for k, f in enumerate(info["per_pass"]):
            print(f"# pass {k}: speed factor {f['speed_factor']:.3f}, wall {f['raw_wall_s']:.4f} s "
                  f"as measured, {f['wall_s']:.4f} s at the reference speed")
    else:
        for k in tracing.EXACT:
            if any(m[k] != layers[0][k] for m in layers[1:]):
                correct = False
                bench.problems.append(f"exact counter {k} differs between traced passes")
                print(f"# FAILED exact counter {k}: {[m[k] for m in layers]}", file=sys.stderr)
        # Per-layer times are as measured, not scaled, all from the traced
        # pass with the lowest wall_s at the reference speed; counters are
        # equal in every pass. The overhead compares wall_s medians at the
        # reference speed.
        untraced_wall = e2e["wall_s"]
        traced_walls = [pass_figures(p)["wall_s"] for p in traced]
        overhead = statistics.median(traced_walls) - untraced_wall
        best = traced_walls.index(min(traced_walls))
        values = dict(layers[best])
        values["trace.overhead_s"] = overhead
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()}
        result.update(layers=layers, bases=bases[0], trace_overhead_s=overhead, reported_pass=best)
        print(f"# per-layer figures from traced pass {best} of {len(traced)}; ratio bases (per pass): "
              f"{json.dumps(bases[0], sort_keys=True)}")
        print(f"# tracing overhead {overhead:.4f} s on an untraced wall_s of {untraced_wall:.4f} s "
              f"({len(traced)} traced / {len(untraced)} untraced passes); wait time: absent, "
              f"no layer queues or retries")
        tr.save(OUT / f"{tag}-spans.npz")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    result["metrics"] = metrics
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # Pin BLAS to one thread before numpy is first imported, so a workload
    # runs in exactly one thread and its figures do not depend on how many
    # cores happen to be free.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
