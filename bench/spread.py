#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload trend-sweep --seeds 0-9

Each seed is a fresh, untraced run of the command in BENCHMARK.json for its
``run_seconds``, one after another. For every end-to-end metric it prints
the quartiles of the per-seed values, as ``statistics.quantiles(values,
n=4)`` gives them, and the spread, (third quartile - first quartile) /
median. A metric is steady when its spread stays below a third of its bound
in BENCHMARK.json. The exit status is 0 when every metric is steady and 3
when one is not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"), help="e.g. 0-9 or 1,5,7")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)

    steady = True
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        ok = spread < bounds[name] / 3
        steady &= ok
        print(f"{name:24s} q1 {q1:<12.6g} median {med:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}  "
              f"bound {bounds[name]}  {'ok' if ok else 'NOT below bound/3'}")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
