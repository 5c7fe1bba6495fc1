"""Command-line front end: simulate, allocate, memory, report.

Thin wrappers over the library. Machine-readable results go to stdout as
JSON; diagnostics go to stderr. Exit codes: 0 success, 1 bad input or config,
2 violated protocol invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from fedlorasim.allocator import KnapsackInstance, optimize_allocation
from fedlorasim.config import ConfigError, ExperimentConfig, load_config
from fedlorasim.memory import (
    AllocationMap,
    ModelProfile,
    ProfileValidationError,
    profile_from_config,
    total_memory,
)
from fedlorasim.reporting import ReportError, generate_report
from fedlorasim.simulator import InvariantViolation, run_experiment


def _read_json(path) -> object:
    """The JSON document in ``path``; invalid JSON fails naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None


def load_profile(path: str) -> ModelProfile:
    payload = _read_json(path)
    try:
        return profile_from_config(payload)
    except ProfileValidationError as exc:
        raise ProfileValidationError(f"{path}: {exc}") from None


def _parse_values(spec: str) -> list[float]:
    """Module values from a JSON file path or an inline comma list."""
    p = Path(spec)
    if p.exists():
        payload = _read_json(spec)
        if not isinstance(payload, list):
            raise ValueError(f"{spec}: values file must hold a JSON list")
        for i, v in enumerate(payload):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{spec}: values[{i}] must be a number, got {v!r}")
        return [float(v) for v in payload]
    try:
        return [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(
            f"--values {spec!r} is neither an existing file nor a comma-separated list of numbers"
        ) from None


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        # through the config reader, so the override meets the seed's bound
        config = ExperimentConfig.from_dict({**config.to_dict(), "seed": args.seed})
    if args.out is not None:
        out = Path(args.out)
    else:
        name = config.label or (
            f"{config.strategy}_{config.aggregation}_"
            f"{config.distribution_label()}_s{config.seed}"
        )
        out = Path("runs") / name
    summary = run_experiment(config, out, quiet=True)
    print(json.dumps({"out_dir": str(out), **summary}, indent=2))
    return 0


def cmd_allocate(args) -> int:
    profile = load_profile(args.profile)
    values = _parse_values(args.values)
    instance = KnapsackInstance(profile, args.capacity, args.batch, tuple(values))
    [result] = optimize_allocation([instance])
    print(json.dumps(result.as_dict(), indent=2))
    return 0


def cmd_memory(args) -> int:
    profile = load_profile(args.profile)
    amap = AllocationMap.from_bitstring(args.map)
    breakdown = total_memory(profile, amap, args.batch)
    print(json.dumps({
        "map": amap.to_bitstring(),
        "trainable_blocks": list(amap.trainable_indices),
        "batch": args.batch,
        **breakdown.as_dict(),
    }, indent=2))
    return 0


def cmd_report(args) -> int:
    summaries = generate_report(args.in_dir, args.out_dir)
    print(json.dumps({
        "out_dir": str(args.out_dir),
        "groups": [
            {"strategy": s.strategy, "aggregation": s.aggregation,
             "distribution": s.distribution, "seeds": list(s.seeds),
             "mean_final_accuracy": s.mean_final_accuracy}
            for s in summaries
        ],
    }, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedlorasim",
        description="Memory-constrained federated LoRA fine-tuning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a federated experiment from a config file")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="output directory (default runs/<label>)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("allocate", help="solve one client's module-selection knapsack")
    p.add_argument("--profile", required=True, help="model profile JSON")
    p.add_argument("--capacity", required=True, type=int, help="client memory budget in bytes")
    p.add_argument("--values", required=True,
                   help="per-module values: JSON file or comma-separated floats")
    p.add_argument("--batch", required=True, type=int, help="local batch size")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("memory", help="peak-memory breakdown for one allocation map")
    p.add_argument("--profile", required=True, help="model profile JSON")
    p.add_argument("--map", required=True, help="allocation bitstring, e.g. 000000111111")
    p.add_argument("--batch", required=True, type=int, help="local batch size")
    p.set_defaults(func=cmd_memory)

    p = sub.add_parser("report", help="aggregate run directories into tables")
    p.add_argument("--in", dest="in_dir", required=True, help="directory holding run outputs")
    p.add_argument("--out", dest="out_dir", required=True, help="directory for tables")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ReportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
