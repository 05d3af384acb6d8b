"""Command line of the end-to-end benchmark.

``bench``    one workload, one seed, the driver's contract: the last
             stdout line is ``{"correct", "attempted", "failed",
             "metrics"}`` (BENCHMARK.json names this sub-command);
``run``      all (or some) workloads once, every end-to-end metric by
             name with unit and sample count; ``--out DIR`` appends one
             JSON line per run; exits non-zero if anything failed;
``trace``    the same workloads traced: every per-layer metric and the
             blocking self-time table per layer;
``compare``  two ``--out`` directories, one verdict per metric x
             workload row.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from .compare import RUNS_FILE, NotComparable, compare
from .layers import per_layer_metrics
from .spec import (END_TO_END, EXTRA_END_TO_END, PER_LAYER, RUN_SECONDS,
                   STOP_GRACE_S, WORKLOAD_BY_NAME, WORKLOADS, Sizes,
                   Workload, listed)
from .workloads import QUICK_GRACE_S, RunResult, contract_line, run_workload

ROOT = Path(__file__).resolve().parents[2]


def work_root() -> Path:
    """Scratch space inside the checkout (the driver's build directory)."""
    return Path.cwd() / ".bench_build" / "e2e"


def print_end_to_end(result: RunResult) -> None:
    print(f"== {result.workload}  seed {result.seed}  "
          f"input_digest {result.digest[:16]}  "
          f"attempted {result.attempted}  failed {result.failed}")
    for metric in END_TO_END + EXTRA_END_TO_END:
        got = result.metrics.get(metric.name)
        if got is None:
            continue
        notes = [] if listed(metric.name, result.workload) \
            else ["fills an unlisted cell"]
        if not got.valid:
            notes.append("too few samples for this percentile")
        raw = "" if got.raw is None else f" raw {got.raw:<12.4f}"
        print(f"  {metric.name:28s} {got.value:14.4f} {metric.unit:5s} "
              f"n={got.samples:<6d}{raw}"
              + ("  (" + "; ".join(notes) + ")" if notes else ""))
    print("  machine speed factor by phase (1 = reference, higher = "
          "slower): " + ", ".join(f"{phase} {factor:.3f}" for phase, factor
                                  in result.speed.items()))
    for step in result.steps:
        print(f"    step {step['rate']:4d}/s for {step['seconds']:g}s: "
              f"sent {step['sent']}, {step['completed_per_s']:.1f}/s "
              f"done, p50 {step['p50_ms']:.1f} ms, p95 "
              f"{step['p95_ms']:.1f} ms from due, queued at end "
              f"{step['queued_at_end']}, gateway ack p50 "
              f"{step['extend_ack_p50_ms']:.1f} ms, in SLO: "
              f"{step['in_slo']}")


def traced_run(workload: Workload, seed: int, sizes: Sizes,
               keep: Path | None = None
               ) -> tuple[RunResult, dict[str, float], dict[str, float]]:
    """The untraced reference pass, then the traced pass: ``(untraced
    result, per-layer metrics, blocking self time per layer in µs)``."""
    once = replace(sizes, setup_reps=1, crash_reps=1, crash_reps_workers=1)
    untraced = run_workload(workload, seed, once, work_root())
    grace = STOP_GRACE_S if workload.workers else QUICK_GRACE_S
    traced = run_workload(workload, seed, once,
                          work_root(), trace=True, final_grace=grace,
                          keep_trace=keep)
    metrics, table = per_layer_metrics(workload, traced, untraced)
    untraced.attempted += traced.attempted
    untraced.failed += traced.failed
    return untraced, metrics, table


def print_per_layer(workload: str, metrics: dict[str, float],
                    table: dict[str, float]) -> None:
    print(f"== {workload}  per-layer metrics (traced run)")
    for metric in PER_LAYER:
        print(f"  {metric.name:48s} {metrics[metric.name]:14.4f} "
              f"{metric.unit}")
    total = sum(table.values()) or 1.0
    print(f"  -- blocking self time per layer, build + read phases "
          f"({total / 1e6:.2f} s of client round trips)")
    for layer, us in sorted(table.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:24s} {us / 1e6:9.3f} s  {us / total:6.1%}")


def cmd_bench(args: argparse.Namespace) -> int:
    workload = WORKLOAD_BY_NAME[args.workload]
    sizes = Sizes.for_seconds(args.seconds)
    if args.trace:
        result, metrics, table = traced_run(workload, args.seed, sizes)
        print_per_layer(workload.name, metrics, table)
        units = {m.name: m.unit for m in PER_LAYER}
        per_layer = {name: {"value": value, "unit": units[name]}
                     for name, value in metrics.items()}
        print(contract_line(result, per_layer), flush=True)
    else:
        result = run_workload(workload, args.seed, sizes, work_root())
        print_end_to_end(result)
        print(contract_line(result, None), flush=True)
    return 0


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _selected(names: str | None) -> list[Workload]:
    if not names:
        return list(WORKLOADS)
    return [WORKLOAD_BY_NAME[name] for name in names.split(",")]


def cmd_run(args: argparse.Namespace) -> int:
    sizes = Sizes.for_seconds(args.seconds)
    failed = 0
    for workload in _selected(args.workloads):
        result = run_workload(workload, args.seed, sizes, work_root())
        print_end_to_end(result)
        failed += result.failed
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            record = {"commit": _commit(), **result.record()}
            with open(out / RUNS_FILE, "a") as handle:
                handle.write(json.dumps(record) + "\n")
    return 1 if failed else 0


def cmd_trace(args: argparse.Namespace) -> int:
    sizes = Sizes.for_seconds(args.seconds)
    failed = 0
    for workload in _selected(args.workloads):
        result, metrics, table = traced_run(
            workload, args.seed, sizes,
            Path(args.keep) if args.keep else None)
        print_per_layer(workload.name, metrics, table)
        failed += result.failed
    return 1 if failed else 0


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        rows, lines = compare(args.a, args.b)
    except NotComparable as exc:
        print(f"not comparable: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if any(r["verdict"] == "regressed" and r["gated"]
                    for r in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    bench = commands.add_parser("bench", help="one workload, one seed, "
                                "contract JSON on the last line")
    bench.add_argument("--workload", required=True,
                       choices=sorted(WORKLOAD_BY_NAME))
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--seconds", type=float, default=RUN_SECONDS)
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)
    bench.set_defaults(func=cmd_bench)

    for name, func, text in (
            ("run", cmd_run, "every end-to-end metric, all workloads"),
            ("trace", cmd_trace, "every per-layer metric, all workloads")):
        sub = commands.add_parser(name, help=text)
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--seconds", type=float, default=RUN_SECONDS)
        sub.add_argument("--workloads", default=None,
                         help="comma-separated subset (default: all)")
        if name == "run":
            sub.add_argument("--out", default=None, metavar="DIR",
                             help="append one JSON line per run to "
                                  f"DIR/{RUNS_FILE}")
        else:
            sub.add_argument("--keep", default=None, metavar="DIR",
                             help="keep the raw span dumps under DIR")
        sub.set_defaults(func=func)

    cmp_ = commands.add_parser("compare", help="two --out directories")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
