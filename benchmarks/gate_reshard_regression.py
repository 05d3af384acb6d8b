"""CI gate: resharding must not regress >20% vs the committed
``BENCH_reshard.json``.

Re-runs :func:`benchmarks.bench_reshard.run_reshard_bench` on the
current tree and compares the *ratio* metric (4->16 generation-flip
reshard over a full 16-shard rebuild) against the committed record.
The ratio is machine-independent — both sides are measured on the same
host in the same process — so the gate is meaningful on any CI runner.
A ratio more than 20% below the committed value fails the gate.

``read_availability`` (query throughput during an online reshard over
quiesced throughput) is checked against an absolute floor instead of a
regression ratio: its headline value rides on cache warmth, so
gate-to-committed would flake, but a collapse below the floor means
reads are stalling on the build — exactly the regression the online
protocol exists to prevent.  Absolute seconds/qps numbers are reported
but never gated.

The floor is 0.25, set from the minimum of seven runs on the tree that
made temporal classification closed-form (0.33–0.54).  It used to be
0.5 against readings of 1.0–1.4, and that ratio above 1 was an
artefact: quiesced reads were bound by the old per-partition
classifier (216–255 q/s), while reads beside the build are bound by
GIL hand-offs with the build thread (265–299 q/s) whatever a read
costs.  The closed form tripled the denominator (467–873 q/s quiesced)
and left the numerator where it was (230–372 q/s), so the *ratio* fell
while availability in absolute terms did not.  Reads that really stall
on the build drive the ratio towards 0, which 0.25 still catches.

``speedup_vs_rebuild`` was re-recorded 5.07 -> 3.77 when the ingest
path stopped re-deriving each record's constants and key material (PR
22).  The rebuild side of the ratio *is* that ingest path (1.92-2.07 s
at the parent -> 1.41-1.61 s on the same machine); the reshard side
streams entries through the generic ``_physical_insert`` plus file
copies and saves and did not move (0.41-0.43 s -> 0.38-0.45 s).  Seven
readings on the change: 3.26-4.22 (parent, same session: 4.71-4.94) —
the alternative got cheaper, resharding did not get slower.

Usage::

    PYTHONPATH=src python benchmarks/gate_reshard_regression.py
    PYTHONPATH=src python benchmarks/gate_reshard_regression.py --tolerance 0.2
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bench_reshard import RESULT_PATH, run_reshard_bench  # noqa: E402

#: Ratio metrics gated against the committed record.
GATED = ("speedup_vs_rebuild",)

#: Online reads must keep at least this fraction of quiesced throughput.
AVAILABILITY_FLOOR = 0.25


def check_regression(committed: dict, fresh: dict,
                     tolerance: float) -> list[str]:
    """Return one message per gated metric regressing past ``tolerance``."""
    problems = []
    for metric in GATED:
        baseline = committed[metric]
        current = fresh[metric]
        floor = baseline * (1.0 - tolerance)
        if current < floor:
            problems.append(
                f"{metric}: {current:.2f} is more than "
                f"{tolerance:.0%} below the committed {baseline:.2f} "
                f"(floor {floor:.2f})")
    if fresh["read_availability"] < AVAILABILITY_FLOOR:
        problems.append(
            f"read_availability: {fresh['read_availability']:.2f} is "
            f"below the floor {AVAILABILITY_FLOOR:.2f} — reads are "
            f"stalling on the online reshard build")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional regression (default 0.2)")
    parser.add_argument("--committed", type=pathlib.Path,
                        default=RESULT_PATH,
                        help="committed BENCH_reshard.json to gate against")
    args = parser.parse_args(argv)

    committed = json.loads(args.committed.read_text())
    fresh = run_reshard_bench()
    print(json.dumps(fresh, indent=2))

    if committed.get("scale") != fresh.get("scale"):
        print(f"note: committed record is {committed.get('scale')!r} "
              f"scale, fresh run is {fresh.get('scale')!r}; ratios are "
              f"still comparable but absolute numbers are not")
    problems = check_regression(committed, fresh, args.tolerance)
    for problem in problems:
        print(f"REGRESSION: {problem}")
    if problems:
        return 1
    summary = ", ".join(f"{m}={fresh[m]:.2f} (committed {committed[m]:.2f})"
                        for m in GATED)
    print(f"reshard gate passed: {summary}, "
          f"read_availability={fresh['read_availability']:.2f} "
          f"(floor {AVAILABILITY_FLOOR:.2f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
