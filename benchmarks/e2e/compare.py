"""``compare A B``: did anything move between two sets of runs?

Each argument is a directory ``run --out`` appended to (``runs.jsonl``,
one JSON line per run).  For every metric x workload row this prints
both medians and quartiles, the ratio with its base, the bound, and a
verdict:

``improved``    B wins at least nine tenths of the seed-matched pairs
                (ties count for neither) *and* the medians differ by
                more than A's own inter-quartile distance;
``regressed``   B's median is worse than A's by more than the bound;
``unresolved``  either side's inter-quartile distance is wider than the
                bound, so "no worse than the bound" cannot be shown;
``unchanged``   otherwise.

The exit code is 1 only if a *gated* row (``spec.END_TO_END``) regressed.

Runs are only comparable if they were sent identical bytes: a
(workload, seed) pair whose ``input_digest`` differs between A and B is
refused.
"""

from __future__ import annotations

import json
from pathlib import Path

from .spec import END_TO_END, EXTRA_END_TO_END, WORKLOADS, listed
from .stats import Quartiles, quartiles

MIN_RUNS = 5
RUNS_FILE = "runs.jsonl"


class NotComparable(ValueError):
    """The two result sets cannot be held against each other."""


def load_runs(directory: str | Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> the *last* run recorded for that pair."""
    path = Path(directory) / RUNS_FILE
    if not path.exists():
        raise NotComparable(f"{path} does not exist")
    runs: dict[str, dict[int, dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def worsening(metric_better: str, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of base
    (negative = better)."""
    if not base:
        return 0.0 if other == base else float("inf")
    change = (other - base) / abs(base)
    return change if metric_better == "lower" else -change


def verdict(better: str, bound: float | None, a: list[float],
            b: list[float], qa: Quartiles, qb: Quartiles) -> str:
    worse = worsening(better, qa.median, qb.median)
    if bound is None:
        # Step and exact metrics: any move for the worse is a regression.
        return ("regressed" if worse > 0 else
                "improved" if worse < 0 else "unchanged")
    wins = sum(1 for x, y in zip(a, b, strict=True)
               if worsening(better, x, y) < 0)
    losses = sum(1 for x, y in zip(a, b, strict=True)
                 if worsening(better, x, y) > 0)
    if wins >= 0.9 * len(a) and wins > losses \
            and abs(qb.median - qa.median) > qa.q3 - qa.q1:
        return "improved"
    if worse > bound:
        return "regressed"
    if max(qa.spread, qb.spread) > bound:
        return "unresolved"
    return "unchanged"


def compare(dir_a: str, dir_b: str) -> tuple[list[dict], list[str]]:
    """Rows (one per metric x workload present on both sides) and the
    lines of the printed report."""
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    rows: list[dict] = []
    for workload in WORKLOADS:
        side_a = runs_a.get(workload.name, {})
        side_b = runs_b.get(workload.name, {})
        seeds = sorted(set(side_a) & set(side_b))
        if not seeds:
            continue
        if len(seeds) < MIN_RUNS:
            raise NotComparable(
                f"{workload.name}: {len(seeds)} seeds in common, "
                f"need {MIN_RUNS}")
        for seed in seeds:
            if side_a[seed]["input_digest"] != side_b[seed]["input_digest"]:
                raise NotComparable(
                    f"{workload.name} seed {seed}: input digests differ "
                    f"({side_a[seed]['input_digest'][:12]} vs "
                    f"{side_b[seed]['input_digest'][:12]}); the two "
                    f"commits were not sent the same requests")
        for metric in END_TO_END + EXTRA_END_TO_END:
            a = [side_a[s]["metrics"][metric.name]["value"]
                 for s in seeds if metric.name in side_a[s]["metrics"]]
            b = [side_b[s]["metrics"][metric.name]["value"]
                 for s in seeds if metric.name in side_b[s]["metrics"]]
            if len(a) != len(seeds) or len(b) != len(seeds):
                continue
            qa, qb = quartiles(a), quartiles(b)
            rows.append({
                "workload": workload.name, "metric": metric.name,
                "unit": metric.unit, "listed": listed(metric.name,
                                                      workload.name),
                "gated": metric in END_TO_END,
                "a": qa, "b": qb, "n": len(seeds),
                "ratio": qb.median / qa.median if qa.median else None,
                "bound": metric.bound,
                "verdict": verdict(metric.better, metric.bound, a, b,
                                   qa, qb)})
    return rows, _render(rows, dir_a, dir_b)


def _render(rows: list[dict], dir_a: str, dir_b: str) -> list[str]:
    lines = [f"A = {dir_a}   B = {dir_b}   "
             f"(median [q1..q3]; ratio = B/A, base A)",
             "rows marked * fill a cell the ISSUE's table left empty, "
             "rows marked ~ are demoted: reported, not gated (README)"]
    current = ""
    for row in rows:
        if row["workload"] != current:
            current = row["workload"]
            lines.append(f"\n{current}  (n={row['n']} seeds)")
        qa, qb = row["a"], row["b"]
        ratio = "  n/a" if row["ratio"] is None else f"{row['ratio']:5.3f}"
        bound = "step " if row["bound"] is None \
            else f"{row['bound']:5.2f}"
        mark = "~" if not row["gated"] else \
            " " if row["listed"] else "*"
        lines.append(
            f" {mark}{row['metric']:26s} {row['unit']:5s} "
            f"A {qa.median:11.4f} [{qa.q1:.4g}..{qa.q3:.4g}]  "
            f"B {qb.median:11.4f} [{qb.q1:.4g}..{qb.q3:.4g}]  "
            f"B/A {ratio}  bound {bound}  {row['verdict']}")
    return lines
