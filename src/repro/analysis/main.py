"""Shared driver behind ``python -m repro.analysis`` and ``repro lint``."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import IO, Iterable, Sequence

from .formats import FORMATS, render_github
from .registry import all_rules
from .runner import lint_paths

DEFAULT_PATHS = ("src",)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the lint options (shared with the ``repro lint`` CLI)."""
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to lint (default: src)")
    parser.add_argument("--select", default=None, metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--format", default="text", choices=FORMATS,
                        dest="output_format",
                        help="report format: text (default) or github "
                             "(workflow-command annotations)")
    parser.add_argument("--verbose", action="store_true",
                        help="report file count and wall time on stderr")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")


def run_lint(args: argparse.Namespace,
             out: IO[str] | None = None) -> int:
    """Execute a lint run described by parsed ``args``; returns exit code."""
    stream = out if out is not None else sys.stdout

    def emit(line: str = "") -> None:
        print(line, file=stream)

    if args.list_rules:
        for rule in all_rules():
            emit(f"{rule.rule_id}  {rule.title}")
            emit(f"      {rule.rationale}")
        return 0

    selected: Iterable[str] | None = None
    if args.select:
        selected = {rule_id.strip() for rule_id in args.select.split(",")}
    rules = all_rules() if selected is None else [
        rule for rule in all_rules() if rule.rule_id in selected]

    started = time.monotonic()
    findings = lint_paths(args.paths, root=Path.cwd(), rules=rules)
    if args.verbose:
        elapsed = time.monotonic() - started
        print(f"[repro lint] {len(rules)} rule(s), {elapsed:.2f}s wall",
              file=sys.stderr)

    lines = render_github(findings) if args.output_format == "github" \
        else [finding.render() for finding in findings]
    for line in lines:
        emit(line)
    if findings:
        emit(f"{len(findings)} finding(s)")
        return 1
    emit("ok")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-invariant lint for the SWST reproduction")
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))
