"""Offline integrity sweep over a whole engine directory.

:func:`scrub_directory` is the checksum sweep plus the recovery plan:
it prints what ``open()`` would do
(:func:`~repro.engine.recovery.plan_recovery`, the one place the
recovery rules live) and checksum-sweeps every shard's page file at
the generation the plan opens
(:func:`~repro.storage.scrub.scrub_page_file`).  It never repairs
anything.  A directory fails the scrub when the plan refuses it, or
when a page file the plan opens is damaged or missing.  A page file the
plan resets to empty is not swept: nothing in it is read.
"""

from __future__ import annotations

import dataclasses
import os

from ..storage.errors import StorageError
from ..storage.scrub import ScrubReport, scrub_page_file
from .recovery import (GEN_DIR_PREFIX, OPEN, RESET, RecoveryPlan,
                       generation_dir, plan_recovery, shard_file_name)


@dataclasses.dataclass
class DirectoryScrubReport:
    """Result of sweeping one engine directory.

    Attributes:
        path: the directory swept.
        plan: the recovery plan ``open()`` would execute.
        problems: what fails the scrub — the plan's refusal, damaged or
            missing files.
        notes: non-fatal observations — staged generation directories.
        reports: per-shard page-file sweeps, in shard-id order (missing
            or reset files have no report).
    """

    path: str
    plan: RecoveryPlan
    problems: list[str]
    notes: list[str]
    reports: list[ScrubReport]

    @property
    def manifest_ok(self) -> bool:
        return self.plan.manifest is not None

    @property
    def ok(self) -> bool:
        return self.manifest_ok and not self.problems

    def render(self) -> str:
        state = "manifest ok" if self.manifest_ok else "manifest INVALID"
        lines = [f"{self.path}: engine directory, {state}, "
                 f"{len(self.reports)} shard file(s) swept",
                 *self.plan.render().splitlines()]
        lines += [f"note: {note}" for note in self.notes]
        lines += [f"PROBLEM: {problem}" for problem in self.problems]
        for report in self.reports:
            lines.extend(report.render().splitlines())
        lines.append("directory verdict: "
                     + ("clean" if self.ok else "CORRUPT"))
        return "\n  ".join(lines)


def scrub_directory(path: str | os.PathLike[str]) -> DirectoryScrubReport:
    """Plan the directory's recovery and sweep every shard file."""
    path = os.fspath(path)
    plan = plan_recovery(path)
    errors = [plan.error] if plan.error else \
        [shard.error for shard in plan.shards if shard.error]
    problems = [f"open() raises {type(error).__name__}: "
                f"{plan.reason if plan.error else error}" for error in errors]
    manifest = plan.manifest
    listing = sorted(os.listdir(path)) if os.path.isdir(path) else []
    generation = manifest["generation"] if manifest else 0
    shard_dir = generation_dir(path, generation)
    names = [shard_file_name(sid) for sid in range(manifest["n_shards"])] \
        if manifest else [name for name in listing
                          if name.startswith("shard-")
                          and name.endswith(".pages")]
    shards = {shard.shard_id: shard for shard in plan.shards}
    reports: list[ScrubReport] = []
    for sid, name in enumerate(names):
        shard = shards.get(sid)
        file = os.path.join(shard_dir, name)
        if shard is not None and shard.pages == RESET:
            continue
        if not os.path.exists(file):
            problems.append(f"shard file {name} is missing")
            continue
        try:
            reports.append(scrub_page_file(
                file, shard.recorded if shard is not None
                and shard.pages == OPEN else None))
        except (StorageError, OSError) as exc:
            problems.append(f"shard file {name} cannot be swept: {exc}")
            continue
        if not reports[-1].ok and (shard is None or shard.pages == OPEN):
            problems.append(f"shard file {name} is damaged")
    live = os.path.basename(shard_dir)
    notes = [f"staged generation directory {name} is not referenced by "
             f"the manifest (crashed reshard?); open() ignores it and the "
             f"next reshard clears it" for name in listing
             if name.startswith(GEN_DIR_PREFIX) and name != live
             and os.path.isdir(os.path.join(path, name))]
    return DirectoryScrubReport(path, plan, problems, notes, reports)
