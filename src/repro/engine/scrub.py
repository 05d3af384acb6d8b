"""Offline integrity sweep over a whole engine directory.

:func:`scrub_directory` is the checksum sweep plus the recovery plan:
it checksum-sweeps every shard's page file and base with
:func:`~repro.storage.scrub.scrub_page_file` and prints what ``open()``
would do (:func:`~repro.engine.recovery.plan_recovery`, the one place
the recovery rules live).  It never repairs anything.  A directory
fails the scrub when the plan refuses it, when a page file the plan
opens is damaged or missing, or when a base — the copy recovery
restores — is damaged.  A page file the plan replaces (restore base,
reset to empty) may hold uncommitted pages: that is why it is replaced.
"""

from __future__ import annotations

import dataclasses
import os

from ..storage.errors import StorageError
from ..storage.scrub import ScrubReport, scrub_page_file
from .recovery import (CLEAN, GEN_DIR_PREFIX, OPEN, REFRESH, REFUSE, RESET,
                       RESTORE_ROLL_BACK, RecoveryPlan, generation_dir,
                       plan_recovery, shard_file_name)
from .wal import base_file_name


@dataclasses.dataclass
class DirectoryScrubReport:
    """Result of sweeping one engine directory.

    Attributes:
        path: the directory swept.
        plan: the recovery plan ``open()`` would execute.
        problems: what fails the scrub — the plan's refusal, damaged or
            missing files.
        notes: non-fatal observations — the plan's action when it is
            not clean, staged generation directories.
        reports: per-shard page-file sweeps, in shard-id order (missing
            files have no report; see ``problems``).
        base_reports: the sweeps of the shards' bases.
    """

    path: str
    plan: RecoveryPlan
    problems: list[str]
    notes: list[str]
    reports: list[ScrubReport]
    base_reports: list[ScrubReport]

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
        for report in self.reports + self.base_reports:
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
    notes = [f"{plan.action}: {plan.reason}"] \
        if plan.action not in (CLEAN, REFUSE) else []
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
    base_reports: list[ScrubReport] = []

    def sweep(file: str, into: list[ScrubReport], counts: bool) -> None:
        try:
            into.append(scrub_page_file(os.path.join(shard_dir, file)))
        except (StorageError, OSError) as exc:
            problems.append(f"shard file {file} cannot be swept: {exc}")
        else:
            if counts and not into[-1].ok:
                problems.append(f"shard file {file} is damaged")

    for sid, name in enumerate(names):
        shard = shards.get(sid)
        if os.path.exists(os.path.join(shard_dir, name)):
            sweep(name, reports, shard is None or (
                shard.pages in (OPEN, REFRESH)
                and plan.action != RESTORE_ROLL_BACK))
        elif shard is None or shard.pages != RESET:
            problems.append(f"shard file {name} is missing")
        if os.path.exists(os.path.join(shard_dir, base_file_name(sid))):
            sweep(base_file_name(sid), base_reports, True)
    live = os.path.basename(shard_dir)
    notes += [f"staged generation directory {name} is not referenced by "
              f"the manifest (crashed reshard?); open() ignores it and the "
              f"next reshard clears it" for name in listing
              if name.startswith(GEN_DIR_PREFIX) and name != live
              and os.path.isdir(os.path.join(path, name))]
    return DirectoryScrubReport(path, plan, problems, notes, reports,
                                base_reports)
