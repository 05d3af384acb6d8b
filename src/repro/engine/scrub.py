"""Offline integrity sweep over a whole engine directory.

:func:`scrub_directory` extends the single-file ``repro scrub`` to a
sharded engine directory: it validates the ``engine.json`` manifest,
checksum-sweeps every ``shard-*.pages`` file with
:func:`~repro.storage.scrub.scrub_page_file`, and cross-checks each
shard's committed header generation against the manifest's recorded
epoch generations.  Like the file-level scrub it never repairs
anything — a leftover save marker is *reported* but left for
``ShardedEngine.open()`` to resolve.

Every saved directory holds one base per shard
(``shard-NNN.pages.base``, the copy committed at the manifest epoch);
a torn save is recoverable exactly when every base passes
:func:`~repro.engine.engine.base_is_valid`.  Warm-worker directories
additionally hold per-shard write-ahead logs (``shard-NNN.wal``); the
sweep CRC-checks every WAL record, cross-checks the WAL's epoch against
the manifest (a WAL *ahead* of the committed epoch is damage — replay
would apply writes the manifest never acknowledged; a WAL *behind* is
merely stale and is reset at the next worker start), reports torn tails
(expected after a crash; resume truncates them) and flags orphan WALs
whose shard id exceeds the manifest's shard count.
"""

from __future__ import annotations

import dataclasses
import os
import re

from ..storage.errors import StorageError
from ..storage.scrub import ScrubReport, scrub_page_file
from .engine import (_GEN_DIR_PREFIX, _MANIFEST_NAME, _PREPARE_NAME,
                     _load_prepare, _shard_file_name, base_is_valid,
                     generation_dir, load_manifest, probe_prepare_state)
from .errors import EngineError, WalCorruptError
from .wal import read_wal, wal_file_name

_WAL_NAME_RE = re.compile(r"^shard-(\d{3})\.wal$")


@dataclasses.dataclass
class DirectoryScrubReport:
    """Result of sweeping one engine directory.

    Attributes:
        path: the directory swept.
        manifest_ok: True if ``engine.json`` parsed and validated.
        problems: directory-level findings — unreadable manifest,
            missing or unrecognisable shard files, shards behind the
            manifest's recorded generations.
        notes: non-fatal observations (e.g. a leftover save marker,
            which ``ShardedEngine.open()`` recovers, or a stale/torn
            WAL that worker recovery resets or truncates).
        reports: per-shard file sweeps, in shard-id order (missing
            files have no report; see ``problems``).
        wal_records: replayable (CRC-whole, current-epoch) WAL records
            per swept WAL file, keyed by file name.
    """

    path: str
    manifest_ok: bool
    problems: list[str]
    notes: list[str]
    reports: list[ScrubReport]
    wal_records: dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True if the manifest and every shard file check out."""
        return self.manifest_ok and not self.problems \
            and all(report.ok for report in self.reports)

    def render(self) -> str:
        state = "manifest ok" if self.manifest_ok else "manifest INVALID"
        lines = [f"{self.path}: engine directory, {state}, "
                 f"{len(self.reports)} shard file(s) swept"]
        for name in sorted(self.wal_records):
            lines.append(f"  wal {name}: "
                         f"{self.wal_records[name]} replayable record(s)")
        for note in self.notes:
            lines.append(f"  note: {note}")
        for problem in self.problems:
            lines.append(f"  PROBLEM: {problem}")
        for report in self.reports:
            lines.extend("  " + line for line in
                         report.render().splitlines())
        verdict = "clean" if self.ok else "CORRUPT"
        lines.append(f"  directory verdict: {verdict}")
        return "\n".join(lines)


def scrub_directory(path: str | os.PathLike[str]) -> DirectoryScrubReport:
    """Sweep every shard file of an engine directory plus its manifest."""
    path = os.fspath(path)
    problems: list[str] = []
    notes: list[str] = []
    reports: list[ScrubReport] = []
    manifest = None
    manifest_path = os.path.join(path, _MANIFEST_NAME)
    try:
        manifest = load_manifest(manifest_path)
    except EngineError as exc:
        problems.append(str(exc))
    shard_dir = generation_dir(
        path, manifest["generation"] if manifest is not None else 0)
    if os.path.exists(os.path.join(path, _PREPARE_NAME)):
        _classify_marker(path, shard_dir, manifest, problems, notes)
    _note_staged_generations(path, manifest, notes)
    if manifest is not None:
        shard_files = [_shard_file_name(shard_id)
                       for shard_id in range(manifest["n_shards"])]
    else:
        # No usable manifest: sweep whatever shard files are present.
        shard_files = sorted(
            name for name in os.listdir(path)
            if name.startswith("shard-") and name.endswith(".pages")
        ) if os.path.isdir(path) else []
    for shard_id, name in enumerate(shard_files):
        shard_path = os.path.join(shard_dir, name)
        if not os.path.exists(shard_path):
            problems.append(f"shard file {name} is missing")
            continue
        try:
            report = scrub_page_file(shard_path)
        except (StorageError, OSError) as exc:
            problems.append(f"shard file {name} cannot be swept: {exc}")
            continue
        reports.append(report)
        if manifest is not None:
            recorded = manifest["shards"][shard_id]
            head = report.committed
            observed = head.generation if head is not None else None
            if observed is not None and observed < recorded:
                problems.append(
                    f"shard file {name} is behind the manifest: committed "
                    f"generation {observed} < recorded {recorded}")
    wal_records = _scrub_wals(shard_dir, manifest, problems, notes)
    return DirectoryScrubReport(path=path, manifest_ok=manifest is not None,
                                problems=problems, notes=notes,
                                reports=reports, wal_records=wal_records)


def _classify_marker(path: str, shard_dir: str, manifest: dict | None,
                     problems: list[str], notes: list[str]) -> None:
    """Classify a leftover PREPARE marker the way ``open()`` would.

    Runs the predicates :meth:`InProcessBackend._recover_epoch` runs
    (:func:`probe_prepare_state`, :func:`base_is_valid`) without writing
    anything: a marker that rolls back, rolls forward, or restores bases
    that all pass the base rule is a *note* (recovery is
    deterministic), while a torn save with any base failing it is a
    *problem* — ``open()`` would raise :class:`EpochTornError`.
    """
    marker_path = os.path.join(path, _PREPARE_NAME)
    try:
        prepare = _load_prepare(marker_path)
    except EngineError as exc:
        problems.append(str(exc))
        return
    if prepare is None:  # pragma: no cover - raced unlink
        return
    if manifest is None:
        notes.append(
            f"interrupted save marker {_PREPARE_NAME} present; "
            f"ShardedEngine.open() will roll it back or forward")
        return
    epoch: int = manifest["epoch"]
    if prepare["n_shards"] != manifest["n_shards"] \
            or prepare["epoch"] not in (epoch, epoch + 1):
        problems.append(
            f"save marker {_PREPARE_NAME} is inconsistent with the "
            f"manifest (marker epoch {prepare['epoch']} / "
            f"{prepare['n_shards']} shard(s) vs manifest epoch {epoch} "
            f"/ {manifest['n_shards']} shard(s)); open() refuses the "
            f"directory")
        return
    if prepare["epoch"] == epoch:
        notes.append(
            f"save marker {_PREPARE_NAME} outlived its committed epoch "
            f"{epoch}; open() finishes the cleanup")
        return
    shard_paths = [os.path.join(shard_dir, _shard_file_name(shard_id))
                   for shard_id in range(manifest["n_shards"])]
    _, committed, pending = probe_prepare_state(prepare, shard_paths)
    if not committed:
        notes.append(
            f"interrupted save marker for epoch {prepare['epoch']}: no "
            f"shard committed it; open() rolls the directory back")
        return
    if not pending:
        notes.append(
            f"interrupted save marker for epoch {prepare['epoch']}: "
            f"every shard committed it; open() rolls the manifest "
            f"forward")
        return
    invalid = [shard_id for shard_id in range(manifest["n_shards"])
               if not base_is_valid(shard_dir, shard_id,
                                    manifest["shards"][shard_id])]
    if not invalid:
        notes.append(
            f"torn save of epoch {prepare['epoch']} (shards {committed} "
            f"committed, {pending} pending) is RECOVERABLE: every shard "
            f"passes the base rule at epoch {epoch}; open() restores "
            f"them and rolls back")
        return
    problems.append(
        f"torn save of epoch {prepare['epoch']}: shards {committed} "
        f"committed it, shards {pending} did not, and the bases of "
        f"shards {invalid} do not hold epoch {epoch}; open() raises "
        f"EpochTornError (restore the directory from backup)")


def _note_staged_generations(path: str, manifest: dict | None,
                             notes: list[str]) -> None:
    """Note ``gen-*`` directories the manifest does not point at.

    A crashed reshard leaves its half-built target generation behind;
    ``open()`` never looks inside it and the next reshard clears it, so
    the debris is informational only.
    """
    if not os.path.isdir(path):
        return
    live = manifest["generation"] if manifest is not None else None
    for name in sorted(os.listdir(path)):
        if not name.startswith(_GEN_DIR_PREFIX) \
                or not os.path.isdir(os.path.join(path, name)):
            continue
        suffix = name[len(_GEN_DIR_PREFIX):]
        if live is not None and suffix.isdigit() and int(suffix) == live:
            continue
        notes.append(
            f"staged generation directory {name} is not referenced by "
            f"the manifest (crashed reshard?); open() ignores it and "
            f"the next reshard clears it")


def _scrub_wals(path: str, manifest: dict | None, problems: list[str],
                notes: list[str]) -> dict[str, int]:
    """CRC-sweep every write-ahead log in the directory.

    Appends findings to ``problems``/``notes`` in place and returns the
    replayable-record count per WAL file name.
    """
    wal_records: dict[str, int] = {}
    if not os.path.isdir(path):
        return wal_records
    n_shards = manifest["n_shards"] if manifest is not None else None
    epoch = manifest["epoch"] if manifest is not None else None
    for name in sorted(os.listdir(path)):
        match = _WAL_NAME_RE.match(name)
        if match is None:
            continue
        shard_id = int(match.group(1))
        wal_path = os.path.join(path, name)
        if n_shards is not None and shard_id >= n_shards:
            problems.append(
                f"orphan WAL {name}: manifest records only {n_shards} "
                f"shard(s)")
        try:
            scan = read_wal(wal_path)
        except WalCorruptError as exc:
            problems.append(f"WAL {name} is corrupt: {exc.reason}")
            continue
        except OSError as exc:
            problems.append(f"WAL {name} cannot be read: {exc}")
            continue
        wal_records[name] = len(scan.records)
        if scan.torn:
            torn = scan.total_bytes - scan.valid_bytes
            notes.append(
                f"WAL {name} has a torn tail ({torn} unacknowledged "
                f"byte(s)); worker recovery truncates it")
        if epoch is None:
            continue
        if scan.epoch > epoch:
            problems.append(
                f"WAL {name} claims epoch {scan.epoch} ahead of the "
                f"manifest's committed epoch {epoch}; replaying it would "
                f"apply writes the manifest never acknowledged")
        elif scan.epoch < epoch:
            notes.append(
                f"WAL {name} is stale (epoch {scan.epoch} < manifest "
                f"epoch {epoch}); worker recovery resets it")
        elif n_shards is not None and shard_id < n_shards \
                and not os.path.exists(
                    os.path.join(path, _shard_file_name(shard_id))) \
                and epoch > 0:
            problems.append(
                f"WAL {name} is current but its page file "
                f"{_shard_file_name(shard_id)} is missing")
    if manifest is not None:
        missing = [wal_file_name(shard_id)
                   for shard_id in range(manifest["n_shards"])
                   if not os.path.exists(
                       os.path.join(path, wal_file_name(shard_id)))]
        if missing and len(missing) < manifest["n_shards"]:
            notes.append(
                f"{len(missing)} shard(s) have no WAL "
                f"({', '.join(missing)}); a worker start creates them")
    return wal_records
