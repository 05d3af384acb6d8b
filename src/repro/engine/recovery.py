"""Recovery decided once: a read-only plan that ``open()`` executes.

:func:`plan_recovery` reads everything an ``open()`` depends on — the
manifest, the PREPARE marker a crashed save left, passive header probes
of every page file and base (:mod:`repro.storage.scrub`; opening a page
file commits a header, which would destroy the evidence), and the
write-ahead logs — and decides the whole recovery without writing a
byte: one directory action, and per shard a page-file action and a WAL
action.  :func:`execute` then does the directory's writes and
:func:`open_shard` each shard's.  ``ShardedEngine.open``,
``WorkerEngine.open`` (each worker plans and opens its own shard, so
every WAL is decoded once, in parallel), the worker backend's
``abort_commit`` and the reshard precondition all go through here, and
``repro scrub`` prints the same plan.  The rules — directory state,
action, typed error — are the tables under "Two-phase epoch commit" in
``docs/internals.md``; this module is their only implementation.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Iterable

from ..core.config import SWSTConfig
from ..core.index import SWSTIndex
from ..storage.errors import CorruptPageFileError, UnsupportedFormatError
from ..storage.fileops import FileOps
from ..storage.scrub import probe_committed_generation, probe_open
from .errors import (EngineError, EpochTornError, ShardOpenError,
                     WalCorruptError)
from .wal import WalScan, base_file_name, read_wal, wal_file_name

MANIFEST_NAME = "engine.json"
PREPARE_NAME = "engine.prepare.json"
MANIFEST_FORMAT = 2
GEN_DIR_PREFIX = "gen-"

# Directory actions.
CLEAN = "clean"
FINISH_CLEANUP = "finish the lost cleanup"
ROLL_FORWARD = "roll forward"
ROLL_BACK = "roll back"
RESTORE_ROLL_BACK = "restore bases and roll back"
REFUSE = "refuse"
# Page-file actions (plus REFUSE).
OPEN = "open"
REFRESH = "refresh base, open"
RESTORE = "restore base"
RESET = "reset to empty"
# WAL actions (plus REFUSE).
NO_WAL = "no WAL"
STALE = "reset stale WAL"
REPLAY = "replay"


def shard_file_name(shard_id: int) -> str:
    """Page-file name of one shard (inside its generation directory)."""
    return f"shard-{shard_id:03d}.pages"


def generation_dir(directory: str, generation: int) -> str:
    """Directory holding one generation's shard files (root for gen 0)."""
    if generation == 0:
        return directory
    return os.path.join(directory, f"{GEN_DIR_PREFIX}{generation:03d}")


def write_json_atomic(fops: FileOps, directory: str, path: str,
                      blob: dict[str, Any]) -> None:
    """Durable atomic JSON write: temp + fsync, rename, dir fsync."""
    data = (json.dumps(blob, sort_keys=True) + "\n").encode()
    tmp_path = path + ".tmp"
    fops.write_file(tmp_path, data)
    fops.replace(tmp_path, path)
    fops.fsync_dir(directory)


def drop_prepare(directory: str, fops: FileOps) -> None:
    """Durably remove the save marker (last step of every resolution)."""
    fops.unlink(os.path.join(directory, PREPARE_NAME))
    fops.fsync_dir(directory)


def write_bases(fops: FileOps, gen_dir: str,
                shard_ids: Iterable[int]) -> None:
    """Copy each shard's page file over its base, then one dir fsync.

    Only called while those page files sit at exactly the generation the
    manifest records (or is about to record) for them: right after a
    commit, or when the plan refreshes a base.
    """
    for sid in shard_ids:
        fops.copy_file(os.path.join(gen_dir, shard_file_name(sid)),
                       os.path.join(gen_dir, base_file_name(sid)))
    fops.fsync_dir(gen_dir)


def load_manifest(manifest_path: str) -> dict[str, Any]:
    """Read and validate an engine manifest.

    Returns ``{"format", "n_shards", "epoch", "shards", "generation"}``
    (``generation`` names the subdirectory the live shard files inhabit
    — see :func:`generation_dir`).  Every failure is an
    :class:`EngineError`; a retired ``"format": 1`` manifest chains an
    :class:`~repro.storage.errors.UnsupportedFormatError` as its cause.
    """
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise EngineError(f"cannot read engine manifest "
                          f"{manifest_path!r}: {exc}") from exc
    if not isinstance(manifest, dict) \
            or not isinstance(manifest.get("n_shards"), int) \
            or manifest["n_shards"] < 1:
        raise EngineError(f"engine manifest {manifest_path!r} is not a "
                          f"recognised SWST engine manifest")
    n_shards: int = manifest["n_shards"]
    fmt = manifest.get("format")
    if fmt != MANIFEST_FORMAT:
        retired = UnsupportedFormatError(
            "pre-epoch manifest format 1 is no longer read") \
            if fmt == 1 else None
        raise EngineError(f"engine manifest {manifest_path!r} has "
                          f"unsupported format {fmt!r}") from retired
    epoch = manifest.get("epoch")
    gens = manifest.get("shards")
    generation = manifest.get("generation")
    if not isinstance(epoch, int) or epoch < 0 \
            or not isinstance(gens, list) or len(gens) != n_shards \
            or not all(isinstance(g, int) and g >= 0 for g in gens) \
            or not isinstance(generation, int) or generation < 0:
        raise EngineError(f"engine manifest {manifest_path!r} is a "
                          f"malformed format-{MANIFEST_FORMAT} manifest")
    return {"format": MANIFEST_FORMAT, "n_shards": n_shards,
            "epoch": epoch, "shards": list(gens), "generation": generation}


def _load_prepare(prepare_path: str) -> dict[str, Any] | None:
    """Read the PREPARE marker; ``None`` if absent, typed error if torn.

    The marker is written atomically, so on a healthy filesystem it is
    either absent or valid; an unreadable one means external damage and
    recovery refuses to guess.
    """
    try:
        with open(prepare_path) as handle:
            record = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise EngineError(f"cannot read save marker {prepare_path!r}: "
                          f"{exc}") from exc
    expected = record.get("expected") if isinstance(record, dict) else None
    if not isinstance(record, dict) \
            or record.get("format") != MANIFEST_FORMAT \
            or not isinstance(record.get("epoch"), int) \
            or record["epoch"] < 1 \
            or not isinstance(record.get("n_shards"), int) \
            or not isinstance(expected, list) \
            or len(expected) != record["n_shards"] \
            or not all(isinstance(g, int) and g >= 1 for g in expected):
        raise EngineError(f"save marker {prepare_path!r} is malformed")
    return record


def _base_valid(gen_dir: str, shard_id: int, recorded: int) -> bool:
    """The base rule: a base is restorable only if its committed header
    generation, probed passively, is exactly the manifest's ``recorded``
    one (an older base is a superseded epoch's).  A shard recorded at
    ``0`` never committed; its durable state is empty and needs none."""
    return recorded == 0 or probe_committed_generation(
        os.path.join(gen_dir, base_file_name(shard_id))) == recorded


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """What recovery does to one shard (the per-shard table in
    ``docs/internals.md``).

    ``pages`` and ``wal`` are the page-file and WAL actions; ``replayed``
    counts the WAL records replayed and ``torn`` the torn-tail bytes
    dropped.  ``regain`` marks a base that fails the rule and cannot be
    copied from its page file (which moved past ``recorded``): the
    ``open()`` saves once.  A refusing shard carries its typed ``error``.
    """

    shard_id: int
    recorded: int
    pages: str
    wal: str = NO_WAL
    replayed: int = 0
    torn: int = 0
    regain: bool = False
    error: EngineError | None = dataclasses.field(
        default=None, compare=False, repr=False)

    def describe(self) -> str:
        if self.error is not None:
            return f"refuse: {self.error}"
        wal = self.wal if self.wal != REPLAY else \
            f"replay {self.replayed}"
        if self.wal == STALE:
            wal += ", 0 replayed"
        if self.torn:
            wal += f", drop {self.torn} torn byte(s)"
        regain = "; open() saves once to regain it" if self.regain else ""
        return f"{self.pages}, {wal}{regain}"


@dataclasses.dataclass(frozen=True)
class RecoveryPlan:
    """The whole recovery of one directory, decided before any write.

    ``action`` and ``reason`` are the directory's; ``manifest`` is the
    manifest the directory opens at (``None`` if unreadable); ``shards``
    holds one :class:`ShardPlan` per shard.  A refusing directory
    carries its typed ``error``.
    """

    directory: str
    action: str
    reason: str
    manifest: dict[str, Any] | None
    shards: tuple[ShardPlan, ...] = ()
    error: EngineError | None = dataclasses.field(
        default=None, compare=False, repr=False)

    @property
    def refusal(self) -> EngineError | None:
        """The error ``open()`` raises: the directory's, else the first
        refusing shard's."""
        errors = [self.error, *(shard.error for shard in self.shards)]
        return next((error for error in errors if error is not None), None)

    def in_process_refusal(self) -> EngineError | None:
        """``ShardedEngine``'s one extra refusal: acknowledged WAL
        records at the manifest epoch live nowhere else, so serving (and
        next saving) the page files alone would drop them."""
        for shard in self.shards:
            if shard.wal == REPLAY and shard.replayed:
                assert self.manifest is not None
                path = os.path.join(
                    generation_dir(self.directory,
                                   self.manifest["generation"]),
                    wal_file_name(shard.shard_id))
                return EngineError(
                    f"write-ahead log {path!r} holds {shard.replayed} "
                    f"acknowledged records not yet checkpointed into the "
                    f"page files; open the directory with WorkerEngine "
                    f"and save() first")
        return None

    @property
    def regains_bases(self) -> bool:
        return any(shard.regain for shard in self.shards)

    def render(self) -> str:
        lines = [f"recovery plan: {self.action} ({self.reason})"]
        lines.extend(f"  shard {shard.shard_id}: {shard.describe()}"
                     for shard in self.shards)
        refusal = self.refusal
        if refusal is not None:
            lines.append(f"  open() raises {type(refusal).__name__}")
        elif self.in_process_refusal() is not None:
            lines.append("  ShardedEngine.open() refuses (the WAL records "
                         "need a replay); WorkerEngine.open() executes "
                         "this plan")
        return "\n".join(lines)

    def summary(self) -> dict[str, Any]:
        """A JSON-ready view: the directory action and, per shard, its
        action, replayed records and torn bytes."""
        return {"action": self.action, "reason": self.reason,
                "epoch": None if self.manifest is None
                else self.manifest["epoch"],
                "shards": [{"shard": shard.shard_id,
                            "action": shard.describe(),
                            "replayed": shard.replayed, "torn": shard.torn}
                           for shard in self.shards]}


def plan_directory(directory: str | os.PathLike[str],
                   config: SWSTConfig | None = None) -> RecoveryPlan:
    """The directory half of :func:`plan_recovery` (no shard plans).

    Reads the manifest and the marker and, for an interrupted save,
    probes every page file's committed header — plus every base's, if
    only some committed.  With ``config`` a shard-count mismatch
    refuses.
    """
    directory = os.fspath(directory)

    def refuse(error: EngineError,
               manifest: dict[str, Any] | None = None) -> RecoveryPlan:
        return RecoveryPlan(directory, REFUSE, str(error), manifest,
                            error=error)

    try:
        manifest = load_manifest(os.path.join(directory, MANIFEST_NAME))
    except EngineError as exc:
        return refuse(exc)
    n_shards: int = manifest["n_shards"]
    if config is not None and config.n_shards != n_shards:
        return refuse(EngineError(
            f"directory {directory!r} holds {n_shards} shards but "
            f"config.n_shards is {config.n_shards}"), manifest)
    try:
        prepare = _load_prepare(os.path.join(directory, PREPARE_NAME))
    except EngineError as exc:
        return refuse(exc, manifest)
    if prepare is None:
        return RecoveryPlan(directory, CLEAN, "no interrupted save",
                            manifest)
    epoch: int = manifest["epoch"]
    marker = prepare["epoch"]
    if prepare["n_shards"] != n_shards or marker not in (epoch, epoch + 1):
        return refuse(EngineError(
            f"save marker {PREPARE_NAME} in {directory!r} (epoch {marker}, "
            f"{prepare['n_shards']} shard(s)) is inconsistent with the "
            f"manifest (epoch {epoch}, {n_shards} shard(s)); external "
            f"tampering?"), manifest)
    if marker == epoch:
        return RecoveryPlan(
            directory, FINISH_CLEANUP, f"save marker {PREPARE_NAME} "
            f"outlived its committed epoch {epoch}", manifest)
    gen_dir = generation_dir(directory, manifest["generation"])
    observed = [probe_committed_generation(
        os.path.join(gen_dir, shard_file_name(sid)))
        for sid in range(n_shards)]
    committed = [sid for sid, gen in enumerate(observed)
                 if gen is not None and gen >= prepare["expected"][sid]]
    pending = [sid for sid in range(n_shards) if sid not in committed]
    if not pending:
        return RecoveryPlan(
            directory, ROLL_FORWARD, f"interrupted save marker for epoch "
            f"{marker}: every shard committed it",
            dict(manifest, epoch=marker, shards=observed))
    if not committed:
        return RecoveryPlan(
            directory, ROLL_BACK, f"interrupted save marker for epoch "
            f"{marker}: no shard committed it", manifest)
    gens: list[int] = manifest["shards"]
    invalid = [sid for sid in range(n_shards)
               if not _base_valid(gen_dir, sid, gens[sid])]
    torn = (f"torn save of epoch {marker}: shards {committed} committed "
            f"it, shards {pending} did not")
    if invalid:
        error = EpochTornError(marker, committed, pending)
        return RecoveryPlan(
            directory, REFUSE, f"{torn}, and the bases of shards "
            f"{invalid} do not hold epoch {epoch} (restore the directory "
            f"from backup)", manifest, error=error)
    return RecoveryPlan(
        directory, RESTORE_ROLL_BACK, f"{torn}; RECOVERABLE: every shard "
        f"passes the base rule at epoch {epoch}", manifest)


def plan_shard(gen_dir: str, shard_id: int, recorded: int, epoch: int, *,
               restored: bool = False) -> tuple[ShardPlan, WalScan | None]:
    """Plan one shard from its files; also returns the WAL scan a replay
    applies (the log is decoded once).

    ``restored`` plans the shard as it will be once the directory's
    "restore bases" step has copied its base over the page file.
    """
    path = os.path.join(gen_dir, shard_file_name(shard_id))
    base_ok = _base_valid(gen_dir, shard_id, recorded)
    if not restored:
        generation, refusal = probe_open(path)
    elif recorded:  # the page file will be a byte copy of the base
        generation, refusal = probe_open(
            os.path.join(gen_dir, base_file_name(shard_id)))
    else:  # the restore unlinks a never-committed page file
        generation, refusal = None, "unlinked by the restore"
    error: EngineError | None = None
    regain = False
    if not recorded:
        pages = OPEN if refusal is None else RESET
    elif refusal is not None:
        pages = RESTORE if base_ok else REFUSE
        if not base_ok:
            error = ShardOpenError(shard_id, path, CorruptPageFileError(
                f"{refusal}; its base does not hold generation "
                f"{recorded}"))
    elif generation is not None and generation < recorded:
        pages = REFUSE
        error = ShardOpenError(shard_id, path, EngineError(
            f"committed generation {generation} is behind the manifest's "
            f"{recorded} (page file replaced or restored from an older "
            f"backup?)"))
    else:
        pages = OPEN if base_ok or generation != recorded else REFRESH
        regain = not base_ok and generation != recorded
    wal_path = os.path.join(gen_dir, wal_file_name(shard_id))
    scan: WalScan | None = None
    wal, replayed, torn = NO_WAL, 0, 0
    if os.path.exists(wal_path):
        try:
            scan = read_wal(wal_path)
        except WalCorruptError as exc:
            wal, error = REFUSE, error or exc
        else:
            if scan.epoch > epoch:
                wal = REFUSE
                error = error or WalCorruptError(
                    wal_path, f"claims epoch {scan.epoch} ahead of "
                              f"manifest epoch {epoch}")
            elif scan.epoch < epoch:
                wal, scan = STALE, None
            else:
                wal, replayed = REPLAY, len(scan.records)
                torn = scan.total_bytes - scan.valid_bytes
    return ShardPlan(shard_id, recorded, pages, wal, replayed, torn,
                     regain, error), scan


def plan_recovery(directory: str | os.PathLike[str],
                  config: SWSTConfig | None = None) -> RecoveryPlan:
    """Read the directory and decide its whole recovery; writes nothing.

    The directory action (:func:`plan_directory`) plus one
    :func:`plan_shard` per shard, planned against the manifest the
    directory opens at.
    """
    plan = plan_directory(directory, config)
    manifest = plan.manifest
    if manifest is None or plan.error is not None:
        return plan
    gen_dir = generation_dir(plan.directory, manifest["generation"])
    restored = plan.action == RESTORE_ROLL_BACK
    return dataclasses.replace(plan, shards=tuple(
        plan_shard(gen_dir, sid, recorded, manifest["epoch"],
                   restored=restored)[0]
        for sid, recorded in enumerate(manifest["shards"])))


def execute(plan: RecoveryPlan, fops: FileOps) -> dict[str, Any]:
    """Do the directory's writes; returns the manifest to open at.

    Raises the plan's directory-level error first.  Restoring bases
    comes before the marker is dropped (each copy is atomic, so a crash
    in between re-plans the same restore), and both come before any
    shard opens — opening commits a header, which could make a restored
    shard look committed to a re-plan.
    """
    if plan.error is not None:
        raise plan.error
    manifest = plan.manifest
    assert manifest is not None
    directory = plan.directory
    if plan.action == RESTORE_ROLL_BACK:
        gen_dir = generation_dir(directory, manifest["generation"])
        for sid, recorded in enumerate(manifest["shards"]):
            path = os.path.join(gen_dir, shard_file_name(sid))
            if recorded:
                fops.copy_file(os.path.join(gen_dir, base_file_name(sid)),
                               path)
            else:
                fops.unlink(path)
        fops.fsync_dir(gen_dir)
    elif plan.action == ROLL_FORWARD:
        write_json_atomic(fops, directory,
                          os.path.join(directory, MANIFEST_NAME), manifest)
    if plan.action != CLEAN:
        drop_prepare(directory, fops)
    return manifest


def open_shard(plan: ShardPlan, config: SWSTConfig, fops: FileOps,
               gen_dir: str) -> SWSTIndex:
    """Execute one shard's page action and open it (both backends).

    Raises the shard's planned error before touching a file; an open the
    plan expected to succeed that fails anyway is a
    :class:`ShardOpenError`.
    """
    if plan.error is not None:
        raise plan.error
    sid = plan.shard_id
    path = os.path.join(gen_dir, shard_file_name(sid))
    if plan.pages == RESET:
        if os.path.exists(path):
            fops.unlink(path)
        return SWSTIndex(config, path)
    if plan.pages == REFRESH:
        write_bases(fops, gen_dir, [sid])
    elif plan.pages == RESTORE:
        fops.copy_file(os.path.join(gen_dir, base_file_name(sid)), path)
        fops.fsync_dir(gen_dir)
    try:
        return SWSTIndex.open(path, config)
    except Exception as exc:
        raise ShardOpenError(sid, path, exc) from exc
