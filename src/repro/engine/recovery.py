"""Recovery decided once: a read-only plan that ``open()`` executes.

:func:`plan_recovery` reads everything an ``open()`` depends on — the
manifest, passive header probes of every page file
(:func:`repro.storage.scrub.probe_open`; opening may truncate
uncommitted extends, which a plan must not do) and the write-ahead
logs — and decides the whole recovery without writing a byte: per
shard a page-file action and a WAL action.  :func:`open_shard` executes
one shard's.  ``ShardedEngine.open``, ``WorkerEngine.open`` (each
worker plans and opens its own shard, so every WAL is decoded once, in
parallel) and the reshard precondition all go through here, and ``repro
scrub`` prints the same plan.

There is one rule: every shard opens at the generation the manifest
records for it.  Shard pagers never overwrite that generation (shadow
paging, :mod:`repro.storage.pager`) until the manifest names a newer
one, so a crash anywhere — mid-session, mid-save, between a shard's
commit and the manifest flip, in a retried save — reopens at exactly
the manifest, with no copy and no marker.  A shard recorded at 0 never
committed and resets to empty.  The table of outcomes and typed errors
is under "Two-phase epoch commit" in ``docs/internals.md``; this module
is its only implementation.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any

from ..core.config import SWSTConfig
from ..core.index import SWSTIndex
from ..storage.errors import UnsupportedFormatError
from ..storage.fileops import FileOps
from ..storage.scrub import probe_open
from .errors import EngineError, ShardOpenError, WalCorruptError
from .wal import WalScan, read_wal, wal_file_name

MANIFEST_NAME = "engine.json"
MANIFEST_FORMAT = 2
GEN_DIR_PREFIX = "gen-"

# Directory actions.
CLEAN = "clean"
REFUSE = "refuse"
# Page-file actions (plus REFUSE).
OPEN = "open"
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


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """What recovery does to one shard (the per-shard table in
    ``docs/internals.md``).

    ``pages`` and ``wal`` are the page-file and WAL actions; ``replayed``
    counts the WAL records replayed and ``torn`` the torn-tail bytes
    dropped.  ``uncommitted`` is the page file's newest header
    generation when a commit the manifest never named sits above
    ``recorded`` (a save that did not reach its flip); the open leaves
    it behind.  A refusing shard carries its typed ``error``.
    """

    shard_id: int
    recorded: int
    pages: str
    wal: str = NO_WAL
    replayed: int = 0
    torn: int = 0
    uncommitted: int | None = None
    error: EngineError | None = dataclasses.field(
        default=None, compare=False, repr=False)

    def describe(self) -> str:
        if self.error is not None:
            return f"refuse: {self.error}"
        pages = self.pages if self.pages != OPEN else \
            f"open generation {self.recorded}"
        if self.uncommitted is not None:
            pages += f", drop uncommitted generation {self.uncommitted}"
        wal = self.wal if self.wal != REPLAY else \
            f"replay {self.replayed}"
        if self.wal == STALE:
            wal += ", 0 replayed"
        if self.torn:
            wal += f", drop {self.torn} torn byte(s)"
        return f"{pages}, {wal}"


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
    """The directory half of :func:`plan_recovery` (no shard plans):
    read the manifest and, with ``config``, refuse a shard-count
    mismatch."""
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
    return RecoveryPlan(
        directory, CLEAN, f"manifest epoch {manifest['epoch']}: every "
        f"shard opens at its recorded generation", manifest)


def plan_shard(gen_dir: str, shard_id: int, recorded: int, epoch: int,
               ) -> tuple[ShardPlan, WalScan | None]:
    """Plan one shard from its files; also returns the WAL scan a replay
    applies (the log is decoded once)."""
    path = os.path.join(gen_dir, shard_file_name(shard_id))
    error: EngineError | None = None
    uncommitted: int | None = None
    if not recorded:
        pages = RESET
    else:
        newest, refusal = probe_open(path, recorded)
        if refusal is None:
            pages = OPEN
            if newest is not None and newest > recorded:
                uncommitted = newest
        else:
            pages = REFUSE
            cause: Exception = refusal
            if newest is not None and newest < recorded:
                cause = EngineError(
                    f"committed generation {newest} is behind the "
                    f"manifest's {recorded} (page file replaced or "
                    f"restored from an older backup?)")
            error = ShardOpenError(shard_id, path, cause)
            error.__cause__ = cause
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
                     uncommitted, error), scan


def plan_recovery(directory: str | os.PathLike[str],
                  config: SWSTConfig | None = None) -> RecoveryPlan:
    """Read the directory and decide its whole recovery; writes nothing.

    The directory half (:func:`plan_directory`) plus one
    :func:`plan_shard` per shard, planned against the manifest.
    """
    plan = plan_directory(directory, config)
    manifest = plan.manifest
    if manifest is None or plan.error is not None:
        return plan
    gen_dir = generation_dir(plan.directory, manifest["generation"])
    return dataclasses.replace(plan, shards=tuple(
        plan_shard(gen_dir, sid, recorded, manifest["epoch"])[0]
        for sid, recorded in enumerate(manifest["shards"])))


def open_shard(plan: ShardPlan, config: SWSTConfig, fops: FileOps,
               gen_dir: str) -> SWSTIndex:
    """Execute one shard's page action and open it (both backends).

    Raises the shard's planned error before touching a file; an open the
    plan expected to succeed that fails anyway is a
    :class:`ShardOpenError`.  The shard keeps its recorded generation
    intact until the engine retains a newer commit.
    """
    if plan.error is not None:
        raise plan.error
    sid = plan.shard_id
    path = os.path.join(gen_dir, shard_file_name(sid))
    if plan.pages == RESET:
        if os.path.exists(path):
            fops.truncate_file(path, 0)
        return SWSTIndex(config, path, generation=0)
    try:
        return SWSTIndex.open(path, config, generation=plan.recorded)
    except Exception as exc:
        raise ShardOpenError(sid, path, exc) from exc
