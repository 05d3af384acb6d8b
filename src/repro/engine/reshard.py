"""Generation-flip resharding of a saved engine directory.

``reshard(directory, new_n_shards, config)`` rewrites a saved engine
directory to a different shard count without ever modifying the live generation: the new shard
files are built side-by-side under ``gen-<G+1>/`` (see
:func:`~repro.engine.recovery.generation_dir`) and the directory switches
over in a single atomic manifest write.  Until that write lands the
old generation is byte-for-byte untouched — a crash at *any* file
operation of the protocol reopens as exactly the old directory; from
the manifest flip on it reopens as exactly the new one (the reshard
crash matrix proves both arms op-by-op).

The build reads from *copies* of the committed shard files, not the
files themselves.  That keeps the protocol read-only with respect to
the old generation (opening a page file may truncate it) and lets an
online caller keep serving from its live engine while the build
streams in the background: the copies freeze the save-point state, so
nothing races the pagers the serving engine holds open.

Protocol (all durable steps through the :class:`FileOps` seam):

1. **STAGE** — ``mkdir gen-<G+1>/`` + parent fsync; clear any debris a
   previously crashed reshard left there; copy every committed shard
   file to ``gen-<G+1>/source-<sid>.pages``.
2. **BUILD** — open the copies, verify their clocks agree, stream every
   physical entry through the *new* :class:`GridShardMap` into fresh
   shard files, carry over the current-entry table and per-object
   retentions, then drop the source copies.  No manifest state changes.
3. **FLIP** — save every new shard (each commit fsyncs its file; the
   build already made their directory entries durable), then
   atomically rewrite ``engine.json`` with the new shard count, epoch ``E+1``, generation
   ``G+1`` and the new shards' committed generations.  This single
   rename is the commit point, and the generation it names is whole.
4. **CLEANUP** — unlink the old generation's shard and WAL files.  A
   crash in here costs disk space only.

Preconditions (checked before anything is written, typed
:class:`~repro.engine.errors.ReshardError` on violation): the
directory holds a committed manifest (epoch >= 1), its recovery plan
(:func:`~repro.engine.recovery.plan_recovery`) refuses nothing, and no
write-ahead log holds acknowledged records at the current epoch.  Those
records live only in the WAL, so resharding from the page files alone
would drop them; a ``WorkerEngine`` checkpoint (``save()``) folds them
in first.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os

from ..core.config import SWSTConfig
from ..core.index import SWSTIndex
from ..storage.errors import StorageError
from ..storage.fileops import DURABLE_FILE_OPS, FileOps
from .engine import InProcessBackend, ShardedEngine
from .recovery import (MANIFEST_FORMAT, MANIFEST_NAME, generation_dir,
                       plan_recovery, shard_file_name, write_json_atomic)
from .errors import ReshardError
from .sharding import GridShardMap
from .wal import wal_file_name


def _source_file_name(shard_id: int) -> str:
    """Staging copy of one old shard (never matches ``shard-*`` globs)."""
    return f"source-{shard_id:03d}.pages"


@dataclasses.dataclass(frozen=True)
class ReshardReport:
    """Outcome of one committed reshard.

    Attributes:
        directory: the resharded engine directory.
        old_n_shards / new_n_shards: shard counts before and after.
        epoch: manifest epoch after the flip (old epoch + 1).
        generation: manifest generation after the flip.
        entries: physical entries streamed into the new generation.
        currents: live current-entry records carried over.
        old_imbalance / new_imbalance: (max, min) cells-per-shard of
            the grid placement before and after (see
            :meth:`GridShardMap.imbalance`).
    """

    directory: str
    old_n_shards: int
    new_n_shards: int
    epoch: int
    generation: int
    entries: int
    currents: int
    old_imbalance: tuple[int, int]
    new_imbalance: tuple[int, int]

    def render(self) -> str:
        lines = [
            f"resharded {self.directory}",
            f"  shards:     {self.old_n_shards} -> {self.new_n_shards}",
            f"  epoch:      {self.epoch}  (generation {self.generation})",
            f"  streamed:   {self.entries} entries "
            f"({self.currents} current)",
            f"  cell imbalance (max/min per shard): "
            f"{self.old_imbalance[0]}/{self.old_imbalance[1]} -> "
            f"{self.new_imbalance[0]}/{self.new_imbalance[1]}",
        ]
        return "\n".join(lines)


class GenerationBuild:
    """One staged reshard: validate, build side-by-side, flip, clean up.

    Split into :meth:`build` and :meth:`commit` so an online caller can
    run the (long) build off its write path and take its exclusive
    section only around the (short) commit; :func:`reshard` drives both
    back-to-back for the offline case.  After :meth:`build` the new
    engine is live at :attr:`engine` and accepts the full mutation API
    — an online caller replays its catch-up journal into it *before*
    :meth:`commit`, so the flip loses nothing.

    Constructing the build validates every precondition but writes
    nothing; :meth:`abort` after a failure only releases handles (a
    real crash could not do more), leaving debris the next build or
    scrub recognises.
    """

    def __init__(self, directory: str | None, new_n_shards: int,
                 config: SWSTConfig, *,
                 file_ops: FileOps | None = None) -> None:
        if new_n_shards < 1:
            raise ValueError(f"new_n_shards must be >= 1, "
                             f"got {new_n_shards}")
        if directory is None:
            raise ReshardError("only disk-backed engines can reshard; "
                               "this engine has no directory")
        self._dir = os.fspath(directory)
        self._fops: FileOps = file_ops if file_ops is not None \
            else DURABLE_FILE_OPS
        plan = plan_recovery(self._dir)
        manifest = plan.manifest
        refusal = plan.refusal or plan.in_process_refusal()
        if refusal is not None:
            raise ReshardError(str(refusal)) from refusal
        assert manifest is not None
        if manifest["epoch"] < 1:
            raise ReshardError(
                f"directory {self._dir!r} has never completed an epoch "
                f"save; save it once first")
        self._old_n: int = manifest["n_shards"]
        self._epoch: int = manifest["epoch"]
        self._old_generation: int = manifest["generation"]
        self._old_shards: list[int] = manifest["shards"]
        self._new_generation = self._old_generation + 1
        self._old_config = dataclasses.replace(config, n_shards=self._old_n)
        self._new_config = dataclasses.replace(config,
                                               n_shards=new_n_shards)
        self._gen_dir = generation_dir(self._dir, self._new_generation)
        self._old_gen_dir = generation_dir(self._dir, self._old_generation)
        self._sources: list[SWSTIndex] = []
        self._source_paths: list[str] = []
        self._staged = False
        self._backend: InProcessBackend | None = None
        self._engine: ShardedEngine | None = None
        self._entries = 0
        self._currents = 0
        #: True once :meth:`commit` has rewritten the manifest: from then
        #: on the directory names the new generation, whatever fails next.
        self.flipped = False

    @property
    def engine(self) -> ShardedEngine:
        """The new-generation engine (live after :meth:`build`)."""
        assert self._engine is not None, "build() has not run"
        return self._engine

    # -- stage 1+2: side-by-side build ----------------------------------------

    def stage(self) -> None:
        """Freeze the committed shard files into staging copies.

        Must run while nothing can dirty the old shard files — i.e.
        right after a save, before new mutations (a live engine's
        buffer pool may evict uncommitted pages into the files at any
        time).  The offline driver has the directory to itself; an
        online caller takes its exclusive section around
        ``save() + stage()`` and only then lets writers resume while
        :meth:`build` streams from the frozen copies.
        """
        fops = self._fops
        fops.mkdir(self._gen_dir)
        fops.fsync_dir(self._dir)
        self._clear_debris()
        for shard_id in range(self._old_n):
            src = os.path.join(self._old_gen_dir,
                               shard_file_name(shard_id))
            dst = os.path.join(self._gen_dir,
                               _source_file_name(shard_id))
            fops.copy_file(src, dst)
            self._source_paths.append(dst)
        fops.fsync_dir(self._gen_dir)
        self._staged = True

    def build(self) -> None:
        """Stream the staged copies into the new generation (no flip yet)."""
        if not self._staged:
            self.stage()
        fops = self._fops
        source_paths = self._source_paths
        try:
            for path, recorded in zip(source_paths, self._old_shards,
                                      strict=True):
                self._sources.append(SWSTIndex.open(
                    path, self._old_config, generation=recorded))
        except BaseException:
            for source in self._sources:
                with contextlib.suppress(StorageError, OSError):
                    source.close()
            self._sources.clear()
            raise
        clocks = {source.now for source in self._sources}
        if len(clocks) > 1:
            raise ReshardError(
                f"shard clocks disagree in {self._dir!r}: "
                f"{sorted(clocks)}; the directory mixes copies of "
                f"different epochs")
        # Bulk-load the new shards directly — historical entries start
        # below the clock, which the public mutation API rightly
        # refuses — and only then put the coordinator on top: its
        # mirror and clock are derived from the loaded shards.
        manifest = {"epoch": self._epoch,
                    "generation": self._new_generation,
                    "shards": [0] * self._new_config.n_shards}
        self._backend = InProcessBackend.create(
            self._new_config, self._dir, manifest, executor="serial",
            file_ops=fops)
        self._load_shards(self._backend.shards)
        self._engine = ShardedEngine._adopt(
            self._new_config, self._backend, self._dir, manifest, fops)
        for source in self._sources:
            source.close()
        self._sources.clear()
        for path in source_paths:
            fops.unlink(path)
        self._source_paths = []
        fops.fsync_dir(self._gen_dir)

    def _clear_debris(self) -> None:
        """Drop files a previously crashed build left in the gen dir."""
        fops = self._fops
        cleared = False
        names = [_source_file_name(sid) for sid in range(self._old_n)]
        names += [shard_file_name(sid)
                  for sid in range(self._new_config.n_shards)]
        for name in names:
            path = os.path.join(self._gen_dir, name)
            if os.path.exists(path):
                fops.unlink(path)
                cleared = True
        if cleared:
            fops.fsync_dir(self._gen_dir)

    def _load_shards(self, shards: list[SWSTIndex]) -> None:
        """Stream every physical entry through the new shard map; the
        clock, current-entry table and retentions follow the data."""
        shard_map = GridShardMap(self._new_config.x_partitions,
                                 self._new_config.y_partitions,
                                 self._new_config.n_shards)
        grid = shards[0].grid

        def owner(x: int, y: int) -> SWSTIndex:
            return shards[shard_map.shard_of_cell(*grid.cell_of(x, y))]

        for shard in shards:
            shard.advance_time(self._sources[0].now)
        retentions: dict[int, int] = {}
        currents: dict[int, tuple[int, int, int]] = {}
        for source in self._sources:
            for entry in source.scan():
                owner(entry.x, entry.y)._physical_insert(entry)
                self._entries += 1
            retentions.update(source._retentions)
            currents.update(source.current_objects())
        for oid, (x, y, s) in currents.items():
            owner(x, y)._current[oid] = (x, y, s)
        for shard in shards:
            shard._retentions.update(retentions)
        self._currents = len(currents)

    # -- stage 3+4: flip and cleanup ------------------------------------------

    def commit(self) -> ReshardReport:
        """Save the new shards, flip the manifest, drop the old files.

        The manifest rewrite is the single commit point: the old
        generation is untouched before it, the new one is durable when
        it lands.
        """
        engine = self.engine
        backend = self._backend
        assert backend is not None
        fops = self._fops
        gens = backend.commit()
        write_json_atomic(
            fops, self._dir, os.path.join(self._dir, MANIFEST_NAME),
            {"format": MANIFEST_FORMAT,
             "n_shards": self._new_config.n_shards,
             "epoch": self._epoch + 1, "shards": gens,
             "generation": self._new_generation})
        self.flipped = True
        self._cleanup_old_generation()
        old_map = GridShardMap(self._old_config.x_partitions,
                               self._old_config.y_partitions, self._old_n)
        return ReshardReport(
            directory=self._dir,
            old_n_shards=self._old_n,
            new_n_shards=self._new_config.n_shards,
            epoch=self._epoch + 1,
            generation=self._new_generation,
            entries=self._entries,
            currents=self._currents,
            old_imbalance=old_map.imbalance(),
            new_imbalance=engine.shard_map.imbalance())

    def _cleanup_old_generation(self) -> None:
        """Post-flip: unlink the old generation's files.

        Every step here is redundant with the flip — a crash costs only
        disk space, and reopening serves the new generation regardless.
        """
        fops = self._fops
        for shard_id in range(self._old_n):
            for name in (shard_file_name(shard_id),
                         wal_file_name(shard_id)):
                path = os.path.join(self._old_gen_dir, name)
                if os.path.exists(path):
                    fops.unlink(path)
        fops.fsync_dir(self._old_gen_dir)
        if self._old_generation > 0:
            fops.rmdir(self._old_gen_dir)
            fops.fsync_dir(self._dir)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close the built engine (the flipped directory is reopened by
        whoever serves it next)."""
        if self._engine is not None:
            engine, self._engine = self._engine, None
            self._backend = None
            engine.close()

    def abort(self) -> None:
        """Release every handle after a failure; never raises.

        Only handles: a genuine crash could not delete staged files
        either, and the protocol tolerates the debris (the old
        generation still opens; the next build clears the staging
        directory; scrub reports it).
        """
        for source in self._sources:
            with contextlib.suppress(StorageError, OSError, ValueError):
                source.close()
        self._sources.clear()
        if self._backend is not None:
            backend, self._backend, self._engine = self._backend, None, None
            backend.close()


def reshard(directory: str, new_n_shards: int, config: SWSTConfig, *,
            file_ops: FileOps | None = None) -> ReshardReport:
    """Offline reshard: build, flip and clean up in one call.

    ``config`` supplies the index parameters (its ``n_shards`` is
    ignored — the old count comes from the manifest, the new one from
    ``new_n_shards``).  Returns a :class:`ReshardReport`; on any
    failure the directory still opens as the old generation.
    """
    build = GenerationBuild(directory, new_n_shards, config,
                            file_ops=file_ops)
    try:
        build.build()
        report = build.commit()
    except BaseException:
        build.abort()
        raise
    build.close()
    return report
