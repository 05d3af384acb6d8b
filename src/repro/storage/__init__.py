"""Disk substrate: paged files, free lists, buffer pool, IO accounting.

This package is the "disk" every index in the repository runs on.  The
paper's primary cost metric — node accesses — is counted at the
:class:`BufferPool` boundary.  Crash safety lives below it: checksummed
pages (:mod:`repro.storage.page`), the dual-slot header commit protocol
(:mod:`repro.storage.pager`), durable small-file operations for
directory-level commits (:mod:`repro.storage.fileops`), fault injection
for testing all of it (:mod:`repro.storage.fault`) and the offline
integrity sweep (:mod:`repro.storage.scrub`).
"""

from .buffer import DEFAULT_CAPACITY, BufferPool
from .errors import (ChecksumError, CorruptPageFileError,
                     NoCatalogError, PageError, PagerClosedError,
                     StorageError, TornWriteError, UnsupportedFormatError)
from .fault import (FaultInjectingFileOps, FaultInjectingPageDevice,
                    InjectedFault, crash_devices, per_path_device_factory)
from .fileops import DURABLE_FILE_OPS, DurableFileOps, FileOps
from .page import DEFAULT_PAGE_SIZE, FilePageDevice, MemoryPageDevice
from .pager import MEMORY, Pager
from .scrub import (ScrubReport, probe_committed_generation,
                    probe_page_file, scrub_page_file)
from .stats import IOStats, StatsRecorder

__all__ = [
    "BufferPool",
    "ChecksumError",
    "CorruptPageFileError",
    "DEFAULT_CAPACITY",
    "DEFAULT_PAGE_SIZE",
    "DURABLE_FILE_OPS",
    "DurableFileOps",
    "FaultInjectingFileOps",
    "FaultInjectingPageDevice",
    "FileOps",
    "FilePageDevice",
    "IOStats",
    "InjectedFault",
    "MEMORY",
    "MemoryPageDevice",
    "NoCatalogError",
    "PageError",
    "Pager",
    "PagerClosedError",
    "ScrubReport",
    "StatsRecorder",
    "StorageError",
    "TornWriteError",
    "UnsupportedFormatError",
    "crash_devices",
    "per_path_device_factory",
    "probe_committed_generation",
    "probe_page_file",
    "scrub_page_file",
]
