"""Disk substrate: paged files, free lists, buffer pool, IO accounting.

This package is the "disk" every index in the repository runs on.  The
paper's primary cost metric — node accesses — is counted at the
:class:`BufferPool` boundary.  Crash safety lives below it: checksummed
pages (:mod:`repro.storage.page`), shadow-paged commits under a
dual-slot header (:mod:`repro.storage.pager`), durable small-file operations for
directory-level commits (:mod:`repro.storage.fileops`) and the offline
integrity sweep (:mod:`repro.storage.scrub`).  The fault-injecting
doubles that test all of it live with the tests
(``tests/storage/fault.py``).
"""

from .buffer import DEFAULT_CAPACITY, BufferPool
from .errors import (ChecksumError, CorruptPageFileError,
                     NoCatalogError, PageError, PagerClosedError,
                     StorageError, TornWriteError,
                     UnsupportedFormatError)
from .fileops import DURABLE_FILE_OPS, DurableFileOps, FileOps
from .page import DEFAULT_PAGE_SIZE, FilePageDevice, MemoryPageDevice
from .pager import MEMORY, Pager
from .scrub import ScrubReport, probe_page_file, scrub_page_file
from .stats import IOStats, StatsRecorder

__all__ = [
    "BufferPool",
    "ChecksumError",
    "CorruptPageFileError",
    "DEFAULT_CAPACITY",
    "DEFAULT_PAGE_SIZE",
    "DURABLE_FILE_OPS",
    "DurableFileOps",
    "FileOps",
    "FilePageDevice",
    "IOStats",
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
    "probe_page_file",
    "scrub_page_file",
]
