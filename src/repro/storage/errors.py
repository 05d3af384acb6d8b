"""Exception hierarchy for the storage layer.

All storage-level failures derive from :class:`StorageError` so callers can
catch one base class at the public-API boundary.  Corruption detected on the
read path is further split: :class:`TornWriteError` (a page whose trailer was
never completely written — the classic crash-mid-write signature) versus
:class:`ChecksumError` (a complete trailer whose CRC disagrees with the page
body — bit rot or a torn body under an old trailer).  Both subclass
:class:`CorruptPageFileError` so recovery code can treat them uniformly.
"""


class StorageError(Exception):
    """Base class for all storage-layer failures."""


class PageError(StorageError):
    """A page id is invalid, out of range, or refers to a freed page."""


class PagerClosedError(StorageError):
    """An operation was attempted on a closed pager or buffer pool."""


class CorruptPageFileError(StorageError):
    """The on-disk page file failed a structural sanity check."""


class NoCatalogError(CorruptPageFileError):
    """The page file holds no committed catalog (it was never saved).

    Distinct from damage: a fresh page file whose owner died before its
    first commit looks exactly like this, and recovery layers that keep
    a write-ahead log may treat the durable base state as "empty"
    rather than refusing to open.
    """


class UnsupportedFormatError(CorruptPageFileError):
    """The file is a well-formed SWST file of a format no longer read.

    Raised for a page file of a retired format (v1: no superblock; v2:
    pages overwritten in place, no page map) and for an engine manifest
    declaring ``"format": 1``.  Nothing is written to a refused file.
    """


class ChecksumError(CorruptPageFileError):
    """A page's stored CRC32 disagrees with its contents."""


class TornWriteError(CorruptPageFileError):
    """A page's trailer is missing or incomplete (interrupted write)."""
