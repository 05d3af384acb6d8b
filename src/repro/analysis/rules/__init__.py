"""Built-in rules; importing this package registers all of them."""

from __future__ import annotations

from .r002_nondeterminism import Nondeterminism
from .r004_resource_guard import ResourceGuard
from .r006_swallowed_errors import SwallowedErrors
from .r007_plan_purity import PlanPurity
from .r009_async_blocking import AsyncBlocking
from .r010_fsync_discipline import FsyncDiscipline
from .r011_await_lock import AwaitHoldingLock

__all__ = [
    "Nondeterminism",
    "ResourceGuard",
    "SwallowedErrors",
    "PlanPurity",
    "AsyncBlocking",
    "FsyncDiscipline",
    "AwaitHoldingLock",
]
