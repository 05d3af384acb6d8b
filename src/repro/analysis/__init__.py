"""Project-specific static analysis (``repro lint``).

The previous PRs each established invariants that ordinary linters cannot
see: logical node-access counters must match the paper's cost model, the
storage layer owns all raw page I/O, errors cross module boundaries only
through the typed hierarchies, and the executor fan-out must stay free of
shared-state races.  This package machine-checks them.

Rules come in two shapes.  Per-file rules (R001-R007) see one parsed
module at a time through :class:`FileContext`.  Project rules
(R008-R010, plus any rule with ``project = True``) see the whole tree at
once through :class:`ProjectContext` — a symbol table and call graph
built once per run by :mod:`repro.analysis.callgraph` — because the
concurrency and durability invariants (lock-order cycles, blocking calls
reachable from coroutines, fsync-before-acknowledgement) are properties
of call *paths*, not of single files.

Entry points:

* ``python -m repro.analysis [paths...]`` — standalone runner,
* ``repro lint`` — the same runner wired into the main CLI,
* :func:`lint_paths` — programmatic API used by the test suite.

Any finding fails the run; a deliberate exception is an inline
``# repro-lint: ignore[R00X]`` comment on the offending line.
"""

from __future__ import annotations

from .callgraph import ClassInfo, FunctionInfo, ProjectContext
from .findings import Finding
from .registry import Rule, all_rules, get_rule, register
from .runner import (FileContext, lint_file, lint_paths, lint_source,
                     lint_sources)

__all__ = [
    "ClassInfo",
    "Finding",
    "FileContext",
    "FunctionInfo",
    "ProjectContext",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "register",
]
