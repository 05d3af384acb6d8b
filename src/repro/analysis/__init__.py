"""Project-specific static analysis (``repro lint``).

Earlier PRs established invariants that ordinary linters cannot see:
node-access counts must be reproducible (no clocks or RNG in the index
stack), acquired resources must be released on every path, corruption
errors must not be swallowed, cached query plans must stay immutable,
the event loop must never block or await under a sync lock, and durable
writes must be fsynced before they are acknowledged.  This package
machine-checks them; ``docs/internals.md`` lists each rule with the seam
it guards and the defect it caught.

Rules come in two shapes.  Per-file rules (R002, R004, R006, R007,
R011) see one parsed module at a time through :class:`FileContext`.
Project rules (R009, R010) see the whole tree at once through
:class:`ProjectContext` — a symbol table and call graph built once per
run by :mod:`repro.analysis.callgraph` — because blocking calls
reachable from coroutines and fsync-before-acknowledgement are
properties of call *paths*, not of single files.

Entry points:

* ``python -m repro.analysis [paths...]`` — standalone runner,
* ``repro lint`` — the same runner wired into the main CLI,
* :func:`lint_paths` — programmatic API used by the test suite.

Any finding fails the run; there is no suppression comment.
"""

from __future__ import annotations

from .callgraph import ClassInfo, FunctionInfo, ProjectContext
from .findings import Finding
from .registry import Rule, all_rules, get_rule, register
from .runner import FileContext, lint_paths, lint_source, lint_sources

__all__ = [
    "ClassInfo",
    "Finding",
    "FileContext",
    "FunctionInfo",
    "ProjectContext",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "register",
]
