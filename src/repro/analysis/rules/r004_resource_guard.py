"""R004 — resource acquisitions must be lifecycle-managed.

PR 2 made init/close chains exception-safe (the suite runs under
``-W error::ResourceWarning``); this rule keeps new call sites honest.
An acquisition — ``open(...)``, a pager/device/index/engine constructor,
``resolve_executor(...)``, ``open_engine(...)`` — must be one of:

* the context expression of a ``with`` (directly or via
  ``contextlib.closing``),
* registered on an ``ExitStack`` (``enter_context``/``callback``/
  ``push``),
* returned directly to the caller (ownership transfer),
* assigned to an attribute or container slot (the owner's ``close``
  manages it),
* assigned to a name that some ``finally`` or ``except`` block in the
  same function ``.close()``s,
* inside a ``try`` whose handler/finally performs cleanup (a ``close``/
  ``abandon`` call) and re-raises.

Anything else leaks the handle on the exception path.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import Rule, register
from ..runner import FileContext
from ._util import callee_simple_name, chain_root

#: Constructors/factories whose result owns an OS resource (file handle,
#: worker pool) or a dirty buffer that must be flushed.
_ACQUIRER_NAMES = frozenset({
    "open",
    "Pager", "FilePageDevice", "MemoryPageDevice", "BufferPool",
    "SWSTIndex", "ShardedEngine", "WorkerEngine", "MV3RTree",
    "AsyncEngine",
    "resolve_executor", "open_engine",
})
_ACQUIRER_SUFFIX = "Executor"
_STACK_METHODS = frozenset({"enter_context", "callback", "push", "closing"})
_CLEANUP_HINTS = ("close", "abandon", "release", "shutdown")


def _is_acquisition(call: ast.Call) -> bool:
    name = callee_simple_name(call)
    if name is None:
        return False
    if name in _ACQUIRER_NAMES or name.endswith(_ACQUIRER_SUFFIX):
        return True
    # Classmethod constructors: SWSTIndex.open(...), WorkerEngine.open(...)
    if name == "open" and isinstance(call.func, ast.Attribute):
        root = chain_root(call.func.value)
        return root is not None and root.id in _ACQUIRER_NAMES
    return False


def _closed_names(scope: ast.AST) -> set[str]:
    """Names ``n`` with a cleanup-path ``n.close()`` or ExitStack
    registration anywhere in ``scope``."""
    closed: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Try):
            cleanup_bodies = list(node.finalbody)
            for handler in node.handlers:
                cleanup_bodies.extend(handler.body)
            for stmt in cleanup_bodies:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Call) and \
                            isinstance(sub.func, ast.Attribute) and \
                            sub.func.attr == "close" and \
                            isinstance(sub.func.value, ast.Name):
                        closed.add(sub.func.value.id)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _STACK_METHODS:
            for arg in node.args:
                root = chain_root(arg)
                if root is not None:
                    closed.add(root.id)
    return closed


def _has_cleanup_try(ctx: FileContext, node: ast.AST) -> bool:
    """Is ``node`` inside a try whose handler/finally cleans up and
    (for handlers) re-raises?"""
    current: ast.AST = node
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.Try):
            if current in ancestor.body:
                if _cleanup_calls(ancestor.finalbody):
                    return True
                for handler in ancestor.handlers:
                    raises = any(isinstance(sub, ast.Raise)
                                 for stmt in handler.body
                                 for sub in ast.walk(stmt))
                    if raises and _cleanup_calls(handler.body):
                        return True
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            break
        current = ancestor
    return False


def _cleanup_calls(stmts: list[ast.stmt]) -> bool:
    for stmt in stmts:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call):
                name = callee_simple_name(sub)
                if name is not None and \
                        any(h in name.lower() for h in _CLEANUP_HINTS):
                    return True
    return False


@register
class ResourceGuard(Rule):
    rule_id = "R004"
    title = "resource acquisitions context-managed or try/finally-guarded"
    rationale = ("an unguarded acquisition leaks its file handle or "
                 "worker pool on the exception path (suite runs under "
                 "-W error::ResourceWarning)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and _is_acquisition(node)):
                continue
            if self._is_guarded(ctx, node):
                continue
            name = callee_simple_name(node)
            yield self.finding(
                ctx, node.lineno, node.col_offset,
                f"acquisition {name}(...) is not context-managed, "
                f"try/finally-guarded, or returned — leaks on the "
                f"exception path")

    def _is_guarded(self, ctx: FileContext, call: ast.Call) -> bool:
        parent = ctx.parent(call)
        # with acquire(...) as x:  /  closing(acquire(...))
        if isinstance(parent, ast.withitem):
            return True
        if isinstance(parent, ast.Call):
            wrapper = callee_simple_name(parent)
            if wrapper in _STACK_METHODS:
                return True
        statement = ctx.statement_of(call)
        # return acquire(...) — ownership transfers to the caller.
        if isinstance(statement, ast.Return):
            return True
        if isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = (statement.targets
                       if isinstance(statement, ast.Assign)
                       else [statement.target])
            scope = ctx.enclosing_scope(call)
            closed = _closed_names(scope)
            for target in targets:
                # self.device = acquire(...) / shards[i] = acquire(...):
                # the owning object's close() manages it.
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    return True
                if isinstance(target, ast.Name) and target.id in closed:
                    return True
        # Constructed inside a try whose cleanup path closes/abandons.
        return _has_cleanup_try(ctx, call)
