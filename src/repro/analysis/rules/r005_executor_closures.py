"""R005 — executor task callables must not mutate closed-over state.

The serving facade hands closures to ``executor.submit``; under the
threaded executor those run on pool threads beside the event loop, so a
task that *writes* something it closed over (an accumulator list, an
engine attribute) is a data race the serial executor will never show.
Tasks must return their results through the future and let the caller
merge — reading closed-over state is fine.  ``executor.map`` is not a
trigger: both executors run it inline on the calling thread.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import Rule, register
from ..runner import FileContext
from ._util import chain_root

_SUBMIT_METHODS = frozenset({"submit"})
#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "appendleft",
    "write", "put",
})


def _local_names(func: ast.Lambda | ast.FunctionDef) -> set[str]:
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    if isinstance(func, ast.FunctionDef):
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, (ast.Nonlocal, ast.Global)):
                names.difference_update(node.names)
    return names


def _mutations(func: ast.Lambda | ast.FunctionDef
               ) -> Iterator[tuple[int, int, str]]:
    """(line, col, description) for each shared-state write in ``func``."""
    local = _local_names(func)
    body = func.body if isinstance(func.body, list) else [func.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                kind = ("nonlocal" if isinstance(node, ast.Nonlocal)
                        else "global")
                yield (node.lineno, node.col_offset,
                       f"{kind} declaration {', '.join(node.names)}")
            elif isinstance(node, ast.NamedExpr) and \
                    isinstance(node.target, ast.Name) and \
                    node.target.id not in local:
                yield (node.lineno, node.col_offset,
                       f"walrus assignment to closed-over "
                       f"{node.target.id!r}")
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        root = chain_root(target)
                        if root is not None and root.id not in local:
                            yield (node.lineno, node.col_offset,
                                   f"store into closed-over "
                                   f"{root.id!r}")
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _MUTATORS:
                root = chain_root(node.func.value)
                if root is not None and root.id not in local:
                    yield (node.lineno, node.col_offset,
                           f"mutating call .{node.func.attr}() on "
                           f"closed-over {root.id!r}")


@register
class ExecutorClosures(Rule):
    rule_id = "R005"
    title = "executor tasks must not mutate closed-over state"
    rationale = ("submit callables run on pool threads under the "
                 "threaded executor; writes to closed-over state race — "
                 "return results and merge in the caller")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SUBMIT_METHODS
                    and node.args):
                continue
            task = node.args[0]
            func = self._resolve_callable(ctx, node, task)
            if func is None:
                continue
            for line, col, description in _mutations(func):
                yield self.finding(
                    ctx, line, col,
                    f"executor task passed to .{node.func.attr}() "
                    f"mutates shared state ({description}) — data race "
                    f"under the threaded executor")

    def _resolve_callable(self, ctx: FileContext, call: ast.Call,
                          task: ast.expr
                          ) -> ast.Lambda | ast.FunctionDef | None:
        if isinstance(task, ast.Lambda):
            return task
        if isinstance(task, ast.Name):
            # A nested def passed by name from the same scope.
            scope = ctx.enclosing_scope(call)
            body = getattr(scope, "body", [])
            for stmt in body if isinstance(body, list) else []:
                if isinstance(stmt, ast.FunctionDef) and \
                        stmt.name == task.id:
                    return stmt
        return None
