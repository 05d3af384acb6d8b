"""R011 — no ``await`` while a synchronous lock is held in a coroutine.

A sync ``threading.Lock`` held across an ``await`` is the event-loop
version of holding a spinlock across a context switch: the coroutine
suspends with the lock held, the loop schedules other tasks, and any
pool thread (or other coroutine resuming on a different tick) that
touches the same lock now blocks for an unbounded number of loop
iterations — or deadlocks outright if the lock's release depends on a
task parked behind it.  The facade's design keeps sync locks strictly
inside pool-thread closures (``AsyncEngine._run`` takes the mutex *on
the pool thread*); coroutine bodies coordinate with the
:class:`~repro.serve.gate.SlideGate` (``async with gate.read()``),
which is built to suspend.

Flagged: an ``await`` anywhere inside a synchronous ``with`` whose
context expression is a sync lock (name heuristics shared with R009),
in any ``async def`` under ``serve/`` or ``engine/``.  Nested
``def``/``lambda`` bodies are skipped — code inside them does not run
while the ``with`` frame holds the lock.  ``async with`` on the gate
is the sanctioned pattern and never matches.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..callgraph import direct_region
from ..findings import Finding
from ..registry import Rule, register
from ..runner import FileContext
from ._util import sync_lock_token

_SCOPE = frozenset({"serve", "engine"})


def _awaits_under(node: ast.With) -> Iterator[ast.Await]:
    """Await expressions in the with-body that run in this frame."""
    for stmt in node.body:
        stack: list[ast.AST] = [stmt]
        while stack:
            current = stack.pop()
            if isinstance(current, ast.Await):
                yield current
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(current))


def _lock_of(item: ast.withitem) -> str | None:
    """The lock token of ``with <lock>`` or ``with <lock>.acquire()``."""
    expr = item.context_expr
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute) \
            and expr.func.attr == "acquire":
        expr = expr.func.value
    return sync_lock_token(expr)


@register
class AwaitHoldingLock(Rule):
    rule_id = "R011"
    title = "no await while a synchronous lock is held in a coroutine"
    rationale = ("suspending with a sync lock held blocks pool threads "
                 "for unbounded loop iterations and can deadlock the "
                 "serving plane; sync locks belong inside pool-thread "
                 "closures, coroutines coordinate via the gate")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.subpackage not in _SCOPE:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for stmt in direct_region(node):
                if not isinstance(stmt, ast.With):
                    continue
                tokens = [token for token in map(_lock_of, stmt.items)
                          if token is not None]
                if not tokens:
                    continue
                for awaited in _awaits_under(stmt):
                    yield self.finding(
                        ctx, awaited.lineno, awaited.col_offset,
                        f"await while holding sync lock "
                        f"{tokens[0]!r} — the coroutine suspends with "
                        f"the lock held; move the lock into the pool-"
                        f"thread closure or use the gate")
