"""R009 — no blocking call is reachable from a serve/ coroutine.

The serving layer is a single event loop: one blocking call anywhere on
a coroutine's call path stalls every request in flight (and, held
behind the slide gate, can wedge the whole barrier).  The architecture
routes every blocking engine call through the Executor seam
(``executor.submit`` / ``loop.run_in_executor``) onto a pool thread —
so the invariant is *reachability*: starting from any ``async def`` in
``serve/`` and walking the call graph through **synchronous** callees
(the code that runs inline on the loop), no path may reach

* ``time.sleep``,
* ``os.fsync``/``os.fdatasync`` or a FileOps durability call
  (``fsync_file``, ``fsync_dir``, ``write_file``, ``append_file``,
  ``truncate_file``, ``replace`` on a ``fops``-shaped receiver),
* a blocking ``<lock>.acquire()``,
* socket I/O (``recv``/``send``/``accept``/``connect`` on a socket-
  shaped receiver, ``socket.create_connection``),
* a direct engine method (``query_interval``, ``extend``,
  ``advance_time``, ...) on an ``engine``-shaped receiver that is not
  awaited — the async facade's methods share those names, so an
  *awaited* call is the facade and fine; a bare one is the blocking
  engine.

The traversal is what makes this interprocedural: a coroutine calling
a sync helper calling another helper that sleeps is flagged, with the
full call chain in the message.  Deferred code is excluded — nested
defs and lambdas run wherever they are *called* (usually the pool via
``submit``), not where they are defined — and unknown callees end the
walk (under-approximate, per the project soundness posture).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..callgraph import FunctionInfo, ProjectContext
from ..findings import Finding
from ..registry import Rule, register
from ._util import dotted_name, name_tokens, sync_lock_token

_ENTRY_SUBPACKAGE = "serve"

_BLOCKING_DOTTED = frozenset({
    "time.sleep", "os.fsync", "os.fdatasync", "os.sync",
    "socket.create_connection",
})
#: FileOps durability methods, blocking by contract.
_FOPS_ATTRS = frozenset({"write_file", "append_file", "fsync_file",
                         "fsync_dir", "truncate_file", "replace"})
_FOPS_RECEIVERS = frozenset({"fops", "ops", "fileops", "file_ops"})
_SOCKET_ATTRS = frozenset({"recv", "recv_into", "recvfrom", "send",
                           "sendall", "sendto", "accept", "connect"})
#: Engine methods that run the blocking index stack.
_ENGINE_METHODS = frozenset({
    "query_interval", "query_timeslice", "query_interval_many",
    "count_interval", "query_knn", "insert", "report", "extend",
    "close_object", "advance_time", "save", "open", "close",
})
#: Calls that hand work to a pool thread: the legitimate seam.
_SEAM_ATTRS = frozenset({"submit", "run_in_executor"})

_MAX_DEPTH = 32


def _is_fops_receiver(node: ast.AST) -> bool:
    tokens = name_tokens(node)
    return bool(tokens) and tokens[-1] in _FOPS_RECEIVERS


def _is_socket_receiver(node: ast.AST) -> bool:
    tokens = name_tokens(node)
    return bool(tokens) and any(token == "sock" or token.endswith("sock")
                                or token == "socket"
                                for token in tokens)


def _is_engine_receiver(node: ast.AST) -> bool:
    tokens = name_tokens(node)
    return any(token == "engine" or token.endswith("engine")
               for token in tokens)


def _classify_blocking(project: ProjectContext, fn: FunctionInfo,
                       call: ast.Call, awaited: bool) -> str | None:
    """A short description if ``call`` is a blocking primitive."""
    dotted = dotted_name(call.func)
    if dotted in _BLOCKING_DOTTED:
        return f"blocking call {dotted}()"
    if isinstance(call.func, ast.Name):
        # ``from time import sleep`` and friends: resolve the bare name
        # through the module's import map.
        imported = project.imports.get(fn.module, {}).get(call.func.id)
        if imported in _BLOCKING_DOTTED:
            return f"blocking call {imported}()"
        return None
    if not isinstance(call.func, ast.Attribute):
        return None
    attr = call.func.attr
    receiver = call.func.value
    if attr in _FOPS_ATTRS and _is_fops_receiver(receiver):
        return f"blocking FileOps call .{attr}()"
    if attr == "acquire" and sync_lock_token(receiver) is not None:
        return "blocking lock .acquire()"
    if attr in _SOCKET_ATTRS and _is_socket_receiver(receiver):
        return f"blocking socket I/O .{attr}()"
    if attr in _ENGINE_METHODS and _is_engine_receiver(receiver) \
            and not awaited:
        return (f"direct engine call .{attr}() outside the "
                f"Executor seam")
    return None


def _is_seam(call: ast.Call) -> bool:
    return (isinstance(call.func, ast.Attribute)
            and call.func.attr in _SEAM_ATTRS)


@register
class AsyncBlocking(Rule):
    rule_id = "R009"
    title = "no blocking call reachable from a serve/ coroutine"
    rationale = ("one blocking call on the event loop stalls every "
                 "in-flight request; blocking engine work must cross "
                 "the Executor seam onto a pool thread")
    project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        reported: set[tuple[str, int, int, str]] = set()
        for entry in project.iter_functions():
            if not entry.is_async \
                    or entry.subpackage != _ENTRY_SUBPACKAGE:
                continue
            yield from self._scan(project, entry, [entry], {entry},
                                  reported)

    def _scan(self, project: ProjectContext, fn: FunctionInfo,
              chain: list[FunctionInfo], seen: set[FunctionInfo],
              reported: set[tuple[str, int, int, str]]
              ) -> Iterator[Finding]:
        if len(chain) > _MAX_DEPTH:
            return
        for call in fn.direct_calls:
            awaited = call in fn.awaited_calls
            what = _classify_blocking(project, fn, call, awaited)
            if what is not None:
                key = (fn.ctx.path, call.lineno, call.col_offset, what)
                if key not in reported:
                    reported.add(key)
                    yield self._finding(fn, call, what, chain)
                continue
            if _is_seam(call):
                continue
            target = project.resolve_call(fn, call)
            if not isinstance(target, FunctionInfo):
                continue
            if target.is_async or target in seen:
                continue
            yield from self._scan(project, target, chain + [target],
                                  seen | {target}, reported)

    def _finding(self, fn: FunctionInfo, call: ast.Call, what: str,
                 chain: list[FunctionInfo]) -> Finding:
        entry = chain[0]
        if len(chain) == 1:
            route = f"directly in async def {entry.qualname}"
        else:
            hops = " -> ".join(info.qualname for info in chain[1:])
            route = (f"reachable from async def {entry.qualname} "
                     f"via {hops}")
        return Finding(
            path=fn.ctx.path, line=call.lineno, col=call.col_offset,
            rule_id=self.rule_id,
            message=f"{what} {route} — blocks the event loop; route "
                    f"through the Executor seam")
