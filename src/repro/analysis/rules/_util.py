"""Small AST helpers shared by the rules."""

from __future__ import annotations

import ast


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def name_tokens(node: ast.AST) -> list[str]:
    """Identifier segments of a Name/Attribute/Subscript chain.

    ``self._shards[i].pager`` -> ``["self", "_shards", "pager"]``; used
    for suffix matching, so leading underscores are stripped.
    """
    tokens: list[str] = []
    current = node
    while True:
        if isinstance(current, ast.Attribute):
            tokens.append(current.attr.lstrip("_"))
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Call):
            current = current.func
        elif isinstance(current, ast.Name):
            tokens.append(current.id.lstrip("_"))
            return list(reversed(tokens))
        else:
            return list(reversed(tokens))


def callee_simple_name(call: ast.Call) -> str | None:
    """Last identifier of the called expression (``x.y.Pager`` -> Pager)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def chain_root(node: ast.AST) -> ast.Name | None:
    """Leftmost Name of an attribute/subscript/call chain, if any."""
    current = node
    while True:
        if isinstance(current, (ast.Attribute, ast.Starred)):
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Call):
            current = current.func
        elif isinstance(current, ast.Name):
            return current
        else:
            return None


#: Name tokens (underscores stripped) that mark a synchronous lock.
_LOCK_TOKENS = frozenset({"lock", "rlock", "mutex", "cond", "condition"})


def sync_lock_token(node: ast.AST) -> str | None:
    """The lock token of a plain Name/Attribute chain, if lock-ish.

    Locks are identified by receiver name (``threading.Lock`` instances
    called ``*mutex*``/``*lock*``), which survives aliasing such as
    ``mutex = self._mutex`` that defeats type-based resolution.
    """
    if not isinstance(node, (ast.Name, ast.Attribute)):
        return None
    tokens = name_tokens(node)
    if tokens and (tokens[-1] in _LOCK_TOKENS
                   or tokens[-1].endswith(("lock", "mutex"))):
        return tokens[-1]
    return None
