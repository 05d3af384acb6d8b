"""R007 — compiled query plans are immutable after construction.

A :class:`~repro.core.plan.QueryPlan` is shared: between the queries
that hit the plan cache, between every in-process shard of an engine
:class:`~repro.engine.Coordinator` fan-out (worker processes derive
their own from the query's signature), and between retry attempts of
a failed shard task.
Mutating one in place — even "harmlessly" annotating it — is therefore
a cross-query correctness bug and, under the threaded executor, a data
race.  The frozen dataclass stops attribute rebinding at runtime, but
not mutation of its container fields (``column_of``, ``by_tree``); this
rule stops both statically across ``core/`` and ``engine/``.

Flagged: attribute/subscript stores, augmented assignments, deletions
and mutator-method calls (``update``, ``append``, ``clear``, ...) on
any name chain rooted at or passing through ``plan`` / ``*_plan``.
Rebinding a plain local (``plan = other_plan``) is fine — that replaces
the reference, not the shared object.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import Rule, register
from ..runner import FileContext
from ._util import name_tokens

_CHECKED_SUBPACKAGES = frozenset({"core", "engine"})
#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
})


def _is_plan_token(token: str) -> bool:
    return token == "plan" or token.endswith("_plan")


def _is_plan_chain(node: ast.AST) -> bool:
    """True if the chain is rooted at / passes through a plan object."""
    return any(_is_plan_token(token) for token in name_tokens(node))


def _stores_into_plan(target: ast.Attribute | ast.Subscript) -> bool:
    """True if a store target writes *into* a plan object.

    The plan must appear in the *owner* chain of the store: a store to
    ``plan.column_of[k]``, ``plan["by_tree"]`` or ``entry.plan.q_lo``
    mutates the shared plan, while ``self.plan = ...`` merely rebinds a
    holder's slot to a (new) plan and is how plan-owning objects are
    initialised.
    """
    return _is_plan_chain(target.value)


@register
class PlanPurity(Rule):
    rule_id = "R007"
    title = "query plans must not be mutated after construction"
    rationale = ("plans are shared across cached queries, shard fan-outs "
                 "and retry attempts; in-place mutation is a cross-query "
                 "correctness bug and a data race")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.subpackage not in _CHECKED_SUBPACKAGES:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)) \
                            and _stores_into_plan(target):
                        yield self.finding(
                            ctx, node.lineno, node.col_offset,
                            f"store into shared query plan "
                            f"{'.'.join(name_tokens(target))} — plans are "
                            f"immutable after construction (shared across "
                            f"cache hits, shards and retries)")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)) \
                            and _stores_into_plan(target):
                        yield self.finding(
                            ctx, node.lineno, node.col_offset,
                            f"delete on shared query plan "
                            f"{'.'.join(name_tokens(target))} — plans are "
                            f"immutable after construction")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS \
                    and _is_plan_chain(node.func.value):
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    f"mutating call .{node.func.attr}() on shared query "
                    f"plan {'.'.join(name_tokens(node.func.value))} — "
                    f"plans are immutable after construction")
