"""Rule registry: rules self-register at import time via :func:`register`.

A rule is a class with ``rule_id`` / ``title`` / ``rationale`` class
attributes and a ``check(ctx)`` method yielding :class:`Finding` objects
for one parsed file.  Registration keys on ``rule_id`` so a duplicate id
is an immediate error rather than a silently shadowed rule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, ClassVar, Iterator, TypeVar

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .callgraph import ProjectContext
    from .runner import FileContext


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    Instances are reused across files within one run, so ``check`` must
    derive everything from ``ctx`` rather than instance state.
    """

    #: Stable identifier, e.g. ``"R002"`` — referenced by the docs and
    #: CI; never renumber (deleted ids stay retired).
    rule_id: ClassVar[str] = ""
    #: One-line summary shown by ``--list-rules``.
    title: ClassVar[str] = ""
    #: Which invariant the rule guards and why it matters.
    rationale: ClassVar[str] = ""
    #: Project-level rules see the whole tree at once: the runner calls
    #: :meth:`check_project` exactly once per run with the shared
    #: :class:`~repro.analysis.callgraph.ProjectContext` instead of
    #: calling :meth:`check` per file.
    project: ClassVar[bool] = False

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: "FileContext", line: int, col: int,
                message: str) -> Finding:
        return Finding(path=ctx.path, line=line, col=col,
                       rule_id=self.rule_id, message=message)


_R = TypeVar("_R", bound=type[Rule])

_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: _R) -> _R:
    """Class decorator adding ``cls`` to the global rule registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    existing = _REGISTRY.get(cls.rule_id)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}: "
                         f"{existing.__name__} and {cls.__name__}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def _load_builtin_rules() -> None:
    # Import for the side effect of @register; late import avoids a
    # registry<->rules cycle.
    from . import rules as _rules  # noqa: F401


def all_rules(only: Callable[[type[Rule]], bool] | None = None
              ) -> list[Rule]:
    """Fresh instances of every registered rule, sorted by rule id."""
    _load_builtin_rules()
    classes = sorted(_REGISTRY.values(), key=lambda cls: cls.rule_id)
    return [cls() for cls in classes if only is None or only(cls)]


def get_rule(rule_id: str) -> type[Rule]:
    """Look up one registered rule class by id."""
    _load_builtin_rules()
    return _REGISTRY[rule_id]
