"""Walk files, parse them once, run every rule.

The runner owns everything rules share: the parsed AST, a child->parent
map (rules climb it to classify the context of a node) and the file's
position inside the package (rules scope themselves to subpackages).
There is no suppression comment: a finding is fixed, not silenced.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator, Sequence

from .findings import Finding
from .registry import Rule, all_rules

@dataclass
class FileContext:
    """Everything a rule may want to know about one file."""

    path: str                       # posix-style path used in findings
    tree: ast.Module
    package_parts: tuple[str, ...]  # path inside the repro package
    _parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    @classmethod
    def from_source(cls, source: str, path: str) -> "FileContext":
        posix = PurePosixPath(path.replace(os.sep, "/"))
        parts = posix.parts
        package = (parts[parts.index("repro") + 1:]
                   if "repro" in parts else parts)
        return cls(path=str(posix),
                   tree=ast.parse(source, filename=str(posix)),
                   package_parts=tuple(package))

    # -- helpers rules lean on --------------------------------------------

    @property
    def subpackage(self) -> str:
        """First package directory under ``repro`` ('' for top level)."""
        if len(self.package_parts) > 1:
            return self.package_parts[0]
        return ""

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module node."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_scope(self, node: ast.AST) -> ast.AST:
        """Nearest enclosing function/lambda, else the module."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                return ancestor
        return self.tree

    def statement_of(self, node: ast.AST) -> ast.stmt:
        """The smallest statement containing ``node``."""
        current: ast.AST = node
        while not isinstance(current, ast.stmt):
            parent = self._parents.get(current)
            if parent is None:
                raise ValueError("node is not inside a statement")
            current = parent
        return current


def _check_files(contexts: Sequence[FileContext],
                 rules: Sequence[Rule]) -> list[Finding]:
    """Run the per-file rules over already-parsed contexts."""
    per_file = [rule for rule in rules if not rule.project]
    return [finding
            for ctx in contexts
            for rule in per_file
            for finding in rule.check(ctx)]


def _check_project(contexts: Sequence[FileContext],
                   rules: Sequence[Rule]) -> list[Finding]:
    """Run the project-level rules over one shared ``ProjectContext``.

    The symbol table and call graph are built exactly once per run,
    however many project rules are active.
    """
    project_rules = [rule for rule in rules if rule.project]
    if not project_rules:
        return []
    from .callgraph import ProjectContext
    project = ProjectContext(contexts)
    return [finding for rule in project_rules
            for finding in rule.check_project(project)]


def lint_sources(sources: dict[str, str],
                 rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Lint a set of in-memory modules as one project.

    ``sources`` maps fake in-repo paths to source text; this is the
    entry point for multi-file fixtures exercising the interprocedural
    rules (a call chain split across modules).
    """
    contexts = [FileContext.from_source(source, path)
                for path, source in sorted(sources.items())]
    active = list(rules) if rules is not None else all_rules()
    return sorted(_check_files(contexts, active)
                  + _check_project(contexts, active))


def lint_source(source: str, path: str,
                rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Lint one in-memory source blob (the fixture tests' entry point).

    Project rules run too, over a one-file project — a fixture whose
    whole call chain lives in one module needs nothing more.
    """
    return lint_sources({path: source}, rules=rules)


def _shown_path(path: Path, root: str | Path | None) -> str:
    """Best-effort relativisation so finding paths stay stable."""
    if root is not None:
        try:
            return str(path.resolve().relative_to(Path(root).resolve()))
        except ValueError:
            pass
    return str(path)



def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            yield from sorted(p for p in entry.rglob("*.py")
                              if "__pycache__" not in p.parts)
        else:
            yield entry


def lint_paths(paths: Iterable[str | Path], *,
               root: str | Path | None = None,
               rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Lint every python file under ``paths`` (files or directories)."""
    return lint_sources({_shown_path(file_path, root):
                         file_path.read_text(encoding="utf-8")
                         for file_path in iter_python_files(paths)},
                        rules=rules)
