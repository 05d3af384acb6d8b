"""Interprocedural layer: symbol table + call graph (``ProjectContext``).

The per-file rules are intraprocedural: each looks at one parsed
module.  R009 and R010 check properties of *call paths* — a blocking
call is only a bug if a coroutine can reach it, a WAL append only if no
fsync follows it on the way to the acknowledgement.  This module
builds, once per lint run, the project-wide structures those rules
share:

* a **symbol table** of module-qualified functions, methods and
  classes (``serve.app.ServeApp.handle``), each tagged ``async`` or
  sync, with per-module import maps resolved to project-relative
  dotted names (``repro.`` is stripped, relative imports expanded);
* light **type inference** for the two receiver shapes that dominate
  this codebase — ``self.attr = KnownClass(...)`` in ``__init__`` and
  ``local = KnownClass(...)`` in a function body — so attribute calls
  through those receivers resolve to methods;
* a **call graph**: for every function, its call sites with the callee
  resolved to a :class:`FunctionInfo` / :class:`ClassInfo` where the
  heuristics above succeed, ``None`` otherwise.

Soundness posture: resolution is *best effort and under-approximate*.
An unresolved callee contributes no edges — rules must treat unknown
callees conservatively in the non-flagging direction (no finding), so
the analyzer stays quiet rather than wrong.  Dynamic dispatch,
``getattr``, reassigned attributes and inheritance overrides are out of
scope; the known seams the rules care about (Executor, FileOps,
WalWriter) are additionally matched by receiver-name
heuristics inside the rules themselves so they survive aliasing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner uses us)
    from .runner import FileContext

_FuncNode = ast.FunctionDef | ast.AsyncFunctionDef


def module_name_of(package_parts: tuple[str, ...]) -> str:
    """Dotted module name from a file's path inside the package.

    ``("serve", "app.py")`` -> ``"serve.app"``; ``__init__.py`` names
    the package itself; a top-level file names a bare module.
    """
    parts = list(package_parts)
    if not parts:
        return ""
    last = parts[-1]
    if last.endswith(".py"):
        last = last[:-3]
    if last == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = last
    return ".".join(parts)


def subpackage_of(module: str) -> str:
    """First package component of a dotted module name ('' if bare)."""
    if "." in module:
        return module.split(".", 1)[0]
    return ""


def _strip_repro(dotted: str) -> str:
    """Normalise absolute imports to the project-relative spelling."""
    if dotted == "repro":
        return ""
    if dotted.startswith("repro."):
        return dotted[len("repro."):]
    return dotted


@dataclass(eq=False)
class FunctionInfo:
    """One function or method, with everything the rules ask about."""

    qualname: str               # module-qualified, stable across runs
    module: str                 # dotted module ("serve.app")
    name: str                   # bare name ("handle")
    class_name: str | None      # enclosing class, if a method
    is_async: bool
    node: _FuncNode
    ctx: FileContext
    nested: list["FunctionInfo"] = field(default_factory=list)
    #: Call nodes whose nearest enclosing function is this one (calls
    #: inside nested defs/lambdas belong to the nested scope — they run
    #: when the closure runs, not when this body does).
    direct_calls: list[ast.Call] = field(default_factory=list)
    #: Direct call nodes that appear as ``await <call>``.
    awaited_calls: set[ast.Call] = field(default_factory=set)
    #: Inferred classes of local variables (``x = KnownClass(...)``).
    local_types: dict[str, "ClassInfo"] = field(default_factory=dict)

    @property
    def subpackage(self) -> str:
        return subpackage_of(self.module)


@dataclass(eq=False)
class ClassInfo:
    """One class: its methods and inferred attribute types."""

    qualname: str               # "engine.wal.WalWriter"
    module: str
    name: str
    node: ast.ClassDef
    ctx: FileContext
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.attr = KnownClass(...)`` assignments seen in any method.
    attr_types: dict[str, "ClassInfo"] = field(default_factory=dict)


def _import_map(tree: ast.Module, module: str) -> dict[str, str]:
    """Local name -> project-relative dotted target, for one module."""
    package = module.rsplit(".", 1)[0] if "." in module else ""
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = _strip_repro(alias.name)
                local = alias.asname or alias.name.split(".")[0]
                if alias.asname is None:
                    # ``import os.path`` binds ``os``.
                    target = _strip_repro(alias.name.split(".")[0])
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = _strip_repro(node.module or "")
            else:
                parts = package.split(".") if package else []
                keep = len(parts) - (node.level - 1)
                base = ".".join(parts[:keep]) if keep > 0 else ""
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = (f"{base}.{alias.name}" if base
                                  else alias.name)
    return imports


def direct_region(fn: _FuncNode) -> Iterator[ast.AST]:
    """Walk a function body, stopping at nested defs and lambdas.

    Statements inside a nested ``def``/``lambda`` execute when the
    closure is *called*, not where it is defined.
    """
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class ProjectContext:
    """Project-wide view handed to ``check_project`` rules.

    Built once per lint run from every parsed file; exposes the symbol
    table and the call graph.
    """

    def __init__(self, contexts: Iterable[FileContext]) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.imports: dict[str, dict[str, str]] = {}
        for ctx in contexts:
            self._add_file(ctx)
        self._infer_types()

    # -- construction ------------------------------------------------------

    def _add_file(self, ctx: FileContext) -> None:
        module = module_name_of(ctx.package_parts)
        self.imports[module] = _import_map(ctx.tree, module)
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(ctx, module, stmt, class_info=None,
                                   prefix=module)
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(
                    qualname=f"{module}.{stmt.name}" if module
                    else stmt.name,
                    module=module, name=stmt.name, node=stmt, ctx=ctx)
                self.classes[cls.qualname] = cls
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self._add_function(ctx, module, item,
                                           class_info=cls,
                                           prefix=cls.qualname)

    def _add_function(self, ctx: FileContext, module: str, node: _FuncNode,
                      class_info: ClassInfo | None,
                      prefix: str) -> FunctionInfo:
        info = FunctionInfo(
            qualname=f"{prefix}.{node.name}" if prefix else node.name,
            module=module, name=node.name,
            class_name=class_info.name if class_info else None,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            node=node, ctx=ctx)
        self.functions[info.qualname] = info
        if class_info is not None:
            class_info.methods[node.name] = info
        for child in direct_region(node):
            if isinstance(child, ast.Call):
                info.direct_calls.append(child)
            elif isinstance(child, ast.Await) \
                    and isinstance(child.value, ast.Call):
                info.awaited_calls.add(child.value)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                nested = self._add_function(
                    ctx, module, child, class_info=class_info,
                    prefix=f"{info.qualname}.<locals>")
                info.nested.append(nested)
        return info

    def _infer_types(self) -> None:
        # Second pass: every symbol exists, so constructor calls can be
        # resolved to classes for attribute/local receiver typing.
        for fn in list(self.functions.values()):
            for call in fn.direct_calls:
                target = self.resolve_call(fn, call, _typed=False)
                if not isinstance(target, ClassInfo):
                    continue
                parent = fn.ctx.parent(call)
                if not (isinstance(parent, ast.Assign)
                        and len(parent.targets) == 1):
                    continue
                dest = parent.targets[0]
                if isinstance(dest, ast.Name):
                    fn.local_types[dest.id] = target
                elif (isinstance(dest, ast.Attribute)
                      and isinstance(dest.value, ast.Name)
                      and dest.value.id == "self"
                      and fn.class_name is not None):
                    owner = self.classes.get(
                        f"{fn.module}.{fn.class_name}" if fn.module
                        else fn.class_name)
                    if owner is not None:
                        owner.attr_types[dest.attr] = target

    # -- lookups -----------------------------------------------------------

    def iter_functions(self) -> Iterator[FunctionInfo]:
        yield from self.functions.values()

    def _lookup(self, dotted: str) -> FunctionInfo | ClassInfo | None:
        return self.functions.get(dotted) or self.classes.get(dotted)

    def _class_of(self, fn: FunctionInfo) -> ClassInfo | None:
        if fn.class_name is None:
            return None
        qual = (f"{fn.module}.{fn.class_name}" if fn.module
                else fn.class_name)
        return self.classes.get(qual)

    # -- call resolution ---------------------------------------------------

    def resolve_call(self, fn: FunctionInfo, call: ast.Call, *,
                     _typed: bool = True
                     ) -> FunctionInfo | ClassInfo | None:
        """Best-effort resolution of one call site inside ``fn``.

        Returns the callee's :class:`FunctionInfo`, the
        :class:`ClassInfo` for a constructor call, or ``None`` when the
        callee cannot be determined (rules must not flag on ``None``).
        """
        func = call.func
        imports = self.imports.get(fn.module, {})
        if isinstance(func, ast.Name):
            for nested in fn.nested:
                if nested.name == func.id:
                    return nested
            local = self._lookup(f"{fn.module}.{func.id}"
                                 if fn.module else func.id)
            if local is not None:
                return local
            target = imports.get(func.id)
            if target is not None:
                return self._lookup(target)
            return None
        if not isinstance(func, ast.Attribute):
            return None
        owner = self._receiver_class(fn, func.value, imports,
                                     _typed=_typed)
        if owner is not None:
            return owner.methods.get(func.attr)
        # ``mod.func(...)`` through an imported module alias.
        if isinstance(func.value, ast.Name):
            target = imports.get(func.value.id)
            if target is not None:
                return self._lookup(f"{target}.{func.attr}")
        elif isinstance(func.value, ast.Attribute):
            dotted = _dotted(func.value)
            if dotted is not None:
                root, _, rest = dotted.partition(".")
                base = imports.get(root)
                if base is not None:
                    prefix = f"{base}.{rest}" if rest else base
                    return self._lookup(f"{prefix}.{func.attr}")
        return None

    def _receiver_class(self, fn: FunctionInfo, value: ast.AST,
                        imports: dict[str, str], *,
                        _typed: bool) -> ClassInfo | None:
        """The class of a call's receiver expression, if inferable."""
        if isinstance(value, ast.Name):
            if value.id == "self" and fn.class_name is not None:
                return self._class_of(fn)
            if _typed and value.id in fn.local_types:
                return fn.local_types[value.id]
            target = imports.get(value.id)
            if target is not None:
                found = self.classes.get(target)
                if found is not None:
                    return found
            # A class in the same module used by bare name.
            found = self.classes.get(f"{fn.module}.{value.id}"
                                     if fn.module else value.id)
            return found
        if (_typed and isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"):
            owner = self._class_of(fn)
            if owner is not None:
                return owner.attr_types.get(value.attr)
        return None


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))
