"""Whole-program model behind the project lint pass.

The per-file checkers (:mod:`repro.lint.checkers`) are deliberately
blind to anything outside one module; the service's event-loop rules
(the ASYNC family) need to know *who calls whom* and *what type a
receiver is* across module boundaries.  This module builds that
picture from the already-parsed ASTs:

* a **module table** mapping dotted module names to parse trees, with
  each module's import bindings resolved to fully-qualified targets
  (``from .wal import ReplayLogWriter`` inside ``repro.service.server``
  binds ``ReplayLogWriter`` to ``repro.service.wal.ReplayLogWriter``);
* a **symbol table** of every function, method and class, keyed by
  qualified name, with re-export chains chased through package
  ``__init__`` modules (``repro.lint.run_lint`` canonicalizes to
  ``repro.lint.engine.run_lint``);
* **lightweight type inference** — parameter annotations, ``self``,
  ``x = ClassName(...)`` constructor assignments, and instance-attribute
  types gathered from ``__init__`` bodies (``self.engine:
  Optional[ServiceEngine] = None`` types ``self.engine`` for every
  other method) — just enough to resolve ``self.engine.apply_batch()``
  to a concrete method.

Soundness policy: resolution is *best effort and under-approximate* —
a receiver whose type cannot be proven stays unresolved and produces no
call edge and no finding.  The project rules are therefore quiet where
the code is too dynamic to analyse, and the dynamic test suite remains
the backstop there; what the resolver does claim, it can justify.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "build_project_index",
    "module_name_for_path",
]

#: Path components that act as import roots: the part after them is the
#: dotted module name (``src/repro/sim/engine.py`` -> ``repro.sim.engine``).
_SOURCE_ROOTS = ("src",)


def module_name_for_path(path: str) -> str:
    """Dotted module name of a file path (posix or windows form).

    Files under a ``src/`` component are named from the part after it;
    anything else (tests, benchmarks, scripts) is named from its full
    relative path so test modules still get stable, unique names.
    ``__init__.py`` maps to its package name.
    """
    parts = [p for p in path.replace("\\", "/").split("/") if p not in ("", ".")]
    for root in _SOURCE_ROOTS:
        if root in parts:
            parts = parts[len(parts) - parts[::-1].index(root):]
            break
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<root>"


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    path: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    is_async: bool
    cls: Optional[str] = None  # qualified class name for methods

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclass
class ClassInfo:
    """One class definition with resolved structure."""

    qualname: str
    module: str
    path: str
    node: ast.ClassDef
    base_names: List[str] = field(default_factory=list)  # as written
    methods: Dict[str, str] = field(default_factory=dict)  # name -> func qualname
    attr_types: Dict[str, str] = field(default_factory=dict)  # attr -> class qualname


@dataclass
class ModuleInfo:
    """One parsed module and its name bindings."""

    name: str
    path: str
    tree: ast.Module
    is_package: bool = False
    #: local name -> fully-qualified target (module, class, or function).
    imports: Dict[str, str] = field(default_factory=dict)
    #: top-level definition name -> qualified symbol name.
    defs: Dict[str, str] = field(default_factory=dict)


class ProjectIndex:
    """Symbol resolver over every module of one lint run."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: bare method/function name -> qualified names (fallback index).
        self.by_name: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve(self, module: str, dotted: str) -> Optional[str]:
        """Resolve a (possibly dotted) name used inside ``module``.

        Returns the canonical qualified name, chasing re-export chains,
        or ``None`` when the head name is not bound in the module.
        """
        head, _, rest = dotted.partition(".")
        mod = self.modules.get(module)
        if mod is None:
            return None
        if head in mod.defs:
            target = mod.defs[head]
        elif head in mod.imports:
            target = mod.imports[head]
        else:
            return None
        if rest:
            target = f"{target}.{rest}"
        return self.canonicalize(target)

    def canonicalize(self, qual: str, _seen: Optional[Set[str]] = None) -> str:
        """Chase re-exports until ``qual`` names a real definition.

        ``repro.lint.run_lint`` (bound by the package ``__init__``
        from ``repro.lint.engine``) canonicalizes to
        ``repro.lint.engine.run_lint``.  Unknown prefixes (stdlib,
        third-party) are returned unchanged.
        """
        seen = _seen if _seen is not None else set()
        if qual in seen:
            return qual
        seen.add(qual)
        parts = qual.split(".")
        # Longest known-module prefix wins.
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            mod = self.modules.get(prefix)
            if mod is None:
                continue
            rest = parts[cut:]
            if not rest:
                return qual  # it IS a module
            head, tail = rest[0], rest[1:]
            if head in mod.defs:
                resolved = mod.defs[head]
            elif head in mod.imports:
                resolved = self.canonicalize(mod.imports[head], seen)
            else:
                return qual
            if tail:
                resolved = f"{resolved}.{'.'.join(tail)}"
                return self.canonicalize(resolved, seen)
            return resolved
        return qual

    def function_at(self, qual: Optional[str]) -> Optional[FunctionInfo]:
        if qual is None:
            return None
        return self.functions.get(qual)

    def class_at(self, qual: Optional[str]) -> Optional[ClassInfo]:
        if qual is None:
            return None
        return self.classes.get(qual)

    # ------------------------------------------------------------------
    # method resolution (class hierarchy walk)
    # ------------------------------------------------------------------
    def iter_mro(self, cls_qual: str) -> Iterator[ClassInfo]:
        """The class and its known base classes, nearest-first.

        Python's true MRO needs full linearization; for call-graph
        purposes a depth-first nearest-first walk over the *known*
        bases is the conservative stand-in (unknown/external bases
        simply end the chain).
        """
        seen: Set[str] = set()
        stack = [cls_qual]
        while stack:
            qual = stack.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            info = self.classes.get(qual)
            if info is None:
                continue
            yield info
            resolved_bases = []
            for base in info.base_names:
                target = self.resolve(info.module, base)
                if target is not None and target in self.classes:
                    resolved_bases.append(target)
            stack = resolved_bases + stack

    def resolve_method(self, cls_qual: str, method: str) -> Optional[str]:
        """Find ``method`` on the class or its known bases."""
        for info in self.iter_mro(cls_qual):
            if method in info.methods:
                return info.methods[method]
        return None

    def unique_by_name(self, name: str) -> Optional[str]:
        """The single project function/method with this bare name, if
        exactly one exists (the documented last-resort fallback for
        receivers whose type could not be inferred)."""
        candidates = self.by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    # ------------------------------------------------------------------
    # annotation / type helpers
    # ------------------------------------------------------------------
    def resolve_annotation(self, module: str, ann: Optional[ast.expr]) -> Optional[str]:
        """Qualified class name an annotation refers to, if inferable.

        Handles ``Name``, dotted ``Attribute``, string annotations,
        ``Optional[X]`` (unwrapped to ``X``) and ``X | None``.
        """
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.Name):
            target = self.resolve(module, ann.id)
            return target if target in self.classes else None
        if isinstance(ann, ast.Attribute):
            dotted = _dotted_name(ann)
            if dotted is None:
                return None
            target = self.resolve(module, dotted) or dotted
            return target if target in self.classes else None
        if isinstance(ann, ast.Subscript):
            head = _dotted_name(ann.value)
            if head and head.split(".")[-1] == "Optional":
                return self.resolve_annotation(module, ann.slice)
            return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            sides = [
                side
                for side in (ann.left, ann.right)
                if not (isinstance(side, ast.Constant) and side.value is None)
            ]
            if len(sides) == 1:
                return self.resolve_annotation(module, sides[0])
        return None

    def infer_local_types(self, func: FunctionInfo) -> Dict[str, str]:
        """Best-effort local-name -> class map for one function body.

        Sources, in order: ``self``/``cls`` (the enclosing class),
        annotated parameters, and single-target assignments from a
        constructor call or a typed ``self.<attr>``.
        """
        types: Dict[str, str] = {}
        node = func.node
        args = getattr(node, "args", None)
        if args is not None:
            all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if func.cls is not None and all_args:
                first = all_args[0].arg
                if first in ("self", "cls"):
                    types[first] = func.cls
            for arg in all_args:
                resolved = self.resolve_annotation(func.module, arg.annotation)
                if resolved is not None:
                    types[arg.arg] = resolved
        cls_info = self.class_at(func.cls)
        for stmt in ast.walk(node):  # assignments anywhere in the body
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
                if isinstance(target, ast.Name):
                    resolved = self.resolve_annotation(func.module, stmt.annotation)
                    if resolved is not None:
                        types[target.id] = resolved
                    continue
            if not isinstance(target, ast.Name) or value is None:
                continue
            inferred = self._infer_value_type(func, cls_info, value, types)
            if inferred is not None:
                types[target.id] = inferred
        return types

    def _infer_value_type(
        self,
        func: FunctionInfo,
        cls_info: Optional[ClassInfo],
        value: ast.expr,
        types: Dict[str, str],
    ) -> Optional[str]:
        if isinstance(value, ast.Call):
            callee = _dotted_name(value.func)
            if callee is not None:
                target = self.resolve(func.module, callee)
                if target in self.classes:
                    return target
            return None
        if isinstance(value, ast.Name):
            return types.get(value.id)
        if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
            base = types.get(value.value.id)
            info = self.class_at(base)
            if info is not None:
                return info.attr_types.get(value.attr)
        return None

    def type_of_expr(
        self, func: FunctionInfo, expr: ast.expr, local_types: Dict[str, str]
    ) -> Optional[str]:
        """Class of an expression under the local type environment."""
        if isinstance(expr, ast.Name):
            return local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.type_of_expr(func, expr.value, local_types)
            info = self.class_at(base)
            if info is not None:
                return info.attr_types.get(expr.attr)
        return None


def _dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` rendered as a string, or None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ----------------------------------------------------------------------
# index construction
# ----------------------------------------------------------------------
def _scan_imports(info: ModuleInfo) -> None:
    pkg_parts = info.name.split(".")
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    info.imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    info.imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                keep = len(pkg_parts) - node.level + (1 if info.is_package else 0)
                base_parts = pkg_parts[: max(keep, 0)]
                base = ".".join(base_parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = f"{base}.{alias.name}" if base else alias.name


def _gather_attr_types(
    index: ProjectIndex, cls: ClassInfo, module: str
) -> None:
    """Instance-attribute types from every method of one class.

    ``self.x: T = ...`` and ``self.x = ClassName(...)`` and
    ``self.x = <annotated parameter>`` all contribute; conflicting
    evidence keeps the first (definition-order) answer.
    """
    for method_qual in cls.methods.values():
        func = index.functions.get(method_qual)
        if func is None:
            continue
        param_types: Dict[str, str] = {}
        args = getattr(func.node, "args", None)
        if args is not None:
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                resolved = index.resolve_annotation(module, arg.annotation)
                if resolved is not None:
                    param_types[arg.arg] = resolved
        for stmt in ast.walk(func.node):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            ann: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value, ann = stmt.target, stmt.value, stmt.annotation
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            if attr in cls.attr_types:
                continue
            resolved = index.resolve_annotation(module, ann) if ann else None
            if resolved is None and isinstance(value, ast.Call):
                callee = _dotted_name(value.func)
                if callee is not None:
                    maybe = index.resolve(module, callee)
                    if maybe in index.classes:
                        resolved = maybe
            if resolved is None and isinstance(value, ast.Name):
                resolved = param_types.get(value.id)
            if resolved is not None:
                cls.attr_types[attr] = resolved


def _index_module(index: ProjectIndex, info: ModuleInfo) -> None:
    def add_function(
        node: ast.AST, scope: str, cls: Optional[str]
    ) -> None:
        name = getattr(node, "name")
        qual = f"{scope}.{name}"
        func = FunctionInfo(
            qualname=qual,
            module=info.name,
            path=info.path,
            name=name,
            node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            cls=cls,
        )
        index.functions[qual] = func
        index.by_name.setdefault(name, []).append(qual)
        if cls is not None:
            index.classes[cls].methods.setdefault(name, qual)

    for node in info.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.defs[node.name] = f"{info.name}.{node.name}"
            add_function(node, info.name, cls=None)
        elif isinstance(node, ast.ClassDef):
            cls_qual = f"{info.name}.{node.name}"
            info.defs[node.name] = cls_qual
            base_names = [
                dotted
                for dotted in (_dotted_name(base) for base in node.bases)
                if dotted is not None
            ]
            index.classes[cls_qual] = ClassInfo(
                qualname=cls_qual,
                module=info.name,
                path=info.path,
                node=node,
                base_names=base_names,
            )
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add_function(sub, cls_qual, cls=cls_qual)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    info.defs.setdefault(target.id, f"{info.name}.{target.id}")


def build_project_index(
    sources: Sequence[Tuple[str, ast.Module]]
) -> ProjectIndex:
    """Build the whole-program index from ``(path, tree)`` pairs.

    Later duplicates of the same module name shadow earlier ones (the
    realistic cause is linting both ``src`` and an installed copy; the
    lint CLI passes each file once).
    """
    index = ProjectIndex()
    for path, tree in sources:
        name = module_name_for_path(path)
        info = ModuleInfo(
            name=name,
            path=path,
            tree=tree,
            is_package=path.replace("\\", "/").endswith("__init__.py"),
        )
        index.modules[name] = info
    for info in index.modules.values():
        _scan_imports(info)
        _index_module(index, info)
    for cls in index.classes.values():
        _gather_attr_types(index, cls, cls.module)
    return index
