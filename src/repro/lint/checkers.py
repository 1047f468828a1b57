"""AST checkers behind the determinism lint rules.

One import-resolution pass records which local names are bound to the
``numpy.random`` / ``time`` / ``datetime`` / ``os`` modules (and
which functions were imported out of them), then a single checking walk
dispatches every rule, so a file is parsed and traversed exactly once
no matter how many rules are enabled.

The checks are deliberately *syntactic*: they flag expressions that are
provably hazardous from the text alone (a call spelled through a module
alias, iteration over a literal/constructed set) and stay silent where
only type inference could decide.  That keeps the pass dependency-free
and fast enough for a pre-commit hook; the dynamic property tests
remain the backstop for hazards that only manifest at run time.
"""

from __future__ import annotations

import ast
import math
from typing import Dict, List, Optional, Set

from repro.lint.findings import Finding
from repro.lint.rules import RULES_BY_ID, Rule

#: Clock functions whose results leak wall time into simulation state.
_CLOCK_FUNCS = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
    }
)

_DATETIME_CLOCK_METHODS = frozenset({"now", "utcnow", "today"})

#: ``os`` functions that act on durability at the fd level (DUR003).
_FD_DURABILITY_FUNCS = frozenset({"fsync", "fdatasync", "ftruncate", "truncate"})

#: ``open`` mode characters that make the call a write.
_WRITE_MODE_CHARS = frozenset("wax+")

#: Set methods that return a new set (so chaining keeps "set-ness").
_SET_RETURNING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Builtins whose output order follows the iteration order of their
#: (first) argument — feeding them a set is order-sensitive.
_ORDER_SENSITIVE_BUILTINS = frozenset({"list", "tuple", "enumerate", "iter"})


class _ImportTable:
    """Which local names resolve to the modules the rules care about."""

    def __init__(self) -> None:
        self.numpy_mods: Set[str] = set()
        self.numpy_random_mods: Set[str] = set()
        self.randomstate_names: Set[str] = set()
        self.time_mods: Set[str] = set()
        self.time_funcs: Dict[str, str] = {}
        self.datetime_mods: Set[str] = set()
        self.datetime_classes: Set[str] = set()
        self.os_mods: Set[str] = set()
        self.os_funcs: Dict[str, str] = {}

    def scan(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                self._scan_import(node)
            elif isinstance(node, ast.ImportFrom):
                self._scan_import_from(node)

    def _scan_import(self, node: ast.Import) -> None:
        for alias in node.names:
            name, bound = alias.name, alias.asname
            if name == "numpy":
                self.numpy_mods.add(bound or "numpy")
            elif name == "numpy.random":
                if bound:
                    self.numpy_random_mods.add(bound)
                else:
                    self.numpy_mods.add("numpy")
            elif name == "time":
                self.time_mods.add(bound or "time")
            elif name == "datetime":
                self.datetime_mods.add(bound or "datetime")
            elif name == "os":
                self.os_mods.add(bound or "os")

    def _scan_import_from(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            name, local = alias.name, alias.asname or alias.name
            if module == "numpy" and name == "random":
                self.numpy_random_mods.add(local)
            elif module == "numpy.random" and name == "RandomState":
                self.randomstate_names.add(local)
            elif module == "time" and name in _CLOCK_FUNCS:
                self.time_funcs[local] = name
            elif module == "datetime" and name in {"datetime", "date"}:
                self.datetime_classes.add(local)
            elif module == "os" and name in _FD_DURABILITY_FUNCS:
                self.os_funcs[local] = name


def _is_set_expr(node: ast.expr) -> bool:
    """Whether ``node`` syntactically constructs an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_RETURNING_METHODS
            and _is_set_expr(func.value)
        ):
            return True
    return False


def _nonintegral_float_constant(node: ast.expr) -> bool:
    if not (isinstance(node, ast.Constant) and isinstance(node.value, float)):
        return False
    value = node.value
    if value != value:  # NaN: == against it is always dead code
        return True
    if not math.isfinite(value):
        return False
    return value != int(value)


class DeterminismVisitor(ast.NodeVisitor):
    """Single-walk dispatcher for every enabled rule on one file."""

    def __init__(self, path: str, enabled: Set[str], imports: _ImportTable) -> None:
        self.path = path
        self.enabled = enabled
        self.imports = imports
        self.findings: List[Finding] = []

    # -- reporting ------------------------------------------------------
    def _report(self, rule_id: str, node: ast.AST, detail: str = "") -> None:
        if rule_id not in self.enabled:
            return
        rule: Rule = RULES_BY_ID[rule_id]
        message = rule.summary if not detail else f"{detail}: {rule.summary}"
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule_id,
                message=message,
                hint=rule.hint,
            )
        )

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self._check_name_call(node, func.id)
        elif isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
        self.generic_visit(node)

    def _check_name_call(self, node: ast.Call, name: str) -> None:
        imports = self.imports
        if name in imports.randomstate_names:
            self._report("RNG003", node)
        elif name in imports.time_funcs:
            self._report("DET003", node, f"`{name}` (from time import)")
        elif name in imports.os_funcs:
            self._report("DUR003", node, f"`{name}` (from os import)")
        elif name == "open":
            self._check_open(node)
        elif name in _ORDER_SENSITIVE_BUILTINS:
            if node.args and _is_set_expr(node.args[0]):
                self._report("DET001", node, f"`{name}(<set>)`")

    def _check_attribute_call(self, node: ast.Call, func: ast.Attribute) -> None:
        imports = self.imports
        attr = func.attr
        value = func.value
        if attr in {"write_text", "write_bytes"}:
            self._report("ART001", node, f"`.{attr}(...)`")
            return
        if isinstance(value, ast.Name):
            base = value.id
            if base in imports.numpy_random_mods and attr == "RandomState":
                self._report("RNG003", node)
            elif base in imports.time_mods and attr in _CLOCK_FUNCS:
                self._report("DET003", node, f"`{base}.{attr}`")
            elif base in imports.datetime_classes and attr in _DATETIME_CLOCK_METHODS:
                self._report("DET003", node, f"`{base}.{attr}`")
            elif base in imports.os_mods and attr in _FD_DURABILITY_FUNCS:
                self._report("DUR003", node, f"`{base}.{attr}`")
        elif isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
            root, mid = value.value.id, value.attr
            if root in imports.numpy_mods and mid == "random" and attr == "RandomState":
                self._report("RNG003", node)
            elif (
                root in imports.datetime_mods
                and mid in {"datetime", "date"}
                and attr in _DATETIME_CLOCK_METHODS
            ):
                self._report("DET003", node, f"`{root}.{mid}.{attr}`")

    def _check_open(self, node: ast.Call) -> None:
        mode: Optional[ast.expr] = None
        if len(node.args) >= 2:
            mode = node.args[1]
        else:
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
                    break
        if mode is None:
            return  # default mode "r": a read
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            if _WRITE_MODE_CHARS & set(mode.value):
                self._report("ART001", node, f"`open(..., {mode.value!r})`")

    # -- iteration contexts (DET001) ------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._report("DET001", node.iter, "`for` over a set")
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        if _is_set_expr(node.iter):
            self._report("DET001", node.iter, "`async for` over a set")
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.expr, kind: str) -> None:
        for comp in node.generators:  # type: ignore[attr-defined]
            if _is_set_expr(comp.iter):
                self._report("DET001", comp.iter, f"{kind} over a set")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, "list comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, "dict comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node, "generator expression")

    # Iterating a set *into another set* is order-insensitive: visit the
    # generators only to recurse, without flagging.
    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.generic_visit(node)

    def visit_Starred(self, node: ast.Starred) -> None:
        if _is_set_expr(node.value):
            self._report("DET001", node.value, "`*<set>` unpacking")
        self.generic_visit(node)

    # -- float equality (FLT001) ----------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                left, right = operands[index], operands[index + 1]
                if _nonintegral_float_constant(left) or _nonintegral_float_constant(
                    right
                ):
                    self._report("FLT001", node)
                    break
        self.generic_visit(node)


def check_tree(tree: ast.AST, path: str, enabled: Set[str]) -> List[Finding]:
    """Run every enabled checker over one parsed module."""
    imports = _ImportTable()
    imports.scan(tree)
    visitor = DeterminismVisitor(path, enabled, imports)
    visitor.visit(tree)
    return visitor.findings
