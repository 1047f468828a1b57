"""Whole-program rule family: ASYNC.

The serving shell (:mod:`repro.service.server`) runs on one event
loop.  A blocking call reachable from any ``async def`` stalls every
client at once, a dropped coroutine silently does nothing, and a
per-connection handler that writes serving state races the batcher.
None of these is visible from one file: they need the call graph.  The
write-ahead-log layer (``repro.service.wal``) *must* block before acks
by contract, so it and the chaos harness are barrier modules:
reachability stops there.

Soundness: the call graph and type inference under-approximate, so
these rules can miss dynamic violations but do not invent them; see
DESIGN.md §16 for the full policy.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.graph import CallGraph, async_roots, resolve_call
from repro.lint.project import FunctionInfo, ProjectIndex, _dotted_name

__all__ = ["PROJECT_CHECKS"]

_SERVICE_PREFIX = "repro.service"

#: Modules allowed to block directly: the WAL is the sanctioned
#: synchronous durability layer (write-ahead *means* the loop waits for
#: the fsync), and the chaos harness wraps it.
_BARRIER_MODULES = frozenset({"repro.service.wal", "repro.service.chaos"})

_BLOCKING_SUBPROCESS = frozenset({"run", "Popen", "call", "check_call", "check_output"})

#: Attributes that make up the service's shared serving state; only the
#: batcher/lifecycle path may write them once the loop is running.
_SERVICE_PROTECTED_ATTRS = frozenset(
    {"mode", "engine", "wal", "_journal", "_probe_ok", "_draining"}
)

_OPAQUE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _in_service(func: FunctionInfo) -> bool:
    module = func.module
    return module == _SERVICE_PREFIX or module.startswith(_SERVICE_PREFIX + ".")


def _resolved_name(index: ProjectIndex, func: FunctionInfo, call: ast.Call) -> str:
    dotted = _dotted_name(call.func)
    if dotted is None:
        return ""
    return index.resolve(func.module, dotted) or dotted


def _last(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body, skipping nested function/class/lambda bodies."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if not isinstance(child, _OPAQUE):
                stack.append(child)


# ----------------------------------------------------------------------
# ASYNC001 — blocking call reachable from an async def
# ----------------------------------------------------------------------
def _is_write_open(call: ast.Call) -> bool:
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False  # bare open() is a read; reads are out of scope
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(ch in mode.value for ch in "wax+")
    return True  # dynamic mode: assume the worst


def _blocking_kind(
    index: ProjectIndex, func: FunctionInfo, call: ast.Call
) -> Optional[str]:
    name = _resolved_name(index, func, call)
    if name == "time.sleep":
        return "time.sleep"
    if name in ("os.fsync", "os.fdatasync"):
        return name
    if name.split(".")[0] == "subprocess" and _last(name) in _BLOCKING_SUBPROCESS:
        return name
    if name == "open" and _is_write_open(call):
        return "open(..., write mode)"
    if isinstance(call.func, ast.Attribute) and call.func.attr in (
        "write_text",
        "write_bytes",
    ):
        return f".{call.func.attr}()"
    return None


def _check_async001(index: ProjectIndex, graph: CallGraph) -> List[Finding]:
    roots = sorted(async_roots(index, _SERVICE_PREFIX))
    origin = graph.reachable_from(
        roots, skip=lambda f: f.module in _BARRIER_MODULES
    )
    findings = []
    for qual in sorted(origin):
        func = index.functions.get(qual)
        if func is None or func.module in _BARRIER_MODULES:
            continue
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            kind = _blocking_kind(index, func, node)
            if kind is None:
                continue
            via = "" if qual == origin[qual] else f" via `{qual}`"
            findings.append(
                Finding(
                    path=func.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="ASYNC001",
                    message=(
                        f"blocking call `{kind}` is reachable from "
                        f"`async def {_last(origin[qual])}`{via}; it stalls "
                        "the whole event loop"
                    ),
                    hint=(
                        "run it in an executor (`loop.run_in_executor` / "
                        "`asyncio.to_thread`), or route it through the WAL "
                        "layer if it is part of the write-ahead contract"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------------
# ASYNC002 — coroutine called but never awaited
# ----------------------------------------------------------------------
def _check_async002(index: ProjectIndex) -> List[Finding]:
    findings = []
    for qual in sorted(index.functions):
        func = index.functions[qual]
        if not _in_service(func):
            continue
        local_types = index.infer_local_types(func)
        for node in _walk_shallow(func.node):
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                continue
            callee = resolve_call(index, func, node.value, local_types)
            target = index.function_at(callee)
            if target is None or not target.is_async:
                continue
            findings.append(
                Finding(
                    path=func.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="ASYNC002",
                    message=(
                        f"`{_last(callee or '')}` is a coroutine function; "
                        "calling it without `await` creates a coroutine "
                        "object and silently discards it"
                    ),
                    hint="`await` it, or wrap it in `asyncio.create_task(...)`",
                )
            )
    return findings


# ----------------------------------------------------------------------
# ASYNC003 — serving shared state written outside the batcher path
# ----------------------------------------------------------------------
def _protected_attr_writes(func: FunctionInfo) -> List[Tuple[ast.AST, str]]:
    writes: List[Tuple[ast.AST, str]] = []
    for node in ast.walk(func.node):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Tuple):
                candidates = list(target.elts)
            else:
                candidates = [target]
            for cand in candidates:
                dotted = _dotted_name(cand) if isinstance(cand, ast.Attribute) else None
                if (
                    dotted
                    and dotted.split(".")[0] == "self"
                    and _last(dotted) in _SERVICE_PROTECTED_ATTRS
                ):
                    writes.append((node, _last(dotted)))
    return writes


def _check_async003(index: ProjectIndex, graph: CallGraph) -> List[Finding]:
    findings = []
    for cls_qual in sorted(index.classes):
        cls = index.classes[cls_qual]
        if not (
            cls.module == _SERVICE_PREFIX
            or cls.module.startswith(_SERVICE_PREFIX + ".")
        ):
            continue
        method_infos = {
            name: index.functions[q]
            for name, q in cls.methods.items()
            if q in index.functions
        }
        if not any(f.is_async for f in method_infos.values()):
            continue  # no event loop, no batcher discipline to enforce
        roots: Set[str] = set()
        for name, func in method_infos.items():
            if name == "__init__":
                roots.add(func.qualname)  # constructor runs before serving
            local_types = index.infer_local_types(func)
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                last = _last(_dotted_name(node.func) or "")
                if last in ("create_task", "ensure_future"):
                    roots.add(func.qualname)  # lifecycle method
                    for arg in node.args:
                        if isinstance(arg, ast.Call):
                            target = resolve_call(index, func, arg, local_types)
                            if target is not None:
                                roots.add(target)
                elif last == "add_signal_handler":
                    roots.add(func.qualname)
                    for arg in node.args[1:]:
                        if isinstance(arg, ast.Attribute):
                            recv = index.type_of_expr(func, arg.value, local_types)
                            if recv is not None:
                                target = index.resolve_method(recv, arg.attr)
                                if target is not None:
                                    roots.add(target)
                elif last == "start_server":
                    roots.add(func.qualname)  # binds the listener (lifecycle);
                    # its client-callback argument is deliberately NOT a root
        allowed = set(graph.reachable_from(sorted(roots)))
        for name, func in sorted(method_infos.items()):
            if func.qualname in allowed:
                continue
            for node, attr in _protected_attr_writes(func):
                findings.append(
                    Finding(
                        path=func.path,
                        line=getattr(node, "lineno", func.line),
                        col=getattr(node, "col_offset", 0),
                        rule="ASYNC003",
                        message=(
                            f"`self.{attr}` is serving shared state, but "
                            f"`{name}` is not on the batcher/lifecycle path "
                            "(it is reachable from per-connection handlers), "
                            "so this write races the batch loop"
                        ),
                        hint=(
                            "move the mutation into the batcher task (queue a "
                            "request) or a lifecycle/signal handler"
                        ),
                    )
                )
    return findings


#: (rule id, check) registry the engine iterates.
PROJECT_CHECKS: Tuple[
    Tuple[str, "Callable[[ProjectIndex, CallGraph], List[Finding]]"], ...
] = (
    ("ASYNC001", _check_async001),
    ("ASYNC002", lambda index, graph: _check_async002(index)),
    ("ASYNC003", _check_async003),
)
