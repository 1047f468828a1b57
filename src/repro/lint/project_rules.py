"""Whole-program rule families: ASYNC, DUR, SOA.

These rules check invariants no single file can witness:

* **ASYNC** — the serving shell (:mod:`repro.service.server`) runs on
  one event loop; a blocking call reachable from any ``async def``
  stalls every client at once.  The write-ahead-log layer
  (``repro.service.wal``) *must* block before acks by contract, so it
  and the chaos harness are barrier modules: reachability stops there.
* **DUR** — "fsync before ack": every manager mutation site in the
  service must be dominated, on all call-graph paths, by a WAL append
  (``log_events``), a journal append (degraded mode), or an explicit
  ``wal is None`` check (WAL-less engines are allowed, but only
  deliberately).  Degraded-mode journals must reach a flush.
* **SOA** — the per-cell headroom refresh: whoever writes one of the
  :class:`LinkTable` columns ``headroom`` is computed from refreshes
  the touched cells in the same function; the ``failed``/``failed_py``
  mirror never splits.  Receiver types are proven (annotations, constructor
  assignments) before a write is attributed to ``LinkTable`` — the
  reference's :class:`~repro.reference.Link` has *dict* attributes with
  the same names, and a
  name-only match would drown the rule in false positives.

Soundness: the call graph and type inference under-approximate, so
these rules can miss dynamic violations but do not invent them; see
DESIGN.md §16 for the full policy.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.dataflow import _walk_shallow, analyze_function
from repro.lint.findings import Finding
from repro.lint.graph import CallGraph, async_roots, build_call_graph, resolve_call
from repro.lint.project import FunctionInfo, ProjectIndex, _dotted_name

__all__ = ["PROJECT_CHECKS", "check_project"]

_SERVICE_PREFIX = "repro.service"

#: Modules allowed to block / touch fds directly: the WAL is the
#: sanctioned synchronous durability layer (write-ahead *means* the
#: loop waits for the fsync), and the chaos harness wraps it.
_BARRIER_MODULES = frozenset({"repro.service.wal", "repro.service.chaos"})

_BLOCKING_SUBPROCESS = frozenset({"run", "Popen", "call", "check_call", "check_output"})

#: Manager mutators whose call sites must be durability-dominated.
_MUTATORS = frozenset(
    {"request_connection", "terminate_connection", "fail_link", "repair_link"}
)

#: LinkTable base columns feeding the materialized ``headroom`` column.
_SOA_BASE_COLUMNS = frozenset(
    {"primary_min", "activated", "backup_reserved", "capacity"}
)
_SOA_MIRROR_COLUMNS = frozenset({"failed", "failed_py"})
_SOA_ALL_COLUMNS = _SOA_BASE_COLUMNS | _SOA_MIRROR_COLUMNS

_REFRESH_CALLS = frozenset({"_refresh_cell", "refresh_cells"})

#: Attributes that make up the service's shared serving state; only the
#: batcher/lifecycle path may write them once the loop is running.
_SERVICE_PROTECTED_ATTRS = frozenset(
    {"mode", "engine", "wal", "_journal", "_probe_ok", "_draining"}
)


def check_project(
    index: ProjectIndex, graph: Optional[CallGraph] = None
) -> List[Finding]:
    """Run every project rule; returns unfiltered, sorted findings.

    The engine applies rule selection, path applicability and
    suppression directives afterwards — this function only knows the
    program, not the invocation.
    """
    if graph is None:
        graph = build_call_graph(index)
    findings: List[Finding] = []
    for _rule_id, check in PROJECT_CHECKS:
        findings.extend(check(index, graph))
    findings.sort()
    return findings


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


# ----------------------------------------------------------------------
# DUR001 — manager mutations dominated by a durability action
# ----------------------------------------------------------------------
_DURABLE = "durable"


def _dur_gen(call: ast.Call) -> Set[str]:
    dotted = _dotted_name(call.func) or ""
    last = _last(dotted)
    if last == "log_events":
        return {_DURABLE}
    if last in ("extend", "append") and "journal" in dotted.lower():
        return {_DURABLE}
    return set()


def _dur_cond(test: ast.expr, value: bool) -> Set[str]:
    """`wal is None` on its true branch (or `wal is not None` on its
    false branch) *establishes* WAL absence: running without a WAL is a
    deliberate configuration, and the branch proves the code checked."""
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return set()
    name = _dotted_name(test.left) or ""
    if "wal" not in _last(name).lower():
        return set()
    op = test.ops[0]
    if (isinstance(op, ast.Is) and value) or (
        isinstance(op, ast.IsNot) and not value
    ):
        return {_DURABLE}
    return set()


def _mutator_sites(func: FunctionInfo) -> List[ast.Call]:
    sites = []
    for node in ast.walk(func.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            recv = _dotted_name(node.func.value) or ""
            if "manager" in _last(recv):
                sites.append(node)
    return sites


def _check_dur001(index: ProjectIndex, graph: CallGraph) -> List[Finding]:
    facts_cache: Dict[str, Dict[int, FrozenSet[str]]] = {}

    def facts_for(func: FunctionInfo) -> Dict[int, FrozenSet[str]]:
        cached = facts_cache.get(func.qualname)
        if cached is None:
            all_calls = [n for n in ast.walk(func.node) if isinstance(n, ast.Call)]
            cached = analyze_function(
                func.node, all_calls, gen=_dur_gen, cond=_dur_cond
            )
            facts_cache[func.qualname] = cached
        return cached

    entry_memo: Dict[str, bool] = {}

    def entry_durable(qual: str, visiting: FrozenSet[str]) -> bool:
        """True when every in-scope path into ``qual`` already holds the
        durability fact at the call site (recursively)."""
        if qual in entry_memo:
            return entry_memo[qual]
        callers = [
            site
            for site in graph.callers(qual)
            if site.caller in index.functions
            and _in_service(index.functions[site.caller])
        ]
        if not callers:
            entry_memo[qual] = False
            return False
        ok = True
        for site in callers:
            if site.caller in visiting:
                continue  # cycle: no independent entry on this path
            caller = index.functions[site.caller]
            site_facts = facts_for(caller).get(
                id(site.node), frozenset()  # repro-lint: disable=DET002 — dataflow results are keyed by live AST node identity
            )
            if _DURABLE in site_facts:
                continue
            if entry_durable(site.caller, visiting | {qual}):
                continue
            ok = False
            break
        entry_memo[qual] = ok
        return ok

    findings = []
    for qual in sorted(index.functions):
        func = index.functions[qual]
        if not _in_service(func) or func.module in _BARRIER_MODULES:
            continue
        sites = _mutator_sites(func)
        if not sites:
            continue
        facts = facts_for(func)
        for site in sites:
            if _DURABLE in facts.get(
                id(site), frozenset()  # repro-lint: disable=DET002 — dataflow results are keyed by live AST node identity
            ):
                continue
            if entry_durable(qual, frozenset({qual})):
                continue
            findings.append(
                Finding(
                    path=func.path,
                    line=site.lineno,
                    col=site.col_offset,
                    rule="DUR001",
                    message=(
                        f"manager mutation `{site.func.attr}` is not "
                        "dominated by a WAL append (`log_events`), a journal "
                        "append, or an explicit `wal is None` check on every "
                        "call-graph path; a crash here loses an acked event"
                    ),
                    hint=(
                        "log the batch write-ahead (or journal it in degraded "
                        "mode) before applying; see ServiceEngine.apply_batch"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------------
# DUR002 — degraded-mode journals must reach a flush
# ----------------------------------------------------------------------
def _journal_attrs_used(func: FunctionInfo) -> List[Tuple[ast.AST, str]]:
    """(site, attr) pairs where the function appends to ``self.<attr>``
    journal state or hands it to a callee via a ``journal=`` keyword."""
    uses: List[Tuple[ast.AST, str]] = []
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func) or ""
        parts = dotted.split(".")
        if (
            len(parts) == 3
            and parts[0] == "self"
            and "journal" in parts[1].lower()
            and parts[2] in ("append", "extend")
        ):
            uses.append((node, parts[1]))
        for kw in node.keywords:
            if kw.arg == "journal":
                value = _dotted_name(kw.value) or ""
                vparts = value.split(".")
                if len(vparts) == 2 and vparts[0] == "self":
                    uses.append((node, vparts[1]))
    return uses


def _flushes_journal(func: FunctionInfo, attr: str) -> bool:
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call):
            continue
        if _last(_dotted_name(node.func) or "") != "log_events":
            continue
        for arg in node.args:
            if _dotted_name(arg) == f"self.{attr}":
                return True
    return False


def _check_dur002(index: ProjectIndex, graph: CallGraph) -> List[Finding]:
    findings = []
    for cls_qual in sorted(index.classes):
        cls = index.classes[cls_qual]
        if not (
            cls.module == _SERVICE_PREFIX
            or cls.module.startswith(_SERVICE_PREFIX + ".")
        ):
            continue
        journal_sites: Dict[str, Tuple[ast.AST, FunctionInfo]] = {}
        method_infos = [
            index.functions[q] for q in cls.methods.values() if q in index.functions
        ]
        for func in method_infos:
            for site, attr in _journal_attrs_used(func):
                journal_sites.setdefault(attr, (site, func))
        if not journal_sites:
            continue
        async_methods = sorted(f.qualname for f in method_infos if f.is_async)
        reachable = set(graph.reachable_from(async_methods))
        for attr in sorted(journal_sites):
            flushers = [
                f
                for f in method_infos
                if _flushes_journal(f, attr)
                and (f.qualname in reachable or f.is_async)
            ]
            if flushers:
                continue
            site, func = journal_sites[attr]
            findings.append(
                Finding(
                    path=func.path,
                    line=getattr(site, "lineno", func.line),
                    col=getattr(site, "col_offset", 0),
                    rule="DUR002",
                    message=(
                        f"`self.{attr}` collects journaled operations, but no "
                        "method reachable from this class's async path "
                        f"flushes it via `log_events(self.{attr})`; journaled "
                        "ops would never become durable"
                    ),
                    hint=(
                        "add a probation/drain step that calls "
                        f"`wal.log_events(self.{attr})` and clears it (see "
                        "AdmissionService._rearm)"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------------
# DUR003 — fd-level durability calls stay inside the WAL layer
# ----------------------------------------------------------------------
_FD_CALLS = frozenset({"os.fsync", "os.fdatasync", "os.ftruncate", "os.truncate"})


def _check_dur003(index: ProjectIndex) -> List[Finding]:
    findings = []
    for qual in sorted(index.functions):
        func = index.functions[qual]
        if not _in_service(func) or func.module in _BARRIER_MODULES:
            continue
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            name = _resolved_name(index, func, node)
            if name not in _FD_CALLS:
                continue
            findings.append(
                Finding(
                    path=func.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="DUR003",
                    message=(
                        f"direct `{name}` outside the WAL layer; fd-level "
                        "durability calls bypass the write-ahead accounting "
                        "(tear detection, fault injection, repair)"
                    ),
                    hint=(
                        "route durability through repro.service.wal, or "
                        "suppress with a reason if this is recovery-time "
                        "surgery the WAL re-verifies"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------------
# SOA001 / SOA002 — LinkTable column write discipline
# ----------------------------------------------------------------------
def _is_link_table(qual: Optional[str]) -> bool:
    return qual is not None and _last(qual) == "LinkTable"


def _soa_env(
    index: ProjectIndex, func: FunctionInfo
) -> Tuple[Dict[str, str], Dict[str, str]]:
    """(local type env, column-alias env) for one function.

    An alias is a *bare* attribute read of a LinkTable column bound to a
    local name (``col = self.primary_min``); ``.tolist()`` copies and
    other derived values do not alias the column.
    """
    types = index.infer_local_types(func)
    aliases: Dict[str, str] = {}
    for node in ast.walk(func.node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target, value = node.targets[0], node.value
        if not (isinstance(target, ast.Name) and isinstance(value, ast.Attribute)):
            continue
        if value.attr in _SOA_ALL_COLUMNS and _is_link_table(
            index.type_of_expr(func, value.value, types)
        ):
            aliases[target.id] = value.attr
    return types, aliases


def _column_of(
    index: ProjectIndex,
    func: FunctionInfo,
    expr: ast.expr,
    types: Dict[str, str],
    aliases: Dict[str, str],
) -> Optional[str]:
    if isinstance(expr, ast.Attribute) and expr.attr in _SOA_ALL_COLUMNS:
        if _is_link_table(index.type_of_expr(func, expr.value, types)):
            return expr.attr
    if isinstance(expr, ast.Name):
        return aliases.get(expr.id)
    return None


def _column_writes(
    index: ProjectIndex, func: FunctionInfo
) -> List[Tuple[ast.AST, str]]:
    types, aliases = _soa_env(index, func)
    writes: List[Tuple[ast.AST, str]] = []

    def check_target(target: ast.expr, node: ast.AST) -> None:
        if isinstance(target, ast.Tuple):
            for elt in target.elts:
                check_target(elt, node)
            return
        if isinstance(target, ast.Subscript):
            col = _column_of(index, func, target.value, types, aliases)
            if col is not None:
                writes.append((node, col))

    for node in ast.walk(func.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                check_target(target, node)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            check_target(node.target, node)
        elif isinstance(node, ast.Call):
            # ufunc scatter: np.add.at(table.col, idx, vals) mutates arg 0.
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "at"
                and node.args
            ):
                col = _column_of(index, func, node.args[0], types, aliases)
                if col is not None:
                    writes.append((node, col))
    return writes


def _writes_by_function(index: ProjectIndex) -> Dict[str, List[Tuple[ast.AST, str]]]:
    """Column writes for every function, computed once per run.

    The alias/type scan is the expensive part of the SOA rules, and
    SOA001/SOA002 need the same answer — memoized on the index.
    """
    cached = index.memo.get("soa-writes")
    if cached is None:
        cached = {
            qual: _column_writes(index, func)
            for qual, func in index.functions.items()
        }
        index.memo["soa-writes"] = cached
    return cached  # type: ignore[return-value]


def _calls_refresh(func: FunctionInfo) -> bool:
    for node in ast.walk(func.node):
        if isinstance(node, ast.Call):
            if _last(_dotted_name(node.func) or "") in _REFRESH_CALLS:
                return True
    return False


def _check_soa001(index: ProjectIndex) -> List[Finding]:
    findings = []
    writes_map = _writes_by_function(index)
    for qual in sorted(index.functions):
        func = index.functions[qual]
        if func.name in _REFRESH_CALLS or func.name == "__init__":
            continue  # the refresh tier itself / construction-time fills
        base_writes = [
            (node, col)
            for node, col in writes_map[qual]
            if col in _SOA_BASE_COLUMNS
        ]
        if not base_writes or _calls_refresh(func):
            continue
        node, col = base_writes[0]
        cols = sorted({c for _, c in base_writes})
        findings.append(
            Finding(
                path=func.path,
                line=getattr(node, "lineno", func.line),
                col=getattr(node, "col_offset", 0),
                rule="SOA001",
                message=(
                    f"`{func.name}` writes LinkTable base column(s) "
                    f"{', '.join(cols)} without refreshing `headroom` in "
                    "the same function; the column goes stale and "
                    "admission decisions silently diverge"
                ),
                hint=(
                    "call `_refresh_cell(li)`/`refresh_cells(idx)` on the "
                    "touched cells (per-cell refresh, DESIGN.md §13.2)"
                ),
            )
        )
    return findings


def _check_soa002(index: ProjectIndex) -> List[Finding]:
    findings = []
    writes_map = _writes_by_function(index)
    for qual in sorted(index.functions):
        func = index.functions[qual]
        if func.name == "__init__":
            continue
        writes = writes_map[qual]
        mirror = {col for _, col in writes} & _SOA_MIRROR_COLUMNS
        if not mirror or mirror == _SOA_MIRROR_COLUMNS:
            continue
        written = next(iter(mirror))
        missing = next(iter(_SOA_MIRROR_COLUMNS - mirror))
        node = next(n for n, col in writes if col == written)
        findings.append(
            Finding(
                path=func.path,
                line=getattr(node, "lineno", func.line),
                col=getattr(node, "col_offset", 0),
                rule="SOA002",
                message=(
                    f"`{func.name}` writes LinkTable `{written}` but not "
                    f"`{missing}`; the numpy mask and its Python mirror "
                    "diverge, so the sequential tail reads stale failure "
                    "state"
                ),
                hint=(
                    "update both in the same function: `failed[li] = x` and "
                    "`failed_py[li] = x` (see LinkTable.fail/repair)"
                ),
            )
        )
    return findings


#: (rule id, check) registry — the engine iterates this so ``--stats``
#: can time each project rule individually.
PROJECT_CHECKS: Tuple[
    Tuple[str, "Callable[[ProjectIndex, CallGraph], List[Finding]]"], ...
] = (
    ("ASYNC001", _check_async001),
    ("ASYNC002", lambda index, graph: _check_async002(index)),
    ("ASYNC003", _check_async003),
    ("DUR001", _check_dur001),
    ("DUR002", _check_dur002),
    ("DUR003", lambda index, graph: _check_dur003(index)),
    ("SOA001", lambda index, graph: _check_soa001(index)),
    ("SOA002", lambda index, graph: _check_soa002(index)),
)
