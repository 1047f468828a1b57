"""Rule catalogue of the determinism lint pass.

Every rule defends one of the reproducibility contracts the test suite
pins dynamically (bitwise-identical campaign output at any worker
count, same-seed retries, generation-invalidated route caches) — the
lint pass makes the same contracts hold *statically*, at commit time.

Rule families:

``RNG``  RNG discipline — every stochastic component must draw from an
         injected, seeded generator; process-global RNG state is banned.
``DET``  Determinism hazards — unordered iteration, ``id()`` keying and
         wall-clock reads that can silently change simulator output.
``ART``  Artifact discipline — result files must go through the atomic
         tmp-then-rename write primitives so a crash never truncates.
``FLT``  Float discipline — invariant/audit code must not compare
         floats with ``==`` against non-integral literals.

Project-level families (``--project``; need the whole-program call
graph and type index from :mod:`repro.lint.project`):

``ASYNC`` Event-loop safety — no blocking call reachable from the
          service's ``async def``s, no dropped coroutines, no serving
          shared state written off the batcher path.
``DUR``   Durability ordering — manager mutations dominated by a WAL/
          journal append on all call-graph paths; journals reach flush;
          fd-level durability stays inside the WAL layer.
``SOA``   Aggregate coherence — writers of LinkTable's headroom inputs
          refresh the touched cells in the same function; the failed/
          failed_py mirror never splits.

Each rule knows which paths it applies to: wall-clock reads are the
whole point of the timing infrastructure under ``repro/parallel`` and
``benchmarks/``, and bitwise regression *tests* legitimately pin exact
float values, so those combinations are exempt by construction instead
of needing suppression comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple


def _always(path: str) -> bool:
    return True


#: Admission-service modules that form the *timing plane*: the serving
#: shell (deadlines, drain), latency telemetry and the load generator.
#: Decision logic (engine/protocol/wal/shedding/replay) is NOT here —
#: it must stay wall-clock-free so live runs replay bitwise.
_SERVICE_TIMING_MODULES = (
    "repro/service/server.py",
    "repro/service/telemetry.py",
    "repro/service/loadgen.py",
    "repro/service/procs.py",
    "repro/service/supervisor.py",
    "repro/service/soak.py",
)


def _not_timing_infra(path: str) -> bool:
    """Wall-clock reads are legitimate in the timing/benchmark layers."""
    return not (
        "/parallel/" in path
        or path.startswith("benchmarks/")
        or "/benchmarks/" in path
        or any(module in path for module in _SERVICE_TIMING_MODULES)
        or "tests/service/" in path
    )


def _src_only(path: str) -> bool:
    """Bitwise regression tests pin exact floats on purpose."""
    parts = path.split("/")
    return "tests" not in parts and not parts[-1].startswith("test_")


#: Packages whose float trajectories the validation contract pins
#: bitwise (they also carry strict mypy settings — see pyproject.toml).
_PINNED_PACKAGES = ("repro/markov/", "repro/routing/", "repro/network/", "repro/elastic/")


def _pinned_packages_only(path: str) -> bool:
    """Only the bitwise-pinned numeric packages."""
    return any(pkg in path for pkg in _PINNED_PACKAGES)


def _service_src_only(path: str) -> bool:
    """Service-layer sources (the findings of the service-protocol rules
    always land there; test doubles are free to fake the protocols)."""
    return "repro/service/" in path and _src_only(path)


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, rationale, and path applicability.

    ``project=True`` marks whole-program rules: they run only under
    ``--project`` (they need the cross-module index) and their
    ``applies`` predicate filters where *findings* may land rather than
    which files are analysed.
    """

    id: str
    name: str
    summary: str
    hint: str
    applies: Callable[[str], bool] = _always
    project: bool = False

    def applies_to(self, path: str) -> bool:
        """Whether this rule is checked at all for ``path`` (posix form)."""
        return self.applies(path.replace("\\", "/"))


RULES: Tuple[Rule, ...] = (
    Rule(
        id="RNG001",
        name="stdlib-global-random",
        summary=(
            "call to a process-global `random` module function; stochastic "
            "code must draw from an injected `random.Random(seed)` instance"
        ),
        hint=(
            "accept a seeded `random.Random` (or numpy Generator) parameter "
            "and call its bound methods instead"
        ),
    ),
    Rule(
        id="RNG002",
        name="numpy-legacy-global-random",
        summary=(
            "call into numpy's legacy global RNG (`np.random.<fn>`); every "
            "stochastic component must accept a `numpy.random.Generator` "
            "spawned from the campaign `SeedSequence`"
        ),
        hint=(
            "thread a `numpy.random.Generator` (from `default_rng(seed)` or "
            "`SeedSequence.spawn`) through the call chain"
        ),
    ),
    Rule(
        id="RNG003",
        name="legacy-randomstate",
        summary=(
            "construction of legacy `numpy.random.RandomState`; the campaign "
            "seeding contract is built on `Generator`/`SeedSequence`"
        ),
        hint="use `numpy.random.default_rng(seed)`",
    ),
    Rule(
        id="DET001",
        name="unordered-set-iteration",
        summary=(
            "iteration over an unordered set expression in an order-sensitive "
            "context; set order depends on PYTHONHASHSEED and insertion "
            "history, so anything event-ordered built from it is unstable"
        ),
        hint="wrap the set in `sorted(...)` before iterating",
    ),
    Rule(
        id="DET002",
        name="id-as-key",
        summary=(
            "`id(...)` call; object ids are allocation addresses — keying a "
            "cache or memo on them breaks across processes and silently "
            "aliases once an object is garbage-collected"
        ),
        hint=(
            "key on a stable identity (conn_id, a frozen dataclass, an "
            "explicit token); for debug-only prints, suppress with "
            "`# repro-lint: disable=DET002`"
        ),
    ),
    Rule(
        id="DET003",
        name="wall-clock-in-sim",
        summary=(
            "wall-clock read in simulation logic; simulated time must come "
            "from the event clock, and timestamps in results break bitwise "
            "reproducibility"
        ),
        hint=(
            "use the simulator's event time, or move timing measurement into "
            "`repro.parallel` / the benchmark layer"
        ),
        applies=_not_timing_infra,
    ),
    Rule(
        id="DET004",
        name="item-accumulation-drift",
        summary=(
            "`+=`/`-=` accumulation whose right-hand side extracts a "
            "scalar via `.item()`; in a bitwise-pinned package the "
            "dtype-laundered Python float can drift from the column "
            "arithmetic it mirrors, so the scalar and vectorized "
            "trajectories silently diverge"
        ),
        hint=(
            "accumulate in the array column itself (or on values read "
            "without `.item()`) so scalar and vector paths share one "
            "float trajectory"
        ),
        applies=_pinned_packages_only,
    ),
    Rule(
        id="ART001",
        name="raw-artifact-write",
        summary=(
            "raw file write (`open(.., 'w')` / `Path.write_*`); a crash "
            "mid-write leaves a truncated artifact that poisons `--resume`"
        ),
        hint=(
            "route the write through `repro.parallel.atomic_write_text` / "
            "`atomic_write_bytes`"
        ),
    ),
    Rule(
        id="FLT001",
        name="float-literal-equality",
        summary=(
            "`==`/`!=` against a non-integral float literal in invariant/"
            "audit code; accumulated float state rarely equals a decimal "
            "literal exactly, so the check is either dead or flaky"
        ),
        hint=(
            "compare against an epsilon (`abs(x - 0.3) < EPSILON`) or an "
            "exactly-representable quantity"
        ),
        applies=_src_only,
    ),
    Rule(
        id="ASYNC001",
        name="blocking-call-in-async-path",
        summary=(
            "blocking call (`time.sleep`, `os.fsync`, subprocess, "
            "synchronous file write) reachable from an `async def` in the "
            "service; one blocked call stalls every connected client"
        ),
        hint=(
            "run it in an executor (`loop.run_in_executor`/`asyncio."
            "to_thread`) or route it through the WAL layer, whose blocking "
            "is the write-ahead contract"
        ),
        applies=_src_only,
        project=True,
    ),
    Rule(
        id="ASYNC002",
        name="unawaited-coroutine",
        summary=(
            "coroutine function called as a bare statement; the coroutine "
            "object is created and dropped, so the body never runs"
        ),
        hint="`await` it, or hand it to `asyncio.create_task(...)`",
        applies=_service_src_only,
        project=True,
    ),
    Rule(
        id="ASYNC003",
        name="shared-state-off-batcher-path",
        summary=(
            "serving shared state (mode/engine/journal/drain flags) written "
            "by a method that is not on the batcher/lifecycle/signal path; "
            "per-connection handlers race the batch loop"
        ),
        hint=(
            "mutate serving state only from the batcher task, a lifecycle "
            "method, or a signal handler; handlers enqueue requests instead"
        ),
        applies=_service_src_only,
        project=True,
    ),
    Rule(
        id="DUR001",
        name="mutation-not-durability-dominated",
        summary=(
            "manager mutation not dominated on every call-graph path by a "
            "WAL append (`log_events`), a journal append, or an explicit "
            "`wal is None` check; a crash between apply and log loses an "
            "acked event"
        ),
        hint=(
            "follow the write-ahead discipline of ServiceEngine.apply_batch: "
            "validate, append+fsync, then apply"
        ),
        applies=_service_src_only,
        project=True,
    ),
    Rule(
        id="DUR002",
        name="journal-never-flushed",
        summary=(
            "a degraded-mode journal collects operations but no async-"
            "reachable method flushes it to the WAL via `log_events`; "
            "journaled ops would never become durable"
        ),
        hint=(
            "add a probation/drain flush (`wal.log_events(self.<journal>)`) "
            "reachable from the batcher, as in AdmissionService._rearm"
        ),
        applies=_service_src_only,
        project=True,
    ),
    Rule(
        id="DUR003",
        name="fd-durability-outside-wal",
        summary=(
            "direct `os.fsync`/`os.fdatasync`/`os.(f)truncate` outside "
            "repro.service.wal; fd-level durability elsewhere bypasses the "
            "WAL's tear detection, fault injection, and repair accounting"
        ),
        hint=(
            "go through the WAL layer, or suppress with a reason for "
            "recovery-time surgery the WAL re-verifies afterwards"
        ),
        applies=_service_src_only,
        project=True,
    ),
    Rule(
        id="SOA001",
        name="stale-aggregate-write",
        summary=(
            "LinkTable `headroom` input (primary_min/activated/"
            "backup_reserved/capacity) written without `_refresh_cell`/"
            "`refresh_cells` in the same function; the materialized "
            "headroom column goes stale"
        ),
        hint=(
            "refresh the touched cells with `_refresh_cell`/`refresh_cells` "
            "(per-cell refresh, DESIGN.md §13.2)"
        ),
        applies=_src_only,
        project=True,
    ),
    Rule(
        id="SOA002",
        name="failed-mask-mirror-split",
        summary=(
            "LinkTable `failed` written without `failed_py` in the same "
            "function (or vice versa); the numpy mask and its Python "
            "mirror diverge and the sequential tail reads stale state"
        ),
        hint="write both sides together, as LinkTable.fail/repair do",
        applies=_src_only,
        project=True,
    ),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in RULES}

#: Rule ids grouped by family prefix, for `--select RNG` style filters.
FAMILIES: Tuple[str, ...] = ("RNG", "DET", "ART", "FLT", "ASYNC", "DUR", "SOA")


def expand_rule_selection(tokens: Tuple[str, ...]) -> Tuple[str, ...]:
    """Expand a mix of rule ids and family prefixes into rule ids.

    Raises:
        ValueError: on a token that is neither a rule id nor a family.
    """
    selected = []
    for token in tokens:
        token = token.strip().upper()
        if not token:
            continue
        if token in RULES_BY_ID:
            selected.append(token)
        elif token in FAMILIES:
            selected.extend(r.id for r in RULES if r.id.startswith(token))
        else:
            raise ValueError(f"unknown rule or family: {token!r}")
    return tuple(dict.fromkeys(selected))
