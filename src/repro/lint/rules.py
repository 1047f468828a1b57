"""Rule catalogue of the determinism lint pass.

Every rule defends one of the reproducibility contracts the test suite
pins dynamically (bitwise-identical campaign output at any worker
count, same-seed retries, generation-invalidated route caches) — the
lint pass makes the same contracts hold *statically*, at commit time.

Rule families:

``RNG``  RNG discipline — seeded generators come from the ``Generator``/
         ``SeedSequence`` API, never legacy ``RandomState``.
``DET``  Determinism hazards — unordered iteration and wall-clock
         reads that can silently change simulator output.
``ART``  Artifact discipline — result files must go through the atomic
         tmp-then-rename write primitives so a crash never truncates.
``FLT``  Float discipline — invariant/audit code must not compare
         floats with ``==`` against non-integral literals.
``DUR``  Durability — fd-level durability (``os.fsync`` & co.) stays
         inside the WAL layer.

Whole-program family (needs the call graph and type index from
:mod:`repro.lint.project`):

``ASYNC`` Event-loop safety — no blocking call reachable from the
          service's ``async def``s, no dropped coroutines, no serving
          shared state written off the batcher path.

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


def _service_src_only(path: str) -> bool:
    """Service-layer sources (the findings of the service-protocol rules
    always land there; test doubles are free to fake the protocols)."""
    return "repro/service/" in path and _src_only(path)


#: The WAL layer and the chaos harness wrapping it own fd-level durability.
_WAL_MODULES = ("repro/service/wal.py", "repro/service/chaos.py")


def _service_src_outside_wal(path: str) -> bool:
    return _service_src_only(path) and not path.endswith(_WAL_MODULES)


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, rationale, and path applicability.

    ``project=True`` marks whole-program rules: they run over the
    cross-module index, and their ``applies`` predicate filters where
    *findings* may land rather than which files are analysed.
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
        applies=_service_src_outside_wal,
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
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in RULES}

#: Rule ids grouped by family prefix, for `--select RNG` style filters.
FAMILIES: Tuple[str, ...] = ("RNG", "DET", "ART", "FLT", "DUR", "ASYNC")


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
