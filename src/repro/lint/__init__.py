"""Determinism-aware static analysis for the repro codebase.

The dynamic test suite pins reproducibility *after* the fact (bitwise
campaign regression tests, twin-manager equivalence properties); this
package defends the same contracts *statically*, before code merges:

* **RNG discipline** (``RNG001``–``RNG003``) — no process-global
  ``random`` / legacy ``numpy.random`` state; stochastic components
  accept an injected, seeded generator.
* **Determinism hazards** (``DET001``–``DET004``) — no unordered set
  iteration into order-sensitive paths, no ``id()`` keying, no
  wall-clock reads inside simulation logic, no ``.item()``-laundered
  float accumulation inside the bitwise-pinned numeric packages.
* **Artifact discipline** (``ART001``) — artifact writes go through the
  atomic tmp-then-rename primitives.
* **Float discipline** (``FLT001``) — invariant/audit code never
  compares floats with ``==`` against non-integral literals.

With ``--project``, three whole-program families run over a
cross-module symbol index, call graph and must-facts dataflow
(:mod:`repro.lint.project` / ``graph`` / ``dataflow``):

* **Async safety** (``ASYNC001``–``ASYNC003``) — no blocking call
  reachable from the service's ``async def``s, no dropped coroutines,
  no serving shared state written off the batcher path.
* **Durability ordering** (``DUR001``–``DUR003``) — manager mutations
  dominated by WAL/journal appends, journals reach their flush, and
  fd-level durability stays inside ``repro.service.wal``.
* **SoA coherence** (``SOA001``–``SOA002``) — writers of LinkTable's
  ``headroom`` inputs refresh the touched cells in the same function,
  and the ``failed``/``failed_py`` mirror never splits.

Run it with ``python -m repro.lint [paths...] [--project]`` or
``repro lint``; suppress deliberate uses with
``# repro-lint: disable=RULE — reason``.
"""

from __future__ import annotations

from repro.lint.engine import (
    PARSE_ERROR_RULE,
    LintedFile,
    LintReport,
    collect_suppressions,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_project_sources,
    lint_source,
    run_lint,
)
from repro.lint.findings import Finding
from repro.lint.rules import FAMILIES, RULES, RULES_BY_ID, Rule, expand_rule_selection

__all__ = [
    "FAMILIES",
    "Finding",
    "LintReport",
    "LintedFile",
    "PARSE_ERROR_RULE",
    "RULES",
    "RULES_BY_ID",
    "Rule",
    "collect_suppressions",
    "expand_rule_selection",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_project_sources",
    "lint_source",
    "run_lint",
]
