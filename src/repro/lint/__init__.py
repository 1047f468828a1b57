"""Determinism-aware static analysis for the repro codebase.

The dynamic test suite pins reproducibility *after* the fact (bitwise
campaign regression tests, twin-manager equivalence properties); this
package defends the same contracts *statically*, before code merges.
A rule stays only while it catches a bug no tier-1 test catches
(DESIGN.md §11 names the mutant for each).

Per-file rules (:mod:`repro.lint.checkers`):

* **RNG discipline** (``RNG003``) — no legacy ``RandomState``; seeded
  generators come from ``default_rng``/``SeedSequence``.
* **Determinism hazards** (``DET001``, ``DET003``) — no unordered set
  iteration into order-sensitive paths, no wall-clock reads inside
  simulation logic.
* **Artifact discipline** (``ART001``) — artifact writes go through the
  atomic tmp-then-rename primitives.
* **Float discipline** (``FLT001``) — invariant/audit code never
  compares floats with ``==`` against non-integral literals.
* **Durability** (``DUR003``) — fd-level durability stays inside
  ``repro.service.wal``.

Whole-program rules, over a cross-module symbol index and call graph
(:mod:`repro.lint.project` / ``graph``):

* **Async safety** (``ASYNC001``–``ASYNC003``) — no blocking call
  reachable from the service's ``async def``s, no dropped coroutines,
  no serving shared state written off the batcher path.

Run both passes with ``python -m repro.lint [paths...]`` or
``repro lint``; suppress deliberate uses with
``# repro-lint: disable=RULE — reason``.
"""

from __future__ import annotations

from repro.lint.engine import (
    iter_python_files,
    lint_project_sources,
    lint_source,
    run_lint,
)
from repro.lint.findings import Finding
from repro.lint.rules import RULES, RULES_BY_ID, Rule, expand_rule_selection

__all__ = [
    "Finding",
    "RULES",
    "RULES_BY_ID",
    "Rule",
    "expand_rule_selection",
    "iter_python_files",
    "lint_project_sources",
    "lint_source",
    "run_lint",
]
