"""Command-line front end: ``python -m repro.lint`` / ``repro lint``.

Runs the per-file and the whole-program pass over the given paths and
prints one finding per block with the fix hint indented beneath it.
Exit codes: 0 — clean; 1 — findings (or unparseable files); 2 — bad
invocation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.lint.engine import run_lint
from repro.lint.rules import RULES, expand_rule_selection


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "Determinism-aware static analysis for the repro codebase: RNG "
            "discipline, determinism hazards, atomic-artifact discipline, "
            "float-equality and fd-durability checks, and whole-program "
            "async-safety rules for the service."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids or families to run (e.g. RNG,DET003)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def _render_rules() -> str:
    lines = ["repro.lint rule catalogue:", ""]
    for rule in RULES:
        scope = " [project]" if rule.project else ""
        lines.append(f"{rule.id}  {rule.name}{scope}")
        lines.append(f"    {rule.summary}")
        lines.append(f"    fix: {rule.hint}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_render_rules())
        return 0
    select = None
    if args.select:
        try:
            select = expand_rule_selection(tuple(args.select.split(",")))
        except ValueError as exc:
            parser.error(str(exc))
    findings = run_lint(args.paths, select=select)
    if not findings:
        print("repro.lint: clean")
        return 0
    for finding in findings:
        print(finding.render())
    noun = "finding" if len(findings) == 1 else "findings"
    print(f"repro.lint: {len(findings)} {noun}")
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
