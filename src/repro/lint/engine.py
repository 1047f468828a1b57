"""Lint engine: file discovery, suppression comments, orchestration.

Suppression contract (mirrors the dynamic suite's "explain every
exemption" policy):

* ``# repro-lint: disable=RULE1,RULE2`` on the offending line silences
  exactly those rules on exactly that line (``all`` silences every
  rule).  Anything after the rule list (``— reason``) is free text; by
  convention every suppression carries one.
* ``# repro-lint: disable-file=RULE1,...`` anywhere in a file (top of
  the module by convention) silences the rules for the whole file —
  reserved for modules whose *job* is the exempted behaviour (e.g. the
  atomic-write primitive performing the underlying raw write).

Suppressions are parsed from real tokenizer comments, never from string
literals, so documentation quoting a directive does not disable it.

Two passes share one parse.  Every file is read, tokenized (for
suppressions) and parsed exactly once per run into a
:class:`LintedFile`; the per-file rules walk that AST, and the same
trees feed the whole-program index (:mod:`repro.lint.project`), call
graph and ASYNC rules.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.checkers import check_tree
from repro.lint.findings import Finding
from repro.lint.rules import RULES, RULES_BY_ID

_DIRECTIVE = "repro-lint:"

#: Directories never descended into during discovery.
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}
)


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories, sorted.

    Deterministic order (the lint pass holds itself to its own rules):
    explicit arguments in argument order, directory walks sorted.
    """
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(sub.parts):
                    yield sub
        elif path.suffix == ".py":
            yield path


class _Suppressions:
    """Per-line and per-file suppression directives of one source file."""

    def __init__(self, line_rules: Dict[int, Set[str]], file_rules: Set[str]) -> None:
        self.line_rules = line_rules
        self.file_rules = file_rules

    def allows(self, finding: Finding) -> bool:
        if _covers(self.file_rules, finding.rule):
            return False
        return not _covers(self.line_rules.get(finding.line, set()), finding.rule)


def _covers(rules: Set[str], rule_id: str) -> bool:
    return "all" in rules or rule_id in rules


def _parse_directive(comment: str) -> Optional[Tuple[str, Set[str]]]:
    """Split one comment into (scope, rule ids) if it is a directive.

    Unknown rule ids inside a directive are kept verbatim — a typo'd
    suppression then fails to match, surfacing the finding instead of
    silently widening the exemption.
    """
    text = comment.lstrip("#").strip()
    if not text.startswith(_DIRECTIVE):
        return None
    text = text[len(_DIRECTIVE):].strip()
    for scope in ("disable-file", "disable"):
        if text.startswith(scope):
            remainder = text[len(scope):].lstrip()
            if not remainder.startswith("="):
                return None
            value = remainder[1:]
            # Free-text reason after the rule list: cut at first space run
            # that follows the comma-separated ids.
            value = value.split("—")[0].split(" -- ")[0]
            ids = {token.strip() for token in value.split(",")}
            ids = {t.split()[0] if t else t for t in ids if t}
            normalised = {t if t == "all" else t.upper() for t in ids if t}
            if normalised:
                return scope, normalised
            return None
    return None


def collect_suppressions(source: str) -> _Suppressions:
    """Extract suppression directives from real comment tokens."""
    line_rules: Dict[int, Set[str]] = {}
    file_rules: Set[str] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        parsed = _parse_directive(token.string)
        if parsed is None:
            continue
        scope, ids = parsed
        if scope == "disable-file":
            file_rules.update(ids)
        else:
            line_rules.setdefault(token.start[0], set()).update(ids)
    return _Suppressions(line_rules, file_rules)


# ----------------------------------------------------------------------
# parse-once artifacts
# ----------------------------------------------------------------------
@dataclass
class LintedFile:
    """One file, read+tokenized+parsed exactly once per run; both passes
    (per-file rules, whole-program rules) consume it."""

    path: str
    tree: ast.Module
    suppressions: _Suppressions


def parse_file_source(source: str, path: str) -> LintedFile:
    """Build the shared parse artifact for one in-memory module.

    Raises:
        SyntaxError: the module does not parse.  The run stops there; a
            module that does not parse fails tier-1 at import anyway.
    """
    tree = ast.parse(source, filename=path)
    return LintedFile(path, tree, collect_suppressions(source))


def load_file(path: Path) -> LintedFile:
    """Read and parse one on-disk file into the shared artifact."""
    return parse_file_source(path.read_text(encoding="utf-8"), str(path))


def _file_pass(
    linted: LintedFile, select: Optional[Set[str]]
) -> List[Finding]:
    """Per-file rules over one already-parsed file, suppression-filtered."""
    posix = linted.path.replace("\\", "/")
    enabled = {
        rule.id
        for rule in RULES
        if not rule.project
        and (select is None or rule.id in select)
        and rule.applies_to(posix)
    }
    findings = check_tree(linted.tree, linted.path, enabled)
    kept = [f for f in findings if linted.suppressions.allows(f)]
    kept.sort()
    return kept


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------
def _project_pass(
    files: List[Tuple[str, ast.Module]],
    suppressions: Dict[str, _Suppressions],
    select: Optional[Set[str]],
) -> List[Finding]:
    """Whole-program rules over the already-parsed tree set."""
    from repro.lint.graph import build_call_graph
    from repro.lint.project import build_project_index
    from repro.lint.project_rules import PROJECT_CHECKS

    index = build_project_index(files)
    graph = build_call_graph(index)
    findings: List[Finding] = []
    for rule_id, check in PROJECT_CHECKS:
        if select is not None and rule_id not in select:
            continue
        rule = RULES_BY_ID[rule_id]
        for finding in check(index, graph):
            if not rule.applies_to(finding.path):
                continue
            supp = suppressions.get(finding.path)
            if supp is not None and not supp.allows(finding):
                continue
            findings.append(finding)
    findings.sort()
    return findings


def run_lint(
    paths: Sequence[str], select: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Both passes over every python file under ``paths``; sorted findings."""
    select_set = None if select is None else set(select)
    trees: List[Tuple[str, ast.Module]] = []
    supp_map: Dict[str, _Suppressions] = {}
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        linted = load_file(path)
        findings.extend(_file_pass(linted, select_set))
        supp_map[linted.path] = linted.suppressions
        trees.append((linted.path, linted.tree))
    findings.extend(_project_pass(trees, supp_map, select_set))
    findings.sort()
    return findings


def lint_source(
    source: str, path: str, select: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Per-file pass over one in-memory module; ``path`` decides rule
    applicability."""
    linted = parse_file_source(source, path)
    return _file_pass(linted, None if select is None else set(select))


def lint_project_sources(
    sources: Dict[str, str], select: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Project pass over in-memory modules (fixture/test entry point).

    Runs *only* the whole-program rules — per-file rules have their
    own fixture helper (:func:`lint_source`) — but applies the same
    applicability/suppression filtering :func:`run_lint` does.
    """
    trees: List[Tuple[str, ast.Module]] = []
    supp_map: Dict[str, _Suppressions] = {}
    for path, source in sources.items():
        linted = parse_file_source(source, path)
        supp_map[path] = linted.suppressions
        trees.append((path, linted.tree))
    return _project_pass(trees, supp_map, None if select is None else set(select))
