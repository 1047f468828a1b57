"""Engine, CLI, and repo-wide meta-tests for ``repro.lint``."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    RULES,
    RULES_BY_ID,
    expand_rule_selection,
    iter_python_files,
    lint_source,
    run_lint,
)
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSuppressionDirectives:
    def test_line_directive_only_covers_its_line(self):
        src = (
            "import time\n"
            "a = time.time()  # repro-lint: disable=DET003 — demo\n"
            "b = time.time()\n"
        )
        findings = lint_source(src, "src/repro/sim/x.py")
        assert [(f.rule, f.line) for f in findings] == [("DET003", 3)]

    def test_line_directive_is_rule_specific(self):
        src = "import time\nt = time.time()  # repro-lint: disable=FLT001\n"
        assert [f.rule for f in lint_source(src, "src/repro/sim/x.py")] == ["DET003"]

    def test_disable_all_on_line(self):
        src = "ok = time.time() == 0.5  # repro-lint: disable=all\nimport time\n"
        assert lint_source(src, "src/repro/sim/x.py") == []

    def test_file_directive_covers_whole_file(self):
        src = (
            "# repro-lint: disable-file=DET003 — clock shim module\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.time()\n"
        )
        assert lint_source(src, "src/repro/sim/x.py") == []

    def test_file_directive_leaves_other_rules_armed(self):
        src = (
            "# repro-lint: disable-file=DET003\n"
            "import time\n"
            "a = time.time()\n"
            "ok = a == 0.5\n"
        )
        assert [f.rule for f in lint_source(src, "src/repro/sim/x.py")] == ["FLT001"]

    def test_directive_inside_string_literal_is_ignored(self):
        src = (
            'doc = "suppress with # repro-lint: disable=FLT001"\n'
            "ok = x == 0.5\n"
        )
        assert [f.rule for f in lint_source(src, "src/repro/sim/x.py")] == ["FLT001"]

    def test_typoed_rule_id_does_not_suppress(self):
        src = "ok = x == 0.5  # repro-lint: disable=FLT001X\n"
        assert [f.rule for f in lint_source(src, "src/repro/sim/x.py")] == ["FLT001"]


class TestEngineBasics:
    def test_findings_sorted_and_structured(self):
        src = "import time\nb = time.time()\nok = b == 0.5\n"
        findings = lint_source(src, "src/repro/sim/x.py")
        assert [(f.rule, f.line) for f in findings] == [("DET003", 2), ("FLT001", 3)]
        for finding in findings:
            assert finding.path == "src/repro/sim/x.py"
            assert finding.hint

    def test_select_narrows_rules(self):
        src = "import time\nb = time.time()\nok = b == 0.5\n"
        findings = lint_source(src, "src/repro/sim/x.py", select={"FLT001"})
        assert [f.rule for f in findings] == ["FLT001"]

    def test_family_expansion(self):
        assert expand_rule_selection(("DET",)) == ("DET001", "DET003")
        assert expand_rule_selection(("flt001", "ART")) == ("FLT001", "ART001")
        with pytest.raises(ValueError):
            expand_rule_selection(("NOPE",))

    def test_discovery_is_sorted_and_skips_pycache(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")  # repro-lint: disable=ART001 — fixture setup
        (tmp_path / "a.py").write_text("x = 1\n")  # repro-lint: disable=ART001 — fixture setup
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "z.py").write_text("x = 1\n")  # repro-lint: disable=ART001 — fixture setup
        found = [p.name for p in iter_python_files([str(tmp_path)])]
        assert found == ["a.py", "b.py"]

    def test_rule_catalogue_consistency(self):
        assert len(RULES_BY_ID) == len(RULES)  # ids are unique
        families = {rule.id[:3] for rule in RULES}
        assert families == {"RNG", "DET", "ART", "FLT", "ASY", "DUR"}
        assert all(RULES_BY_ID[rule.id] is rule for rule in RULES)

    def test_project_rules_are_flagged(self):
        project_rules = {rule.id for rule in RULES if rule.project}
        assert project_rules == {"ASYNC001", "ASYNC002", "ASYNC003"}


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")  # repro-lint: disable=ART001 — fixture setup
        assert lint_main([str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violation_exits_one_with_hint(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("ok = x == 0.5\n")  # repro-lint: disable=ART001 — fixture setup
        assert lint_main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "FLT001" in out and "hint:" in out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.id in out

    def test_module_entry_point(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("ok = x == 0.5\n")  # repro-lint: disable=ART001 — fixture setup
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(target)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "FLT001" in proc.stdout


def _write_service_fixture(tmp_path):
    """A tiny src tree with one ASYNC001 violation, for CLI/engine tests."""
    pkg = tmp_path / "src" / "repro" / "service"
    pkg.mkdir(parents=True)
    target = pkg / "mod.py"
    target.write_text(  # repro-lint: disable=ART001 — fixture setup
        "import time\n\n\nasync def handler():\n    time.sleep(0.5)\n"
    )
    return tmp_path / "src"


class TestProjectPass:
    def test_run_lint_runs_both_passes(self, tmp_path):
        root = _write_service_fixture(tmp_path)
        extra = root / "repro" / "service" / "other.py"
        extra.write_text(  # repro-lint: disable=ART001 — fixture setup
            "import time\n\n\nt = time.time()\n"
        )
        findings = run_lint([str(root)])
        assert [f.rule for f in findings] == ["ASYNC001", "DET003"]

    def test_cli_reports_project_findings(self, tmp_path, capsys):
        root = _write_service_fixture(tmp_path)
        assert lint_main([str(root)]) == 1
        assert "ASYNC001" in capsys.readouterr().out


class TestRepoIsClean:
    """The commit-time gate, asserted from inside the test suite too."""

    def test_src_and_tests_lint_clean(self):
        """`python -m repro.lint src tests` exits 0: both passes hold over
        the real codebase (suppressions carry reasons)."""
        findings = run_lint([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
        assert findings == [], "\n".join(f.render() for f in findings)
