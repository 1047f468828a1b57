"""Smoke tests: every example script parses, imports and defines main().

Every example stays importable and wired to real library APIs (a
renamed function would break the import, not just the run).  The three
that drive a manager directly run in about a second each, so they also
run in full with their stdout pinned by a SHA-256: the array core's
connection records are snapshots, and an example that keeps one across
events and prints it stale changes its output.
"""

import hashlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: SHA-256 of each manager-driving example's stdout.
PINNED_STDOUT = {
    "quickstart": "31c27362419675672d698fd10243251398155429c1ae35529747e2634affcec2",
    "failure_recovery": "44c49d2fd228ab0343ce6e2f55bad83181f852ce23079647800fbc49c71bed99",
    "video_service": "7e89663a7c0bdc19f890820346f95dad92ee484f0ada380ac9fae308271f6cd6",
}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))


def test_expected_example_set():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "video_service",
        "failure_recovery",
        "analytic_vs_simulation",
        "capacity_planning",
        "model_sensitivity",
    } <= names


@pytest.mark.parametrize("name", sorted(PINNED_STDOUT))
def test_example_output_pinned(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        capture_output=True,
        check=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )
    assert hashlib.sha256(run.stdout).hexdigest() == PINNED_STDOUT[name], run.stdout.decode()
