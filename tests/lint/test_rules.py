"""Per-rule fixture tests for the determinism lint pass.

Every rule family is exercised three ways: a seeded violation the rule
must catch (true positive), adjacent compliant code it must stay silent
on (true negative), and the same violation under an inline suppression
directive.  Fixtures are linted through :func:`repro.lint.lint_source`
with a virtual path, so path-scoped rules can be probed from both sides
of their scope.
"""

from repro.lint import lint_source

#: Virtual path inside simulation logic: every rule applies.
SIM_PATH = "src/repro/sim/fixture.py"


def rules_at(source: str, path: str = SIM_PATH):
    return [finding.rule for finding in lint_source(source, path)]


class TestRNG003RandomState:
    def test_attribute_construction_flagged(self):
        src = "import numpy as np\nrs = np.random.RandomState(0)\n"
        assert rules_at(src) == ["RNG003"]

    def test_imported_name_flagged(self):
        src = "from numpy.random import RandomState\nrs = RandomState(0)\n"
        assert rules_at(src) == ["RNG003"]

    def test_generator_is_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert rules_at(src) == []

    def test_suppressed(self):
        src = (
            "import numpy as np\n"
            "rs = np.random.RandomState(0)  # repro-lint: disable=RNG003 — "
            "legacy comparison\n"
        )
        assert rules_at(src) == []


class TestDET001SetIteration:
    def test_for_over_set_call_flagged(self):
        src = "for x in set(items):\n    queue.append(x)\n"
        assert rules_at(src) == ["DET001"]

    def test_for_over_set_literal_flagged(self):
        src = "for x in {a, b, c}:\n    out.append(x)\n"
        assert rules_at(src) == ["DET001"]

    def test_list_comprehension_over_union_flagged(self):
        src = "routes = [f(x) for x in set(a).union(b)]\n"
        assert rules_at(src) == ["DET001"]

    def test_list_of_set_flagged(self):
        src = "order = list(frozenset(items))\n"
        assert rules_at(src) == ["DET001"]

    def test_star_unpack_flagged(self):
        src = "args = [*{1, 2, 3}]\n"
        assert rules_at(src) == ["DET001"]

    def test_sorted_set_is_clean(self):
        src = "for x in sorted(set(items)):\n    queue.append(x)\n"
        assert rules_at(src) == []

    def test_set_comprehension_target_is_clean(self):
        # Iterating a set into another set stays unordered: no hazard.
        src = "seen = {f(x) for x in set(items)}\n"
        assert rules_at(src) == []

    def test_dict_literal_iteration_is_clean(self):
        # Dicts are insertion-ordered; only sets are flagged.
        src = "for k in {'a': 1, 'b': 2}:\n    out.append(k)\n"
        assert rules_at(src) == []

    def test_membership_test_is_clean(self):
        src = "hit = x in {1, 2, 3}\n"
        assert rules_at(src) == []

    def test_suppressed(self):
        src = (
            "for x in set(items):  # repro-lint: disable=DET001 — "
            "order-insensitive count\n"
            "    n += 1\n"
        )
        assert rules_at(src) == []


class TestDET003WallClock:
    def test_time_time_flagged(self):
        src = "import time\nstamp = time.time()\n"
        assert rules_at(src) == ["DET003"]

    def test_from_time_import_flagged(self):
        src = "from time import perf_counter\nt0 = perf_counter()\n"
        assert rules_at(src) == ["DET003"]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nstamp = datetime.now()\n"
        assert rules_at(src) == ["DET003"]

    def test_datetime_module_form_flagged(self):
        src = "import datetime\nstamp = datetime.datetime.now()\n"
        assert rules_at(src) == ["DET003"]

    def test_event_clock_is_clean(self):
        src = "now = engine.current_time\nwhen = now + delay\n"
        assert rules_at(src) == []

    def test_timing_infra_is_exempt(self):
        src = "import time\nstart = time.perf_counter()\n"
        assert rules_at(src, path="src/repro/parallel/runner.py") == []
        assert rules_at(src, path="benchmarks/bench_core_ops.py") == []

    def test_service_timing_plane_is_exempt(self):
        # The serving shell, telemetry and loadgen are timing layers:
        # deadlines and latency measurement are their whole job.
        src = "import time\nstart = time.perf_counter()\n"
        for path in (
            "src/repro/service/server.py",
            "src/repro/service/telemetry.py",
            "src/repro/service/loadgen.py",
            "tests/service/test_server.py",
        ):
            assert rules_at(src, path=path) == [], path

    def test_service_decision_plane_is_checked(self):
        # Engine/WAL/shedding/replay/protocol must stay clock-free so a
        # live run replays bitwise; the exemption must NOT cover them.
        src = "import time\nstamp = time.time()\n"
        for path in (
            "src/repro/service/engine.py",
            "src/repro/service/wal.py",
            "src/repro/service/shedding.py",
            "src/repro/service/replay.py",
            "src/repro/service/protocol.py",
        ):
            assert rules_at(src, path=path) == ["DET003"], path

    def test_suppressed(self):
        src = (
            "import time\n"
            "stamp = time.time()  # repro-lint: disable=DET003 — log header\n"
        )
        assert rules_at(src) == []


class TestART001RawArtifactWrite:
    def test_open_write_flagged(self):
        src = "with open(path, 'w') as fh:\n    fh.write(text)\n"
        assert rules_at(src) == ["ART001"]

    def test_open_append_flagged(self):
        src = "fh = open(path, mode='a')\n"
        assert rules_at(src) == ["ART001"]

    def test_path_write_text_flagged(self):
        src = "path.write_text(payload)\n"
        assert rules_at(src) == ["ART001"]

    def test_path_write_bytes_flagged(self):
        src = "path.write_bytes(blob)\n"
        assert rules_at(src) == ["ART001"]

    def test_read_open_is_clean(self):
        src = (
            "with open(path) as fh:\n"
            "    text = fh.read()\n"
            "more = open(path, 'rb').read()\n"
        )
        assert rules_at(src) == []

    def test_atomic_primitive_call_is_clean(self):
        src = (
            "from repro.parallel import atomic_write_text\n"
            "atomic_write_text(path, text)\n"
        )
        assert rules_at(src) == []

    def test_suppressed(self):
        src = (
            "path.write_text(x)  # repro-lint: disable=ART001 — scratch file\n"
        )
        assert rules_at(src) == []


class TestFLT001FloatLiteralEquality:
    def test_nonintegral_literal_equality_flagged(self):
        src = "ok = total == 0.3\n"
        assert rules_at(src) == ["FLT001"]

    def test_not_equal_flagged(self):
        src = "if rate != 0.25:\n    raise ValueError\n"
        assert rules_at(src) == ["FLT001"]

    def test_integral_float_is_clean(self):
        # Exact zero/whole-number comparisons are deliberate and safe.
        src = "done = remaining == 0.0\nfull = level == 8.0\n"
        assert rules_at(src) == []

    def test_epsilon_comparison_is_clean(self):
        src = "ok = abs(total - 0.3) < 1e-9\n"
        assert rules_at(src) == []

    def test_tests_are_exempt(self):
        # Bitwise regression tests pin exact floats on purpose.
        src = "assert result.average_bandwidth == 500.0000000000003\n"
        assert rules_at(src, path="tests/faults/test_regression.py") == []

    def test_suppressed(self):
        src = (
            "ok = x == 0.5  # repro-lint: disable=FLT001 — exactly "
            "representable by construction\n"
        )
        assert rules_at(src) == []


class TestDUR003FdDurabilityOutsideWal:
    SERVICE_PATH = "src/repro/service/fixture.py"

    def test_direct_fsync_fires(self):
        src = "import os\n\n\ndef flush(fd):\n    os.fsync(fd)\n"
        assert rules_at(src, self.SERVICE_PATH) == ["DUR003"]

    def test_from_os_import_fires(self):
        src = "from os import ftruncate\n\n\ndef cut(fd):\n    ftruncate(fd, 0)\n"
        assert rules_at(src, self.SERVICE_PATH) == ["DUR003"]

    def test_wal_module_is_exempt(self):
        src = "import os\n\n\ndef log_events(fd, ev):\n    os.fsync(fd)\n"
        assert rules_at(src, "src/repro/service/wal.py") == []

    def test_non_service_module_is_out_of_scope(self):
        src = "import os\n\n\ndef flush(fd):\n    os.fsync(fd)\n"
        assert rules_at(src, "src/repro/parallel/fixture_mod.py") == []

    def test_suppression_respected(self):
        src = (
            "import os\n\n\ndef surgery(path, n):\n"
            "    os.truncate(path, n)  # repro-lint: disable=DUR003 — tear removal, re-verified\n"
        )
        assert rules_at(src, self.SERVICE_PATH) == []
