"""TP/TN/suppressed fixtures for the whole-program ASYNC rules.

Each rule gets at least three fixtures: one where it must fire (true
positive), one exercising the same shape legitimately (true negative),
and one where a ``# repro-lint: disable`` directive silences a
deliberate violation.  Fixtures are virtual in-memory modules whose
paths place them inside the scopes the rules police.
"""

from repro.lint import lint_project_sources

SERVICE = "src/repro/service/fixture_mod.py"


def rules_at(sources, select):
    findings = lint_project_sources(sources, select=select)
    return [(f.rule, f.line) for f in findings]


def rule_ids(sources, select):
    return [rule for rule, _ in rules_at(sources, select)]


class TestAsync001BlockingReachable:
    def test_direct_blocking_call_in_async_def_fires(self):
        src = "import time\n\n\nasync def handler():\n    time.sleep(0.5)\n"
        assert rule_ids({SERVICE: src}, ["ASYNC001"]) == ["ASYNC001"]

    def test_blocking_call_reachable_through_sync_helper_fires(self):
        src = (
            "import time\n\n\n"
            "def helper():\n    time.sleep(0.5)\n\n\n"
            "async def handler():\n    helper()\n"
        )
        findings = rules_at({SERVICE: src}, ["ASYNC001"])
        assert [rule for rule, _ in findings] == ["ASYNC001"]
        assert findings[0][1] == 5  # reported at the blocking site

    def test_cross_module_reachability_fires(self):
        helper = "import subprocess\n\n\ndef spawn():\n    subprocess.run(['x'])\n"
        server = (
            "from repro.service.helper_mod import spawn\n\n\n"
            "async def handler():\n    spawn()\n"
        )
        assert rule_ids(
            {"src/repro/service/helper_mod.py": helper, SERVICE: server},
            ["ASYNC001"],
        ) == ["ASYNC001"]

    def test_executor_offload_is_clean(self):
        src = (
            "import asyncio\nimport time\n\n\n"
            "def slow():\n    time.sleep(0.5)\n\n\n"
            "async def handler():\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, slow)\n"
        )
        assert rule_ids({SERVICE: src}, ["ASYNC001"]) == []

    def test_wal_barrier_module_is_exempt(self):
        wal = "import os\n\n\ndef log_events(fd, events):\n    os.fsync(fd)\n"
        server = (
            "from repro.service.wal import log_events\n\n\n"
            "async def apply(fd, batch):\n    log_events(fd, batch)\n"
        )
        assert rule_ids(
            {"src/repro/service/wal.py": wal, SERVICE: server}, ["ASYNC001"]
        ) == []

    def test_blocking_only_in_sync_world_is_clean(self):
        src = "import time\n\n\ndef cli_loop():\n    time.sleep(0.5)\n"
        assert rule_ids({SERVICE: src}, ["ASYNC001"]) == []

    def test_suppression_silences_deliberate_block(self):
        src = (
            "import time\n\n\nasync def handler():\n"
            "    time.sleep(0.5)  # repro-lint: disable=ASYNC001 — startup-only warmup\n"
        )
        assert rule_ids({SERVICE: src}, ["ASYNC001"]) == []


class TestAsync002UnawaitedCoroutine:
    def test_bare_coroutine_call_fires(self):
        src = (
            "async def work():\n    return 1\n\n\n"
            "async def main():\n    work()\n"
        )
        assert rule_ids({SERVICE: src}, ["ASYNC002"]) == ["ASYNC002"]

    def test_awaited_and_tasked_calls_are_clean(self):
        src = (
            "import asyncio\n\n\n"
            "async def work():\n    return 1\n\n\n"
            "async def main():\n"
            "    await work()\n"
            "    task = asyncio.create_task(work())\n"
            "    await task\n"
        )
        assert rule_ids({SERVICE: src}, ["ASYNC002"]) == []

    def test_bare_sync_call_is_clean(self):
        src = "def work():\n    return 1\n\n\ndef main():\n    work()\n"
        assert rule_ids({SERVICE: src}, ["ASYNC002"]) == []

    def test_suppression_respected(self):
        src = (
            "async def work():\n    return 1\n\n\n"
            "async def main():\n"
            "    work()  # repro-lint: disable=ASYNC002 — fire-and-forget demo\n"
        )
        assert rule_ids({SERVICE: src}, ["ASYNC002"]) == []


class TestAsync003SharedStateOffBatcherPath:
    HEAD = (
        "import asyncio\n\n\n"
        "class Svc:\n"
        "    async def start(self):\n"
        "        self._task = asyncio.create_task(self._loop())\n"
    )

    def test_handler_writing_mode_fires(self):
        src = self.HEAD + (
            "\n    async def _loop(self):\n        pass\n"
            "\n    async def _handle_frame(self, line):\n"
            "        self.mode = 'healthy'\n"
        )
        assert rule_ids({SERVICE: src}, ["ASYNC003"]) == ["ASYNC003"]

    def test_batcher_reachable_sync_helper_is_clean(self):
        src = self.HEAD + (
            "\n    async def _loop(self):\n        self._enter_degraded()\n"
            "\n    def _enter_degraded(self):\n        self.mode = 'degraded'\n"
        )
        assert rule_ids({SERVICE: src}, ["ASYNC003"]) == []

    def test_signal_handler_target_is_clean(self):
        src = (
            "import asyncio\nimport signal\n\n\n"
            "class Svc:\n"
            "    async def start(self):\n"
            "        self._task = asyncio.create_task(self._loop())\n"
            "        loop = asyncio.get_running_loop()\n"
            "        loop.add_signal_handler(signal.SIGTERM, self.initiate_drain)\n"
            "\n    async def _loop(self):\n        pass\n"
            "\n    def initiate_drain(self):\n        self._draining = True\n"
        )
        assert rule_ids({SERVICE: src}, ["ASYNC003"]) == []

    def test_unprotected_counter_in_handler_is_clean(self):
        src = self.HEAD + (
            "\n    async def _loop(self):\n        pass\n"
            "\n    async def _handle_frame(self, line):\n"
            "        self.shed_count += 1\n"
        )
        assert rule_ids({SERVICE: src}, ["ASYNC003"]) == []

    def test_suppression_respected(self):
        src = self.HEAD + (
            "\n    async def _loop(self):\n        pass\n"
            "\n    async def _handle_frame(self, line):\n"
            "        self.mode = 'x'  # repro-lint: disable=ASYNC003 — test shim\n"
        )
        assert rule_ids({SERVICE: src}, ["ASYNC003"]) == []


class TestScopeAndSelection:
    def test_project_rules_do_not_fire_in_tests_paths(self):
        src = "import time\n\n\nasync def handler():\n    time.sleep(0.5)\n"
        assert rule_ids({"tests/service/test_fixture.py": src}, ["ASYNC001"]) == []

    def test_select_filters_project_families(self):
        src = (
            "import time\n\n\n"
            "async def helper():\n"
            "    pass\n\n\n"
            "async def handler():\n"
            "    time.sleep(0.5)\n"
            "    helper()\n"
        )
        assert rule_ids({SERVICE: src}, ["ASYNC002"]) == ["ASYNC002"]
        both = rule_ids({SERVICE: src}, ["ASYNC001", "ASYNC002"])
        assert sorted(both) == ["ASYNC001", "ASYNC002"]
