"""TP/TN/suppressed fixtures for every whole-program rule family.

Each rule gets at least three fixtures: one where it must fire (true
positive), one exercising the same shape legitimately (true negative),
and one where a ``# repro-lint: disable`` directive silences a
deliberate violation.  Fixtures are virtual in-memory modules whose
paths place them inside the scopes the rules police.
"""

from repro.lint import lint_project_sources

SERVICE = "src/repro/service/fixture_mod.py"
NETWORK = "src/repro/network/fixture_mod.py"

#: Minimal LinkTable double matching the real refresh surface.
LINK_TABLE = '''
import numpy as np


class LinkTable:
    def __init__(self, n):
        self.primary_min = np.zeros(n)
        self.primary_extra = np.zeros(n)
        self.activated = np.zeros(n)
        self.backup_reserved = np.zeros(n)
        self.capacity = np.zeros(n)
        self.failed = np.zeros(n, dtype=bool)
        self.failed_py = [False] * n

    def _refresh_cell(self, li): ...

    def refresh_cells(self, idx): ...
'''


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


class TestDur001DurabilityDomination:
    def test_unlogged_mutation_fires(self):
        src = (
            "class Engine:\n"
            "    def apply(self, req):\n"
            "        self.manager.request_connection(req.src, req.dst, req.qos)\n"
        )
        assert rule_ids({SERVICE: src}, ["DUR001"]) == ["DUR001"]

    def test_wal_append_dominates_all_branches(self):
        src = (
            "class Engine:\n"
            "    def apply(self, batch, journal=None):\n"
            "        if journal is not None:\n"
            "            journal.extend(batch)\n"
            "        elif self.wal is not None:\n"
            "            self.wal.log_events(batch)\n"
            "        for req in batch:\n"
            "            self.manager.request_connection(req.src, req.dst, req.qos)\n"
        )
        assert rule_ids({SERVICE: src}, ["DUR001"]) == []

    def test_one_undominated_branch_fires(self):
        src = (
            "class Engine:\n"
            "    def apply(self, req, fast):\n"
            "        if not fast:\n"
            "            self.wal.log_events([req])\n"
            "        self.manager.fail_link(req.link)\n"
        )
        assert rule_ids({SERVICE: src}, ["DUR001"]) == ["DUR001"]

    def test_caller_justification_through_call_graph(self):
        src = (
            "class Engine:\n"
            "    def _apply_one(self, req):\n"
            "        self.manager.terminate_connection(req.conn_id)\n"
            "\n"
            "    def apply(self, batch):\n"
            "        self.wal.log_events(batch)\n"
            "        for req in batch:\n"
            "            self._apply_one(req)\n"
        )
        assert rule_ids({SERVICE: src}, ["DUR001"]) == []

    def test_suppression_respected(self):
        src = (
            "class Engine:\n"
            "    def apply(self, req):\n"
            "        self.manager.repair_link(req.link)  # repro-lint: disable=DUR001 — offline tool\n"
        )
        assert rule_ids({SERVICE: src}, ["DUR001"]) == []


class TestDur002JournalFlush:
    def test_unflushed_journal_fires(self):
        src = (
            "class Svc:\n"
            "    async def loop(self):\n"
            "        self._journal.append(1)\n"
        )
        assert rule_ids({SERVICE: src}, ["DUR002"]) == ["DUR002"]

    def test_journal_kwarg_without_flush_fires(self):
        src = (
            "class Svc:\n"
            "    async def loop(self, batch):\n"
            "        self.engine.apply_batch(batch, journal=self._journal)\n"
        )
        assert rule_ids({SERVICE: src}, ["DUR002"]) == ["DUR002"]

    def test_flush_reachable_from_batcher_is_clean(self):
        src = (
            "class Svc:\n"
            "    async def loop(self):\n"
            "        self._journal.append(1)\n"
            "        self._rearm()\n"
            "\n"
            "    def _rearm(self):\n"
            "        self.wal.log_events(self._journal)\n"
            "        self._journal.clear()\n"
        )
        assert rule_ids({SERVICE: src}, ["DUR002"]) == []

    def test_suppression_respected(self):
        src = (
            "class Svc:\n"
            "    async def loop(self):\n"
            "        self._journal.append(1)  # repro-lint: disable=DUR002 — bounded debug buffer\n"
        )
        assert rule_ids({SERVICE: src}, ["DUR002"]) == []


class TestDur003FdDurabilityOutsideWal:
    def test_direct_fsync_fires(self):
        src = "import os\n\n\ndef flush(fd):\n    os.fsync(fd)\n"
        assert rule_ids({SERVICE: src}, ["DUR003"]) == ["DUR003"]

    def test_wal_module_is_exempt(self):
        src = "import os\n\n\ndef log_events(fd, ev):\n    os.fsync(fd)\n"
        assert rule_ids({"src/repro/service/wal.py": src}, ["DUR003"]) == []

    def test_non_service_module_is_out_of_scope(self):
        src = "import os\n\n\ndef flush(fd):\n    os.fsync(fd)\n"
        assert rule_ids({"src/repro/parallel/fixture_mod.py": src}, ["DUR003"]) == []

    def test_suppression_respected(self):
        src = (
            "import os\n\n\ndef surgery(path, n):\n"
            "    os.truncate(path, n)  # repro-lint: disable=DUR003 — tear removal, re-verified\n"
        )
        assert rule_ids({SERVICE: src}, ["DUR003"]) == []


class TestSoa001AggregateRefresh:
    def test_column_write_without_refresh_fires(self):
        src = LINK_TABLE + (
            "\n\ndef reserve(links: LinkTable, li, amt):\n"
            "    links.primary_min[li] += amt\n"
        )
        assert rule_ids({NETWORK: src}, ["SOA001"]) == ["SOA001"]

    def test_alias_write_without_refresh_fires(self):
        src = LINK_TABLE + (
            "\n\ndef reserve(links: LinkTable, li, amt):\n"
            "    col = links.primary_min\n"
            "    col[li] += amt\n"
        )
        assert rule_ids({NETWORK: src}, ["SOA001"]) == ["SOA001"]

    def test_ufunc_scatter_write_fires(self):
        src = LINK_TABLE + (
            "\n\ndef release(links: LinkTable, idx, amounts):\n"
            "    np.add.at(links.activated, idx, -amounts)\n"
        )
        assert rule_ids({NETWORK: src}, ["SOA001"]) == ["SOA001"]

    def test_refresh_in_same_function_is_clean(self):
        src = LINK_TABLE + (
            "\n\ndef reserve(links: LinkTable, li, amt):\n"
            "    links.primary_min[li] += amt\n"
            "    links.refresh_cells([li])\n"
            "\n\ndef bulk(links: LinkTable):\n"
            "    links.primary_extra[:] = 0.0\n"
        )
        assert rule_ids({NETWORK: src}, ["SOA001"]) == []

    def test_same_attr_name_on_non_linktable_is_clean(self):
        src = (
            "class LinkState:\n"
            "    def __init__(self):\n"
            "        self.primary_min = {}\n"
            "\n"
            "    def grant(self, conn_id, b_min):\n"
            "        self.primary_min[conn_id] = b_min\n"
        )
        assert rule_ids({NETWORK: src}, ["SOA001"]) == []

    def test_tolist_copy_is_not_an_alias(self):
        src = LINK_TABLE + (
            "\n\ndef snapshot(links: LinkTable):\n"
            "    min_py = links.primary_min.tolist()\n"
            "    min_py[0] += 1.0\n"
        )
        assert rule_ids({NETWORK: src}, ["SOA001"]) == []

    def test_suppression_respected(self):
        src = LINK_TABLE + (
            "\n\ndef reserve(links: LinkTable, li, amt):\n"
            "    links.primary_min[li] += amt  # repro-lint: disable=SOA001 — caller refreshes\n"
        )
        assert rule_ids({NETWORK: src}, ["SOA001"]) == []


class TestSoa002FailedMirror:
    def test_failed_without_mirror_fires(self):
        src = LINK_TABLE + (
            "\n\ndef fail(links: LinkTable, li):\n"
            "    links.failed[li] = True\n"
        )
        assert rule_ids({NETWORK: src}, ["SOA002"]) == ["SOA002"]

    def test_mirror_without_failed_fires(self):
        src = LINK_TABLE + (
            "\n\ndef fail(links: LinkTable, li):\n"
            "    links.failed_py[li] = True\n"
        )
        assert rule_ids({NETWORK: src}, ["SOA002"]) == ["SOA002"]

    def test_both_sides_written_is_clean(self):
        src = LINK_TABLE + (
            "\n\ndef fail(links: LinkTable, li):\n"
            "    links.failed[li] = True\n"
            "    links.failed_py[li] = True\n"
        )
        assert rule_ids({NETWORK: src}, ["SOA002"]) == []

    def test_type_gate_ignores_unrelated_failed_dict(self):
        src = (
            "class Probe:\n"
            "    def __init__(self):\n"
            "        self.failed = {}\n"
            "\n"
            "    def mark(self, key):\n"
            "        self.failed[key] = True\n"
        )
        assert rule_ids({NETWORK: src}, ["SOA002"]) == []

    def test_suppression_respected(self):
        src = LINK_TABLE + (
            "\n\ndef fail(links: LinkTable, li):\n"
            "    links.failed[li] = True  # repro-lint: disable=SOA002 — mirror updated by caller\n"
        )
        assert rule_ids({NETWORK: src}, ["SOA002"]) == []


class TestScopeAndSelection:
    def test_project_rules_do_not_fire_in_tests_paths(self):
        src = "import time\n\n\nasync def handler():\n    time.sleep(0.5)\n"
        assert rule_ids({"tests/service/test_fixture.py": src}, ["ASYNC001"]) == []

    def test_select_filters_project_families(self):
        src = (
            "import os\nimport time\n\n\n"
            "async def handler(fd):\n"
            "    time.sleep(0.5)\n"
            "    os.fsync(fd)\n"
        )
        only_dur = rule_ids({SERVICE: src}, ["DUR003"])
        assert only_dur == ["DUR003"]
        both = rule_ids({SERVICE: src}, ["ASYNC001", "DUR003"])
        assert sorted(set(both)) == ["ASYNC001", "DUR003"]
