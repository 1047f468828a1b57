"""Supervised restart loop: budget, backoff, crash loops, digest checks.

These tests spawn real ``repro serve`` subprocesses — the supervisor's
whole job is babysitting an OS process — but keep every knob tight so
the suite stays fast.
"""

import os
import signal
import threading
import time

from repro.service.chaos import CHAOS_EXIT_CODE
from repro.service.replay import replay_log
from repro.service.procs import (
    ScriptClient,
    read_banner,
    serve_argv,
    spawn_server,
    wait_exit,
)
from repro.service.supervisor import (
    ServeSupervisor,
    SupervisorPolicy,
    strip_chaos_flags,
)

TOPOLOGY = "grid:nodes=4,cols=4,capacity=1000"

QOS = {"b_min": 100.0, "b_max": 300.0, "increment": 100.0, "utility": 1.0,
       "backups": 1}


class TestStripChaosFlags:
    def test_removes_flag_value_pairs(self):
        argv = ["repro", "serve", "--chaos-crash", "post-listen:1",
                "--wal", "x.log", "--chaos-seed", "7",
                "--chaos-disk", "fsync-eio:2", "--batch-max", "8"]
        assert strip_chaos_flags(argv) == [
            "repro", "serve", "--wal", "x.log", "--batch-max", "8"
        ]

    def test_noop_without_chaos_flags(self):
        argv = ["repro", "serve", "--wal", "x.log"]
        assert strip_chaos_flags(argv) == argv


class TestRestartLoop:
    def test_crash_once_restarts_and_verifies_digest(self, tmp_path):
        """A post-listen crash is survived: the supervisor restarts the
        child without its chaos flags, cross-checks the recovered digest
        against an offline replay, and ends cleanly on SIGTERM."""
        wal = tmp_path / "wal.log"
        # Seed the WAL with real history so the digest check has teeth.
        proc = spawn_server(serve_argv(TOPOLOGY, wal))
        banner = read_banner(proc)
        client = ScriptClient(int(banner["port"]))
        for i in range(3):
            resp = client.rpc({"op": "establish", "id": i, "src": i,
                               "dst": 15 - i, "qos": QOS})
            assert resp and resp["ok"]
        client.close()
        proc.kill()  # hard kill: no shutdown marker, recovery is real
        wait_exit(proc)

        banners = []
        supervisor = ServeSupervisor(
            serve_argv(TOPOLOGY, wal, ["--chaos-crash", "post-listen:1"]),
            wal,
            SupervisorPolicy(
                max_restarts=3,
                backoff_base_s=0.05,
                crash_loop_threshold=3,
                min_healthy_uptime_s=0.1,
            ),
            on_banner=banners.append,
        )
        box = {}
        runner = threading.Thread(
            target=lambda: box.update(report=supervisor.run())
        )
        runner.start()
        # Banner #1 is the chaos child (dies at post-listen); banner #2
        # is the restarted, chaos-stripped incarnation.  The banner is
        # printed after signal handlers are installed, so a SIGTERM from
        # here on drains gracefully instead of killing mid-startup.
        deadline = time.monotonic() + 60.0
        while len(banners) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert len(banners) == 2, "restarted child never announced readiness"
        os.kill(int(banners[1]["pid"]), signal.SIGTERM)
        runner.join(timeout=60.0)
        assert not runner.is_alive()

        report = box["report"]
        assert report.outcome == "clean-exit"
        assert report.crashes == 1
        assert report.restarts == 1
        assert report.last_exit_code == 0
        # Both incarnations recovered from the same (real) history.
        codes = [inc["exit_code"] for inc in report.incarnations]
        assert codes == [CHAOS_EXIT_CODE, 0]
        assert all(inc["banner"]["recovered"] for inc in report.incarnations)
        # The drained child's digest equals an offline replay: the
        # crash/restart cycle rewrote nothing.
        assert report.last_digest == replay_log(wal).digest

    def test_persistent_crash_is_a_crash_loop(self, tmp_path):
        """chaos_once=False re-arms the crash every incarnation; the
        supervisor must detect the loop, not restart forever."""
        wal = tmp_path / "wal.log"
        supervisor = ServeSupervisor(
            serve_argv(TOPOLOGY, wal, ["--chaos-crash", "post-listen:1"]),
            wal,
            SupervisorPolicy(
                max_restarts=10,
                backoff_base_s=0.02,
                backoff_cap_s=0.1,
                crash_loop_threshold=3,
                min_healthy_uptime_s=5.0,
                chaos_once=False,
            ),
        )
        report = supervisor.run()
        assert report.outcome == "crash-loop"
        assert report.crashes == 3
        assert report.restarts == 2  # threshold hit before budget
        assert report.last_exit_code == CHAOS_EXIT_CODE

    def test_restart_budget_exhaustion(self, tmp_path):
        wal = tmp_path / "wal.log"
        supervisor = ServeSupervisor(
            serve_argv(TOPOLOGY, wal, ["--chaos-crash", "post-listen:1"]),
            wal,
            SupervisorPolicy(
                max_restarts=2,
                backoff_base_s=0.02,
                backoff_cap_s=0.1,
                crash_loop_threshold=99,
                min_healthy_uptime_s=5.0,
                chaos_once=False,
            ),
        )
        report = supervisor.run()
        assert report.outcome == "restart-budget-exhausted"
        assert report.restarts == 2
        assert report.crashes == 3  # initial run + 2 restarts
