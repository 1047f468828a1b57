"""Chaos soak trials and loadgen resilience (out-of-process).

The full sweep runs in CI (``repro chaos --sweep``); here we keep one
bounded end-to-end trial per plane so a plain ``pytest`` run still
exercises the crash → replay → restart → digest chain against a real
server process.
"""

import asyncio
import socket
import time

import pytest

from repro.service.chaos import CHAOS_EXIT_CODE, DURABILITY_SITES
from repro.service.loadgen import LoadgenConfig, run_loadgen
from repro.service.procs import read_banner, serve_argv, spawn_server
from repro.service.soak import (
    SoakTrialSpec,
    derive_trial,
    _request_mix,
    run_trial,
)

TOPOLOGY = "grid:nodes=4,cols=4,capacity=1000"


class TestTrialDerivation:
    def test_derive_trial_is_deterministic(self):
        for seed in range(30):
            first = derive_trial(seed, requests=17)
            again = derive_trial(seed, requests=17)
            assert first == again
            assert first.site in DURABILITY_SITES
            assert first.hit >= 1

    def test_request_mix_is_a_pure_function_of_the_seed(self):
        spec = SoakTrialSpec(seed=11, site="post-fsync", hit=3, requests=40)
        mix = _request_mix(spec)
        assert mix == _request_mix(spec)
        assert len(mix) == 40
        ops = {request["op"] for request in mix}
        # Every WAL record type appears in a 40-request mix.
        assert ops == {"establish", "teardown", "fail", "repair"}


class TestBoundedTrial:
    def test_post_fsync_crash_trial_digests_agree(self, tmp_path):
        """One full trial: seeded crash, offline replay, restart with
        recovery, clean drain, replay on the reference manager — four
        equal digests."""
        spec = SoakTrialSpec(
            seed=3, site="post-fsync", hit=3, requests=12, topology=TOPOLOGY
        )
        result = run_trial(spec, tmp_path)
        assert result.crashed
        assert result.exit_code == CHAOS_EXIT_CODE
        assert result.ok, result.detail
        # post-fsync crashes *after* durability: all three hit-triggering
        # events are on disk.
        assert result.durable_events == 3
        assert (
            result.offline_digest
            == result.recovered_digest
            == result.drained_digest
            == result.reference_digest
        )


class TestLoadgenResilience:
    """Satellite: loadgen survives a server dying mid-campaign."""

    def test_unreachable_server_aborts_without_traceback(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        report = asyncio.run(
            run_loadgen(LoadgenConfig(port=port, total_requests=5))
        )
        assert report.aborted
        assert report.sent == 0

    def test_server_killed_mid_run_aborts_with_partial_stats(self, tmp_path):
        """Kill the server while the campaign is in flight: clients
        burn their bounded reconnect budgets and the run ends with
        ``aborted`` plus whatever stats were gathered — no exception."""
        wal = tmp_path / "wal.log"
        proc = spawn_server(serve_argv(TOPOLOGY, wal))
        try:
            banner = read_banner(proc)
            cfg = LoadgenConfig(
                port=int(banner["port"]),
                total_requests=200_000,  # far more than we let finish
                concurrency=4,
                seed=5,
                deadline_ms=None,
                reconnect_attempts=2,
                reconnect_base_s=0.01,
                reconnect_cap_s=0.05,
            )

            async def scenario():
                campaign = asyncio.ensure_future(run_loadgen(cfg))
                # Let some traffic land first, then pull the plug.
                await asyncio.sleep(0.4)
                proc.kill()
                return await asyncio.wait_for(campaign, timeout=30.0)

            start = time.monotonic()
            report = asyncio.run(scenario())
            elapsed = time.monotonic() - start
            assert report.aborted
            assert report.disconnects >= 1
            assert report.sent < cfg.total_requests
            # Bounded reconnects: giving up is prompt, not a hang.
            assert elapsed < 30.0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)

    def test_config_rejects_nonsense(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            LoadgenConfig(total_requests=0)
