"""Kill -9 the live service mid-epoch; recovery must be bitwise exact.

The scenario the WAL exists for, end to end and out of process:

1. start ``repro serve`` with a WAL and a widened durable-but-unapplied
   window (``--epoch-hold-s``);
2. drive a scripted burst of requests, SIGKILL the server while a batch
   is in flight;
3. replay the surviving log in-process — this *is* the uninterrupted
   run over the durable prefix (batching is bitwise inert);
4. restart the service on the same WAL and assert its recovered state
   digest equals the replay digest, then drain it cleanly and check the
   digest one last time.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.service.protocol import decode_line, encode_line
from repro.service.replay import replay_log

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

QOS = {"b_min": 100.0, "b_max": 300.0, "increment": 100.0, "utility": 1.0,
       "backups": 1}


def _spawn_server(wal, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--topology", "grid:nodes=4,cols=4,capacity=1000",
         "--wal", str(wal), "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = proc.stdout.readline()
    if not line:
        proc.kill()
        raise AssertionError(f"server died at startup: {proc.stderr.read()}")
    banner = json.loads(line)
    assert banner["event"] == "listening"
    return proc, banner


class _Client:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.file = self.sock.makefile("rb")

    def rpc(self, obj):
        self.sock.sendall(encode_line(obj))
        return decode_line(self.file.readline())

    def send_only(self, obj):
        self.sock.sendall(encode_line(obj))

    def close(self):
        self.sock.close()


class TestKillAndReplay:
    def test_sigkill_mid_epoch_recovers_bitwise(self, tmp_path):
        wal = tmp_path / "wal.log"
        proc, banner = _spawn_server(wal, extra=["--epoch-hold-s", "0.05"])
        try:
            client = _Client(banner["port"])
            # A deterministic scripted burst with answered requests...
            for i in range(40):
                resp = client.rpc({
                    "op": "establish", "id": i, "src": i % 16,
                    "dst": (i + 5) % 16, "qos": QOS,
                })
                assert "ok" in resp
            # ...then a pipelined burst we do NOT wait for, so a batch
            # is durably logged but still unapplied (epoch hold) when
            # the SIGKILL lands.
            for i in range(40, 80):
                client.send_only({
                    "op": "establish", "id": i, "src": i % 16,
                    "dst": (i + 3) % 16, "qos": QOS,
                })
            time.sleep(0.1)  # let some of the burst reach the WAL
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            client.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        assert wal.exists() and wal.stat().st_size > 0
        # The uninterrupted run over the durable prefix.
        offline = replay_log(wal)
        assert offline.events_applied >= 40

        # Restart on the same WAL: recovery must replay to the same state.
        proc2, banner2 = _spawn_server(wal)
        try:
            assert banner2["recovered"] is True
            assert banner2["seq"] == offline.events_applied
            client = _Client(banner2["port"])
            live = client.rpc({"op": "query", "id": 1, "what": "digest"})
            assert live["ok"]
            assert live["result"]["digest"] == offline.digest
            client.close()
            proc2.send_signal(signal.SIGTERM)
            out, err = proc2.communicate(timeout=30)
            assert proc2.returncode == 0, err
            drained = json.loads(out.strip().splitlines()[-1])
            assert drained["event"] == "drained"
            assert drained["digest"] == offline.digest
        finally:
            if proc2.poll() is None:
                proc2.kill()
                proc2.wait(timeout=10)

        # The WAL now carries a clean shutdown marker and still replays
        # to the identical state.
        final = replay_log(wal)
        assert final.clean_shutdown
        assert final.digest == offline.digest

    def test_clean_restart_without_crash(self, tmp_path):
        """Restart after SIGTERM also recovers (idempotent recovery)."""
        wal = tmp_path / "wal.log"
        proc, banner = _spawn_server(wal)
        client = _Client(banner["port"])
        for i in range(10):
            client.rpc({
                "op": "establish", "id": i, "src": 0, "dst": 15, "qos": QOS,
            })
        client.close()
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        drained = json.loads(out.strip().splitlines()[-1])

        proc2, banner2 = _spawn_server(wal)
        try:
            assert banner2["recovered"] is True
            client = _Client(banner2["port"])
            live = client.rpc({"op": "query", "id": 1, "what": "digest"})
            assert live["result"]["digest"] == drained["digest"]
            client.close()
        finally:
            proc2.send_signal(signal.SIGTERM)
            proc2.communicate(timeout=30)


class TestSigtermWithClientsAttached:
    def test_idle_client_does_not_dirty_the_drain(self, tmp_path):
        """SIGTERM while a client sits idle on an open connection: the
        handler parked in ``readline()`` must see EOF and return, not be
        cancelled at loop teardown (asyncio logs that as a traceback)."""
        proc, banner = _spawn_server(tmp_path / "wal.log")
        client = _Client(banner["port"])
        try:
            resp = client.rpc({
                "op": "establish", "id": 1, "src": 0, "dst": 15, "qos": QOS,
            })
            assert resp["ok"]
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            assert json.loads(out.strip().splitlines()[-1])["event"] == "drained"
            assert err == ""
            assert client.file.readline() == b""  # the server hung up
        finally:
            client.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
