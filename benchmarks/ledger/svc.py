"""Service workloads: a real ``repro serve`` child and closed-loop clients.

The generator is one asyncio process with :data:`CLIENTS` connections
(this box has two cores; the server gets the other one).  The loop is
*closed*: a signalling agent waits for its admission decision before it
sends the next request, so each client has exactly one request in
flight and a slower server is offered less load.

Timing plane only: nothing here feeds a decision.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.service.procs import drain_stdout, read_banner, terminate
from repro.service.protocol import decode_line, encode_line
from repro.service.replay import ReplayResult, replay_log

from benchmarks.ledger.measure import percentile
from benchmarks.ledger.workloads import (
    QUERY_EVERY,
    TOPOLOGY_ARG,
    SteadyStateMix,
    Workload,
    client_seeds,
    is_failure,
)

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
ARTIFACTS = LEDGER_DIR / ".artifacts"

#: Concurrent client connections of the timed pass (= ``nproc`` here).
CLIENTS = 2

#: Answered requests per slice of the timed pass (see README, "Quiet
#: quartile").  A slice is cut by count, not by the clock, so a slow
#: slice is still a slice; a fifth of it is queries, enough that their
#: p90 has ten samples beyond it.
SLICE_REQUESTS = 600

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def child_env() -> Dict[str, str]:
    """This environment with the checkout's ``src/`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


class ServerProcess:
    """One ``repro serve`` child, its WAL in a private temp directory.

    stderr goes to ``<artifacts>/server.stderr`` (appended, so repeated
    set-ups of one run land in one file).  Use as a context manager:
    the child is killed and the WAL directory removed on the way out,
    whatever happened in between.
    """

    def __init__(self, artifacts: Path) -> None:
        self.artifacts = artifacts
        self.wal_dir = artifacts / f"wal-{os.getpid()}-{time.monotonic_ns()}"
        self.wal_path = self.wal_dir / "serve.wal"
        self.proc: Optional["subprocess.Popen[str]"] = None
        self.port = 0
        self.pid = 0

    def __enter__(self) -> "ServerProcess":
        self.wal_dir.mkdir(parents=True)
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--topology", TOPOLOGY_ARG, "--wal", str(self.wal_path), "--port", "0",
        ]
        with open(self.artifacts / "server.stderr", "ab") as stderr:
            self.proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=stderr, env=child_env(), text=True
            )
        banner = read_banner(self.proc)
        self.port = int(banner["port"])
        self.pid = int(banner["pid"])
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)

    def cpu_ns(self) -> int:
        """CPU time the child has used so far, in ns.

        ``/proc/<pid>/schedstat`` counts the on-CPU time of the server's
        one thread to the nanosecond; ``/proc/<pid>/stat`` (utime +
        stime, 10 ms ticks) is the fallback on kernels without it.
        """
        try:
            return int(Path(f"/proc/{self.pid}/schedstat").read_text().split()[0])
        except (OSError, ValueError, IndexError):
            fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1].split()
            return (int(fields[11]) + int(fields[12])) * 1_000_000_000 // _CLK_TCK

    def rss_hwm_mib(self) -> float:
        """Peak resident set (``VmHWM``) of the child, MiB."""
        return _vm_hwm_mib(self.pid)

    def drain(self) -> Dict[str, Any]:
        """SIGTERM, wait, and return the ``drained`` banner."""
        assert self.proc is not None
        code = terminate(self.proc)
        for event in drain_stdout(self.proc):
            if event.get("event") == "drained":
                return event
        raise RuntimeError(f"server exited with code {code} without a drained banner")


def _vm_hwm_mib(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def own_rss_hwm_mib() -> float:
    """Peak resident set of this process, MiB."""
    return _vm_hwm_mib(os.getpid())


@dataclass
class ClientLog:
    """What the clients observed during one pass.

    ``samples`` holds ``(elapsed_ns, is_query)`` per answered request, in
    completion order.  When ``cpu_ns`` is set (the timed pass), ``ticks``
    holds a ``(now_ns, server_cpu_ns)`` reading from the start of the
    pass and after every :data:`SLICE_REQUESTS`-th sample.
    """

    samples: List[Tuple[int, bool]] = field(default_factory=list)
    ticks: List[Tuple[int, int]] = field(default_factory=list)
    cpu_ns: Optional[Callable[[], int]] = None
    attempted: int = 0
    failed: int = 0

    def tick(self) -> None:
        assert self.cpu_ns is not None
        self.ticks.append((time.perf_counter_ns(), self.cpu_ns()))

    def record(self, elapsed_ns: int, is_query: bool) -> None:
        self.samples.append((elapsed_ns, is_query))
        if self.cpu_ns is not None and len(self.samples) % SLICE_REQUESTS == 0:
            self.tick()

    @property
    def mutation_ns(self) -> List[int]:
        return [elapsed for elapsed, is_query in self.samples if not is_query]

    @property
    def query_ns(self) -> List[int]:
        return [elapsed for elapsed, is_query in self.samples if is_query]

    def slices(self) -> List[Dict[str, float]]:
        """The svc rates and latencies, once per :data:`SLICE_REQUESTS`
        answered requests (the ragged tail of the pass is left out)."""
        out: List[Dict[str, float]] = []
        for index, ((t0, cpu0), (t1, cpu1)) in enumerate(zip(self.ticks, self.ticks[1:])):
            chunk = self.samples[index * SLICE_REQUESTS : (index + 1) * SLICE_REQUESTS]
            mutations = [elapsed for elapsed, is_query in chunk if not is_query]
            queries = [elapsed for elapsed, is_query in chunk if is_query]
            seconds = (t1 - t0) / 1e9
            out.append(
                {
                    "rtt_p50_us": percentile(mutations, 0.5) / 1e3,
                    "rtt_p90_us": percentile(mutations, 0.9) / 1e3,
                    "query_p90_us": percentile(queries, 0.9) / 1e3,
                    "req_per_s": len(chunk) / seconds,
                    "cpu_us_per_req": (cpu1 - cpu0) / 1e3 / len(chunk),
                }
            )
        if not out:
            raise RuntimeError(
                f"the timed pass answered {len(self.samples)} requests, "
                f"fewer than one slice of {SLICE_REQUESTS}"
            )
        return out


class Client:
    """One connection and its request source."""

    def __init__(self, port: int, mix: SteadyStateMix) -> None:
        self.port = port
        self.mix = mix
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass

    async def rpc(self, request: Dict[str, Any], log: Optional[ClientLog]) -> None:
        """One closed-loop round trip; the clock brackets the socket only."""
        assert self.reader is not None and self.writer is not None
        frame = encode_line(request)
        response: Optional[Dict[str, Any]] = None
        started = time.perf_counter_ns()
        try:
            self.writer.write(frame)
            await self.writer.drain()
            line = await self.reader.readline()
            elapsed = time.perf_counter_ns() - started
            if line:
                response = decode_line(line)
        except OSError:
            elapsed = time.perf_counter_ns() - started
        self.mix.observe(request, response)
        if log is not None:
            log.attempted += 1
            if is_failure(response):
                log.failed += 1
            else:
                log.record(elapsed, request["op"] == "query")

    async def prefill(self) -> None:
        """Establish until this client owns its share of the population."""
        attempts = 0
        while len(self.mix.owned) < self.mix.population:
            await self.rpc(self.mix.establish(), None)
            attempts += 1
            if attempts > 50 * self.mix.population:
                raise RuntimeError("prefill cannot reach the target population")

    async def run(self, count: int, log: ClientLog) -> None:
        for _ in range(count):
            await self.rpc(self.mix.next_request(), log)


async def query(port: int, what: str) -> Dict[str, Any]:
    """One-shot query on its own connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_line({"op": "query", "id": 0, "what": what}))
        await writer.drain()
        return decode_line(await reader.readline())
    finally:
        writer.close()


async def open_clients(port: int, workload: Workload, seed: int, clients: int) -> List[Client]:
    """Connect ``clients`` connections and pre-fill to the population."""
    info = await query(port, "info")
    num_nodes = int(info["result"]["num_nodes"])
    made = [
        Client(port, SteadyStateMix(s, num_nodes, workload.population // clients, QUERY_EVERY))
        for s in client_seeds(seed, clients)
    ]
    for client in made:
        await client.connect()
    await asyncio.gather(*(client.prefill() for client in made))
    return made


async def close_clients(clients: List[Client]) -> None:
    for client in clients:
        await client.close()


def check_replay(
    replayed: ReplayResult, digest: Any, seq: Any, checks: Dict[str, bool]
) -> None:
    """The live-vs-replay correctness checks; fills ``checks`` by name.

    The live digest must equal the digest of an offline replay of the
    WAL the run wrote, the live ``seq`` must equal the number of logged
    events, the replayed manager's invariants must hold, and every live
    connection must hold at least its ``b_min``.
    """
    checks["digest_matches_replay"] = digest == replayed.digest
    checks["seq_matches_log"] = seq == replayed.events_applied
    checks["invariants"] = manager_is_sound(replayed.engine.manager)


def manager_is_sound(manager: Any) -> bool:
    """``check_invariants`` passes and no live connection is below ``b_min``."""
    try:
        manager.check_invariants()
    except Exception as exc:  # any invariant breach is a failed check, reported by name
        print(f"invariant check failed: {exc}", file=sys.stderr)
        return False
    return all(
        conn.bandwidth >= conn.elastic_qos.b_min - 1e-9
        for conn in manager.connections.values()
    )


@dataclass
class SvcRun:
    """Raw outcome of one untraced service run."""

    setup_s: List[float]
    log: ClientLog
    rss_mib: float
    checks: Dict[str, bool]


def stderr_lines(artifacts: Path) -> int:
    path = artifacts / "server.stderr"
    return len(path.read_text(errors="replace").splitlines()) if path.exists() else 0


def timed_setup(artifacts: Path, workload: Workload, seed: int) -> float:
    """One throw-away set-up: spawn -> listening banner -> pre-fill done."""
    started = time.perf_counter()
    with ServerProcess(artifacts) as server:

        async def fill() -> None:
            await close_clients(await open_clients(server.port, workload, seed, CLIENTS))

        asyncio.run(fill())
        elapsed = time.perf_counter() - started
    return elapsed


def run_svc(workload: Workload, seed: int, seconds: float, setups: int) -> SvcRun:
    """Set up ``setups`` times (the last one is kept), then the timed pass."""
    artifacts = ARTIFACTS / workload.name
    artifacts.mkdir(parents=True, exist_ok=True)
    (artifacts / "server.stderr").write_bytes(b"")
    setup_s = [timed_setup(artifacts, workload, seed) for _ in range(setups - 1)]
    requests = max(SLICE_REQUESTS, int(workload.per_second * seconds))
    log = ClientLog()
    checks: Dict[str, bool] = {}
    started = time.perf_counter()
    with ServerProcess(artifacts) as server:

        async def drive() -> None:
            clients = await open_clients(server.port, workload, seed, CLIENTS)
            setup_s.append(time.perf_counter() - started)
            log.cpu_ns = server.cpu_ns
            log.tick()
            try:
                await asyncio.gather(*(c.run(requests // CLIENTS, log) for c in clients))
            finally:
                # Close before SIGTERM: draining with clients attached
                # makes the server log CancelledError tracebacks.
                await close_clients(clients)

        asyncio.run(drive())
        rss = server.rss_hwm_mib()
        banner = server.drain()
        check_replay(replay_log(server.wal_path), banner.get("digest"), banner.get("seq"), checks)
    return SvcRun(setup_s=setup_s, log=log, rss_mib=rss, checks=checks)


def dump_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
