"""Load-generator client for the admission service (``repro loadgen``).

Drives a live service with a closed-loop mix of establish/teardown/
fail/repair requests from ``concurrency`` connections — each sends its
next request only after the previous reply arrived, so a slow service
receives less load and at most ``concurrency`` requests are ever in
flight — honouring backpressure: a shed response triggers jittered exponential
backoff seeded by the server's ``retry_after`` hint, so a saturated
service sheds load instead of melting, and the generator keeps total
request count honest by retrying the shed request until admitted or
the retry budget runs out.

Client-side RNG is a seeded :class:`random.Random` instance — the
*request mix* is reproducible given a seed, while timing (backoff,
interleaving across connections) is intentionally real-world.  This is
a client/benchmark module and may read real time (exempt from lint
rule DET003 by path).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.service.protocol import decode_line, encode_line
from repro.service.telemetry import percentile

#: The dyadic bandwidth grid the twin tests use (exact in both cores).
B_MINS = (50.0, 100.0, 150.0)
INCREMENTS = (50.0, 100.0)


@dataclass(frozen=True)
class LoadgenConfig:
    """Campaign shape for one loadgen run.

    Attributes:
        host / port: Service address.
        total_requests: Admitted-request budget across all connections.
        concurrency: Parallel client connections.
        seed: Request-mix seed (reproducible mix, not timing).
        teardown_fraction: Probability a request tears down a live
            connection this client owns (when it owns any).
        failure_fraction: Probability a request is a link fail/repair
            toggle (exercises the failure path under load).
        deadline_ms: Per-request deadline budget sent to the server
            (``None`` = none).
        max_retries: Backoff attempts per shed request before counting
            it as dropped.
        backoff_base_s / backoff_cap_s: Exponential backoff bounds;
            the server's ``retry_after`` hint overrides the base when
            larger.
        reconnect_attempts: Bounded reconnects per client after a
            connection refusal/reset/EOF (a restarting or dead server)
            before the client gives up and the run reports ``aborted``.
        reconnect_base_s / reconnect_cap_s: Jittered exponential
            backoff bounds between reconnect attempts.
    """

    host: str = "127.0.0.1"
    port: int = 0
    total_requests: int = 1000
    concurrency: int = 8
    seed: int = 0
    teardown_fraction: float = 0.3
    failure_fraction: float = 0.05
    deadline_ms: Optional[float] = 250.0
    max_retries: int = 8
    backoff_base_s: float = 0.002
    backoff_cap_s: float = 0.5
    reconnect_attempts: int = 4
    reconnect_base_s: float = 0.05
    reconnect_cap_s: float = 1.0

    def __post_init__(self) -> None:
        if self.total_requests < 1 or self.concurrency < 1:
            raise SimulationError("total_requests and concurrency must be >= 1")


@dataclass
class LoadgenReport:
    """Aggregate outcome of one loadgen campaign."""

    sent: int = 0
    accepted: int = 0
    rejected: int = 0
    torn_down: int = 0
    failures_driven: int = 0
    shed: int = 0
    expired: int = 0
    errors: int = 0
    dropped_after_retries: int = 0
    retries: int = 0
    disconnects: int = 0
    reconnects: int = 0
    #: True when at least one client exhausted its reconnect budget —
    #: the server is gone; the other counters are partial but valid.
    aborted: bool = False
    client_latencies_s: List[float] = field(default_factory=list)
    service_stats: Dict[str, Any] = field(default_factory=dict)

    def latency_summary(self) -> Dict[str, float]:
        ordered = sorted(self.client_latencies_s)
        return {
            "count": float(len(ordered)),
            "p50_us": percentile(ordered, 0.50) * 1e6,
            "p99_us": percentile(ordered, 0.99) * 1e6,
        }


class _Client:
    """One connection worth of load (one request in flight at a time)."""

    def __init__(
        self,
        cfg: LoadgenConfig,
        rng: random.Random,
        report: LoadgenReport,
        num_nodes: int,
        link_pool: List[Tuple[int, int]],
    ) -> None:
        self.cfg = cfg
        self.rng = rng
        self.report = report
        self.num_nodes = num_nodes
        self.link_pool = link_pool
        self.owned: List[int] = []
        self.failed_links: List[Tuple[int, int]] = []
        self.next_id = 0

    def _make_request(self) -> Dict[str, Any]:
        self.next_id += 1
        base: Dict[str, Any] = {"id": self.next_id}
        if self.cfg.deadline_ms is not None:
            base["deadline_ms"] = self.cfg.deadline_ms
        roll = self.rng.random()
        if self.failed_links and roll < self.cfg.failure_fraction / 2:
            link = self.failed_links.pop(self.rng.randrange(len(self.failed_links)))
            return {**base, "op": "repair", "link": list(link)}
        if self.link_pool and roll < self.cfg.failure_fraction:
            link = self.rng.choice(self.link_pool)
            if link not in self.failed_links:
                self.failed_links.append(link)
                return {**base, "op": "fail", "link": list(link)}
        if self.owned and roll < self.cfg.failure_fraction + self.cfg.teardown_fraction:
            cid = self.owned.pop(self.rng.randrange(len(self.owned)))
            return {**base, "op": "teardown", "conn_id": cid}
        src = self.rng.randrange(self.num_nodes)
        dst = self.rng.randrange(self.num_nodes)
        while dst == src:
            dst = self.rng.randrange(self.num_nodes)
        b_min = self.rng.choice(B_MINS)
        inc = self.rng.choice(INCREMENTS)
        levels = self.rng.randrange(1, 5)
        qos = {
            "b_min": b_min,
            "b_max": b_min + inc * max(1, levels - 1),
            "increment": inc,
            "utility": float(self.rng.randrange(1, 4)),
            "backups": self.rng.choice((0, 1)),
        }
        return {**base, "op": "establish", "src": src, "dst": dst, "qos": qos}

    def _note_response(self, request: Dict[str, Any], response: Dict[str, Any]) -> None:
        r = self.report
        op = request["op"]
        if response.get("ok"):
            if op == "establish":
                result = response.get("result", {})
                if result.get("accepted"):
                    r.accepted += 1
                    if result.get("conn_id") is not None:
                        self.owned.append(result["conn_id"])
                else:
                    r.rejected += 1
            elif op == "teardown":
                r.torn_down += 1
            else:
                r.failures_driven += 1
            return
        code = response.get("error")
        if code == "deadline":
            r.expired += 1
        elif code in ("not-live", "link-state"):
            # Lost a race with another client (e.g. its teardown target
            # was dropped by a failure): a benign rejection.
            r.rejected += 1
        else:
            r.errors += 1
        if op == "fail" and request["link"] and tuple(request["link"]) in self.failed_links:
            self.failed_links.remove(tuple(request["link"]))

    async def _reconnect(
        self,
    ) -> Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
        """Bounded jittered reconnect after a refusal/reset/EOF."""
        cfg = self.cfg
        for attempt in range(cfg.reconnect_attempts):
            backoff = min(cfg.reconnect_cap_s, cfg.reconnect_base_s * (2.0**attempt))
            await asyncio.sleep(backoff * (0.5 + 0.5 * self.rng.random()))
            try:
                reader, writer = await asyncio.open_connection(cfg.host, cfg.port)
            except OSError:
                continue
            self.report.reconnects += 1
            return reader, writer
        return None

    async def run(self, budget: "asyncio.Semaphore", counter: List[int]) -> None:
        cfg = self.cfg
        loop = asyncio.get_running_loop()
        try:
            reader, writer = await asyncio.open_connection(cfg.host, cfg.port)
        except OSError:
            self.report.disconnects += 1
            fresh = await self._reconnect()
            if fresh is None:
                self.report.aborted = True
                return
            reader, writer = fresh
        try:
            while True:
                async with budget:
                    if counter[0] >= cfg.total_requests:
                        return
                    counter[0] += 1
                request = self._make_request()
                attempt = 0
                while True:
                    started = loop.time()
                    try:
                        writer.write(encode_line(request))
                        await writer.drain()
                        line = await reader.readline()
                        if not line:
                            raise ConnectionResetError("server closed connection")
                    except OSError:
                        # Mid-run server death: reconnect within budget
                        # and resend the in-flight request, else give up
                        # cleanly with whatever stats we gathered.
                        self.report.disconnects += 1
                        try:
                            writer.close()
                        except OSError:
                            pass
                        fresh = await self._reconnect()
                        if fresh is None:
                            self.report.aborted = True
                            return
                        reader, writer = fresh
                        continue
                    response = decode_line(line)
                    if response.get("error") == "shed":
                        self.report.shed += 1
                        if attempt >= cfg.max_retries:
                            self.report.dropped_after_retries += 1
                            break
                        hint = float(response.get("retry_after") or 0.0)
                        backoff = max(hint, cfg.backoff_base_s * (2.0**attempt))
                        backoff = min(backoff, cfg.backoff_cap_s)
                        # Full jitter: desynchronize the retrying herd.
                        await asyncio.sleep(backoff * self.rng.random())
                        attempt += 1
                        self.report.retries += 1
                        continue
                    self.report.sent += 1
                    self.report.client_latencies_s.append(loop.time() - started)
                    self._note_response(request, response)
                    break
        finally:
            try:
                writer.close()
            except OSError:
                pass


async def _query(host: str, port: int, what: str) -> Dict[str, Any]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_line({"op": "query", "id": 0, "what": what}))
        await writer.drain()
        return decode_line(await reader.readline())
    finally:
        writer.close()


async def run_loadgen(cfg: LoadgenConfig) -> LoadgenReport:
    """Drive one campaign against a running service.

    A server that is unreachable (or dies before answering the opening
    info query) yields ``report.aborted`` rather than an exception —
    the CLI turns that into a distinct non-zero exit with partial
    stats, never a traceback.
    """
    report = LoadgenReport()
    try:
        info = await _query(cfg.host, cfg.port, "info")
    except OSError:
        report.aborted = True
        return report
    if not info.get("ok"):
        raise SimulationError(f"service info query failed: {info}")
    num_nodes = int(info["result"]["num_nodes"])
    rng = random.Random(cfg.seed)
    # A small pool of real links for fail/repair churn.
    link_pool = [
        (int(u), int(v)) for u, v in info["result"].get("links_sample", [])[:4]
    ]
    clients = [
        _Client(cfg, random.Random(rng.randrange(2**63)), report, num_nodes, link_pool)
        for _ in range(cfg.concurrency)
    ]
    budget = asyncio.Semaphore(1)
    counter = [0]
    results = await asyncio.gather(
        *(c.run(budget, counter) for c in clients), return_exceptions=True
    )
    for outcome in results:
        if isinstance(outcome, BaseException):
            report.errors += 1
    try:
        stats = await _query(cfg.host, cfg.port, "stats")
    except OSError:
        # Server died after (or while) the campaign finished; partial
        # client-side stats are still the deliverable.
        report.aborted = True
        return report
    if stats.get("ok"):
        report.service_stats = stats["result"].get("service", {})
    return report


def run_loadgen_sync(cfg: LoadgenConfig) -> LoadgenReport:
    """Blocking wrapper (CLI entry point)."""
    return asyncio.run(run_loadgen(cfg))
