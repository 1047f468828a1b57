"""The asyncio serving shell around :class:`ServiceEngine`.

Single event loop, three layers:

* **connection handlers** parse frames, answer queries inline (safe:
  batch application is synchronous, so no query can observe a
  half-applied epoch), run the backpressure check, stamp deadlines and
  enqueue mutations with a per-request future;
* **the batcher task** drains up to ``batch_max`` queued requests,
  expires the ones already past their deadline, hands the rest to
  :meth:`ServiceEngine.apply_batch` (write-ahead log fsync, then the
  batch's events in order), resolves the futures and records decision
  latency;
* **lifecycle**: SIGTERM/SIGINT set the draining flag — the listener
  closes, queued work finishes, a shutdown marker lands in the WAL,
  still-attached clients are disconnected — and readiness flips to
  "draining" so probes see it.

**Degraded read-only mode.**  A WAL append/fsync failure
(:class:`~repro.service.wal.WALWriteError` — injected by chaos or a
genuinely sick disk) must not kill the service *or* silently break the
write-ahead contract.  The server drops to ``degraded``: queries keep
being answered, admissions are rejected with a ``degraded`` error and a
``retry_after`` hint, but *releasing* operations (teardown/fail/repair
— the ones that free capacity and carry failure-plane truth) are still
applied, journaled in memory instead of the WAL.  A probation loop
probes the disk every ``probe_interval_s``; after ``probation_probes``
consecutive successful probes the journal is flushed to the WAL (in
original sequence order, so the log stays gap-free) and admissions
re-arm.  The residual window is explicit: a hard crash while degraded
loses journaled-but-unflushed releasing ops (counted as
``journal_lost`` when detectable); every mutation acked in healthy mode
stays fsync-durable before its ack, and the degraded→healthy flip
itself loses nothing.

This module is the *timing* layer: it reads the loop clock for
deadlines and latency telemetry (exempt from lint rule DET003 by
path).  No clock value ever reaches the engine — shedding decisions
depend on queue depth, deadline expiry only turns a request into an
error *before* it is logged, so the WAL stays a pure function of the
admitted request sequence.
"""

from __future__ import annotations

import asyncio
import signal
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.parallel.jobs import TopologySpec
from repro.service.chaos import DiskFaultPlan, chaos_point
from repro.service.engine import EngineConfig, ServiceEngine
from repro.service.protocol import (
    ProtocolError,
    Request,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    parse_request,
)
from repro.service.replay import recover_engine
from repro.service.shedding import BackpressureConfig, admit_decision
from repro.service.telemetry import LatencyRecorder
from repro.service.wal import ReplayLogWriter, WALWriteError


def deadline_expired(deadline: Optional[float], now: float) -> bool:
    """Whether a queued request's deadline has passed.

    Boundary: ``now == deadline`` is *not* expired — the budget is the
    last instant the request may still be served.
    """
    return deadline is not None and now > deadline


@dataclass(frozen=True)
class DegradedConfig:
    """Degraded-mode / probation knobs.

    Attributes:
        probe_interval_s: How often the batcher probes a faulting WAL.
        probation_probes: Consecutive successful probes required before
            the journal is flushed and admissions re-arm (one success
            is "probation"; a disk that flaps mid-probation starts
            over).
        retry_after_s: Hint attached to ``degraded`` rejections.
        journal_limit: Max in-memory journaled releasing ops; beyond it
            even releasing ops are rejected (bounded memory, and a cap
            on the crash-while-degraded loss window).
    """

    probe_interval_s: float = 0.05
    probation_probes: int = 3
    retry_after_s: float = 0.25
    journal_limit: int = 4096


@dataclass
class ServiceConfig:
    """Everything one service instance needs.

    Attributes:
        topology: Network recipe (ignored on recovery — the WAL header
            wins, so a restart cannot silently change the network).
        wal_path: Replay-log location; an existing non-empty file
            triggers recovery-by-replay on startup.
        host / port: Listen address; port 0 lets the OS pick (the bound
            port is in :attr:`AdmissionService.port` and the startup
            announcement line).
        engine: Batching and manager knobs.
        backpressure: Queue bound and shedding thresholds.
        default_deadline_ms: Deadline applied to mutations that do not
            carry their own (``None`` = no implicit deadline).
        epoch_hold_s: Test-only pause between WAL fsync and epoch
            application, widening the durable-but-unapplied window so
            crash tests can land a SIGKILL mid-epoch deterministically.
        degraded: Degraded-mode probation policy.
        disk_faults: Optional injected WAL fault plan (chaos testing).
    """

    topology: TopologySpec
    wal_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0
    engine: EngineConfig = field(default_factory=EngineConfig)
    backpressure: BackpressureConfig = field(default_factory=BackpressureConfig)
    default_deadline_ms: Optional[float] = None
    epoch_hold_s: float = 0.0
    degraded: DegradedConfig = field(default_factory=DegradedConfig)
    disk_faults: Optional[DiskFaultPlan] = None


class _Pending:
    """One queued mutation awaiting its epoch."""

    __slots__ = ("request", "deadline", "enqueued", "future")

    def __init__(
        self,
        request: Request,
        deadline: Optional[float],
        enqueued: float,
        future: "asyncio.Future[Dict[str, Any]]",
    ) -> None:
        self.request = request
        self.deadline = deadline
        self.enqueued = enqueued
        self.future = future


class AdmissionService:
    """A running admission-control service instance."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.engine: Optional[ServiceEngine] = None
        self.latency = LatencyRecorder()
        self.shed_count = 0
        self.expired_count = 0
        self.port: Optional[int] = None
        self._queue: "asyncio.Queue[_Pending]" = asyncio.Queue()
        self._server: Optional[asyncio.AbstractServer] = None
        self._batcher: Optional[asyncio.Task] = None
        self._draining = False
        self._drained = asyncio.Event()
        #: Running connection handlers and the socket each one owns.
        self._clients: Dict["asyncio.Task[None]", asyncio.StreamWriter] = {}
        self.recovered = False
        #: WAL health state machine: healthy -> degraded -> probation -> healthy.
        self.mode = "healthy"
        self._journal: List[Tuple[int, Request]] = []
        self._probe_ok = 0
        self.wal_fault_count = 0
        self.rearm_count = 0
        self.degraded_rejects = 0
        self.journal_flushed_total = 0
        self.journal_lost = 0
        self.last_fault: Optional[str] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _build_engine(self) -> ServiceEngine:
        cfg = self.config
        if cfg.wal_path is None:
            return ServiceEngine(cfg.topology, cfg.engine, wal=None)
        import os

        if os.path.exists(cfg.wal_path) and os.path.getsize(cfg.wal_path) > 0:
            self.recovered = True
            return recover_engine(
                cfg.wal_path,
                batch_max=cfg.engine.batch_max,
                disk_faults=cfg.disk_faults,
            )
        wal = ReplayLogWriter(
            cfg.wal_path,
            cfg.topology,
            manager_kwargs=cfg.engine.manager_kwargs,
            disk_faults=cfg.disk_faults,
        )
        return ServiceEngine(cfg.topology, cfg.engine, wal=wal)

    async def start(self, install_signals: bool = False) -> None:
        """Build/recover the engine, bind the socket, start batching."""
        if self.engine is not None:
            raise SimulationError("service already started")
        self.engine = self._build_engine()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._batcher = asyncio.create_task(self._batch_loop())
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self.initiate_drain)

    def initiate_drain(self) -> None:
        """Stop accepting work; queued requests still get answers."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        # Wake the batcher even when the queue is empty.
        loop = asyncio.get_running_loop()
        loop.call_soon(self._queue.put_nowait, _DRAIN_SENTINEL)

    async def drained(self) -> None:
        """Wait until the drain (started via :meth:`initiate_drain`) ends
        and the clients still attached have been disconnected.

        A handler left parked in ``readline()`` would be cancelled when
        the loop is torn down, which asyncio's stream callback logs as a
        ``CancelledError`` traceback.  Closing its socket makes the read
        return EOF so the handler exits on its own.  Replies to the last
        epoch are already written by then: their futures were resolved
        before the drained event was set and the loop wakes tasks in
        that order; ``close()`` flushes what is still buffered.
        """
        await self._drained.wait()
        for writer in self._clients.values():
            writer.close()
        if self._clients:
            # Bounded: a peer that never reads its replies must not be
            # able to hold the shutdown hostage.
            await asyncio.wait(list(self._clients), timeout=_CLIENT_EXIT_GRACE_S)

    async def run_until_drained(self, install_signals: bool = True) -> None:
        """Convenience: start, then serve until drained (CLI entry)."""
        await self.start(install_signals=install_signals)
        await self.drained()
        if self._server is not None:
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Chaos-proxy clients misbehave in every way a real network can:
        # reset mid-write (ConnectionResetError/BrokenPipeError, both
        # OSError), half-close, and send unterminated garbage longer
        # than the stream limit (readline raises ValueError wrapping
        # LimitOverrunError).  All of it ends this one connection;
        # none of it may escape to the loop or touch the batcher.
        task = asyncio.current_task()
        assert task is not None
        self._clients[task] = writer
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = await self._handle_frame(line)
                writer.write(encode_line(response))
                await writer.drain()
        except (OSError, ValueError, asyncio.LimitOverrunError, asyncio.IncompleteReadError):
            pass
        finally:
            del self._clients[task]
            try:
                writer.close()
            except OSError:
                pass

    async def _handle_frame(self, line: bytes) -> Dict[str, Any]:
        assert self.engine is not None
        req_id: Any = None
        try:
            obj = decode_line(line)
            if isinstance(obj, dict):
                req_id = obj.get("id")
            request = parse_request(obj)
        except ProtocolError as exc:
            return error_response(req_id, "bad-request", str(exc))
        if not request.is_mutation:
            if request.what == "ready":
                if self._draining:
                    return error_response(request.req_id, "shutting-down", "draining")
                if self.mode != "healthy":
                    return error_response(
                        request.req_id,
                        "degraded",
                        f"WAL is {self.mode}: {self.last_fault}",
                        self.config.degraded.retry_after_s,
                    )
            if request.what == "health":
                return ok_response(
                    request.req_id,
                    {
                        "status": "ok" if self.mode == "healthy" else self.mode,
                        "seq": self.engine.seq,
                        "mode": self.mode,
                        "journal": len(self._journal),
                    },
                )
            try:
                result = self.engine.query(request)
                if request.what == "stats":
                    result["result"]["service"] = self.service_stats()
                return result
            except Exception as exc:
                return error_response(request.req_id, "internal", str(exc))
        if self._draining:
            return error_response(
                request.req_id, "shutting-down", "service is draining"
            )
        if self.mode != "healthy" and (
            request.op == "establish"
            or len(self._journal) >= self.config.degraded.journal_limit
        ):
            # Fast-path rejection; the batcher re-checks at apply time,
            # so a mode flip between here and there is still handled.
            self.degraded_rejects += 1
            return error_response(
                request.req_id,
                "degraded",
                f"WAL is {self.mode}; admissions suspended ({self.last_fault})",
                self.config.degraded.retry_after_s,
            )
        decision = admit_decision(
            self.config.backpressure, self._queue.qsize(), request
        )
        if not decision.admit:
            self.shed_count += 1
            return error_response(
                request.req_id, "shed", decision.reason, decision.retry_after
            )
        loop = asyncio.get_running_loop()
        now = loop.time()
        deadline_ms = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self.config.default_deadline_ms
        )
        deadline = None if deadline_ms is None else now + deadline_ms / 1000.0
        pending = _Pending(request, deadline, now, loop.create_future())
        self._queue.put_nowait(pending)
        return await pending.future

    # ------------------------------------------------------------------
    # batching
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        assert self.engine is not None
        loop = asyncio.get_running_loop()
        batch_max = self.engine.config.batch_max
        while True:
            if self.mode != "healthy" and not self._draining:
                # Degraded: keep draining the queue, but wake on a timer
                # so the disk is probed (and the journal flushed) even
                # with no traffic at all.
                try:
                    first = await asyncio.wait_for(
                        self._queue.get(), self.config.degraded.probe_interval_s
                    )
                except asyncio.TimeoutError:
                    self._probe_wal()
                    continue
            else:
                first = await self._queue.get()
            items: List[_Pending] = [] if first is _DRAIN_SENTINEL else [first]
            while len(items) < batch_max:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is not _DRAIN_SENTINEL:
                    items.append(extra)
            live: List[_Pending] = []
            now = loop.time()
            for item in items:
                if deadline_expired(item.deadline, now):
                    self.expired_count += 1
                    item.future.set_result(
                        error_response(
                            item.request.req_id,
                            "deadline",
                            "expired in queue past its deadline budget",
                        )
                    )
                else:
                    live.append(item)
            if live:
                responses = await self._apply_live([p.request for p in live])
                done = loop.time()
                chaos_point("pre-reply")
                for item, response in zip(live, responses):
                    self.latency.record(done - item.enqueued)
                    if not item.future.done():
                        item.future.set_result(response)
            if self._draining and self._queue.empty():
                self._finish_drain()
                return

    async def _apply_live(self, batch: List[Request]) -> List[Dict[str, Any]]:
        """Apply one batch, degrading (not dying) on a WAL fault."""
        assert self.engine is not None
        if self.mode != "healthy":
            return self._apply_degraded(batch)
        try:
            if self.config.epoch_hold_s > 0.0:
                # Crash-test hook: log write-ahead, then linger with
                # the epoch durable-but-unapplied.
                to_apply = [
                    (self.engine.seq + i, r)
                    for i, r in enumerate(
                        r for r in batch if self.engine.validate(r) is None
                    )
                ]
                if self.engine.wal is not None:
                    self.engine.wal.log_events(to_apply)
                    await asyncio.sleep(self.config.epoch_hold_s)
                    # The engine will re-log the same events; rewind
                    # is impossible on an append-only file, so make
                    # the engine skip its own log call instead.
                    return self._apply_prelogged(batch)
                await asyncio.sleep(self.config.epoch_hold_s)
                return self.engine.apply_batch(batch)
            return self.engine.apply_batch(batch)
        except WALWriteError as exc:
            # Nothing of this batch was applied (write-ahead discipline:
            # the engine rolls its sequence numbers back), so rerouting
            # the whole batch through the degraded path is exact.
            self._enter_degraded(str(exc))
            return self._apply_degraded(batch)

    def _apply_degraded(self, batch: List[Request]) -> List[Dict[str, Any]]:
        """Read-only mode: journal releasing ops, reject admissions."""
        assert self.engine is not None
        journal_full = (
            len(self._journal) + len(batch) > self.config.degraded.journal_limit
        )
        slots: List[Optional[Dict[str, Any]]] = []
        releasing: List[Request] = []
        for request in batch:
            if request.op == "establish" or journal_full:
                self.degraded_rejects += 1
                slots.append(
                    error_response(
                        request.req_id,
                        "degraded",
                        f"WAL is {self.mode}; admissions suspended "
                        f"({self.last_fault})",
                        self.config.degraded.retry_after_s,
                    )
                )
            else:
                releasing.append(request)
                slots.append(None)
        if releasing:
            sub = iter(self.engine.apply_batch(releasing, journal=self._journal))
            slots = [slot if slot is not None else next(sub) for slot in slots]
        return [slot for slot in slots if slot is not None]

    def _enter_degraded(self, reason: str) -> None:
        self.wal_fault_count += 1
        self.last_fault = reason
        self.mode = "degraded"
        self._probe_ok = 0
        # Truncate unsynced garbage immediately if the disk lets us; if
        # not, the probation loop keeps trying.
        if self.engine is not None and self.engine.wal is not None:
            self.engine.wal.repair()

    def _probe_wal(self) -> None:
        """One probation probe; re-arms after enough consecutive successes."""
        assert self.engine is not None
        wal = self.engine.wal
        if wal is None:
            self.mode = "healthy"
            return
        if wal.probe():
            self.mode = "probation"
            self._probe_ok += 1
            if self._probe_ok >= self.config.degraded.probation_probes:
                self._rearm()
        else:
            self.mode = "degraded"
            self._probe_ok = 0

    def _rearm(self) -> None:
        """Flush the journal to the recovered WAL and resume admissions.

        Flushing before the flip is what makes the degraded→healthy
        transition lossless: every acked releasing op becomes durable
        (in original sequence order) before any new admission can be
        logged after it.
        """
        assert self.engine is not None and self.engine.wal is not None
        wal = self.engine.wal
        try:
            if self._journal:
                wal.log_events(self._journal)
                wal.log_epoch(self._journal[-1][0])
                self.journal_flushed_total += len(self._journal)
                self._journal.clear()
        except WALWriteError as exc:
            self._enter_degraded(f"journal flush failed: {exc}")
            return
        self.mode = "healthy"
        self._probe_ok = 0
        self.rearm_count += 1

    def _apply_prelogged(self, batch: List[Request]) -> List[Dict[str, Any]]:
        """Apply a batch whose events were already durably logged."""
        assert self.engine is not None
        wal = self.engine.wal
        self.engine.wal = None
        try:
            responses = self.engine.apply_batch(batch)
        finally:
            self.engine.wal = wal
        if wal is not None:
            wal.log_epoch(self.engine.seq - 1)
        return responses

    def _finish_drain(self) -> None:
        assert self.engine is not None
        chaos_point("mid-drain")
        wal = self.engine.wal
        if wal is not None:
            try:
                if self.mode != "healthy" or wal.dirty:
                    if not wal.probe():
                        raise WALWriteError("WAL still faulting at drain")
                if self._journal:
                    wal.log_events(self._journal)
                    self.journal_flushed_total += len(self._journal)
                    self._journal.clear()
                    self.mode = "healthy"
                wal.log_shutdown(self.engine.seq - 1)
            except WALWriteError as exc:
                # Last resort: the disk refused to the very end.  The
                # journaled releasing ops are lost; say so loudly in the
                # stats rather than pretending the drain was clean.
                self.journal_lost = len(self._journal)
                self.last_fault = f"drain flush failed: {exc}"
        self.engine.close()
        self._drained.set()

    # ------------------------------------------------------------------
    def service_stats(self) -> Dict[str, Any]:
        """Service-plane counters and latency summary."""
        return {
            "queue_depth": self._queue.qsize(),
            "shed": self.shed_count,
            "expired": self.expired_count,
            "draining": self._draining,
            "recovered": self.recovered,
            "mode": self.mode,
            "wal_faults": self.wal_fault_count,
            "rearms": self.rearm_count,
            "degraded_rejects": self.degraded_rejects,
            "journal_depth": len(self._journal),
            "journal_flushed": self.journal_flushed_total,
            "journal_lost": self.journal_lost,
            "last_fault": self.last_fault,
            "latency": self.latency.summary(),
        }


#: How long :meth:`AdmissionService.drained` waits for disconnected
#: clients' handlers to exit.
_CLIENT_EXIT_GRACE_S = 1.0

#: Queue sentinel used to wake the batcher during drain.
_DRAIN_SENTINEL: Any = _Pending(
    Request(op="query", req_id=None, what="health"), None, 0.0, None  # type: ignore[arg-type]
)
