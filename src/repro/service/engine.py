"""Deterministic admission engine: validated requests -> manager events.

:class:`ServiceEngine` is the piece both the live server and offline
recovery share.  It owns one manager (built by
:func:`~repro.channels.make_manager`), assigns the global event
sequence, validates requests *before* they reach the write-ahead log
(so the log only ever contains events that apply deterministically),
applies them a batch at a time — one WAL append + fsync per batch,
each event filling as it happens — and shapes responses.

Determinism contract (what makes `kill -9` recovery bitwise-exact):

* No wall clock, no RNG.  The manager's event timestamp is the event's
  sequence number (``manager.now = float(seq)``), so impact records and
  any derived traces are functions of the request sequence alone.
* Validation is a pure function of current manager state; an event is
  only logged once it is known to apply (establish requests may still
  be *rejected* by admission control — a rejection is itself a
  deterministic outcome and is logged, so replay reproduces the
  rejected sequence numbers too).
* A batch is applied event by event in log order, so the state after
  it is the sequential state by construction: recovery replays a log
  one event at a time and lands on the state the batched live run
  reached, whatever the live batch boundaries were.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.channels import make_manager
from repro.channels.digest import manager_state_digest
from repro.errors import ReproError, SimulationError
from repro.parallel.jobs import TopologySpec
from repro.service.chaos import chaos_point
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Request,
    error_response,
    ok_response,
)
from repro.service.wal import MANAGER_KWARG_KEYS, ReplayLogWriter, WALWriteError


@dataclass(frozen=True)
class EngineConfig:
    """Engine construction knobs.

    Attributes:
        batch_max: Largest batch one epoch (one WAL append + fsync) may
            absorb; the server drains at most this many queued requests
            per epoch.
        manager_kwargs: Forwarded to :func:`~repro.channels.make_manager`
            (``policy``, ``routing``, ...); recorded in the WAL header
            so recovery rebuilds the same manager.
    """

    batch_max: int = 64
    manager_kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.batch_max < 1:
            raise SimulationError(f"batch_max must be >= 1, got {self.batch_max}")
        unknown = set(self.manager_kwargs) - set(MANAGER_KWARG_KEYS)
        if unknown:
            raise SimulationError(
                f"unknown manager kwargs {sorted(unknown)}; "
                f"choose from {MANAGER_KWARG_KEYS}"
            )


class ServiceEngine:
    """One manager plus the WAL discipline around it.

    Not thread-safe; the asyncio server applies batches from a single
    task, and replay is single-threaded by construction.
    """

    def __init__(
        self,
        topology: TopologySpec,
        config: Optional[EngineConfig] = None,
        wal: Optional[ReplayLogWriter] = None,
    ) -> None:
        self.topology = topology
        self.config = config or EngineConfig()
        self.net = topology.build()
        self.manager = make_manager(self.net, **self.config.manager_kwargs)
        # Responses are shaped from accepted / conn_id / activated /
        # dropped alone; nothing here reads level trajectories.
        self.manager.record_trajectories = False
        self.wal = wal
        #: Next event sequence number (== number of events ever applied).
        self.seq = 0

    # ------------------------------------------------------------------
    # validation (pure, pre-WAL)
    # ------------------------------------------------------------------
    def validate(self, request: Request) -> Optional[Tuple[str, str]]:
        """``None`` when the mutation may be logged+applied, else
        ``(error_code, message)``.

        Cheap checks only — full admission control runs at apply time.
        The point is that anything passing here applies without raising,
        so the WAL never records an event whose apply outcome could
        depend on *when* we crashed.
        """
        if request.op == "establish":
            for node in (request.src, request.dst):
                if not self.net.has_node(node):
                    return "bad-request", f"unknown node {node}"
            if request.src == request.dst:
                return "bad-request", "src and dst must differ"
            return None
        if request.op == "teardown":
            if not self.manager.is_live(request.conn_id):
                return "not-live", f"connection {request.conn_id} is not live"
            return None
        # fail / repair
        assert request.link is not None
        u, v = request.link
        if not self.net.has_link(u, v):
            return "bad-request", f"no link {list(request.link)}"
        failed = self.manager.state.is_failed(request.link)
        if request.op == "fail" and failed:
            return "link-state", f"link {list(request.link)} is already failed"
        if request.op == "repair" and not failed:
            return "link-state", f"link {list(request.link)} is not failed"
        return None

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def _apply_one(self, seq: int, request: Request) -> Dict[str, Any]:
        """Apply one durably-logged mutation; returns the result body."""
        self.manager.now = float(seq)
        if request.op == "establish":
            assert request.qos is not None
            _, impact = self.manager.request_connection(
                request.src, request.dst, request.qos
            )
            return {
                "seq": seq,
                "accepted": impact.accepted,
                "conn_id": impact.conn_id if impact.accepted else None,
            }
        if request.op == "teardown":
            self.manager.terminate_connection(request.conn_id)
            return {"seq": seq, "conn_id": request.conn_id}
        if request.op == "fail":
            impact = self.manager.fail_link(request.link)
            return {
                "seq": seq,
                "link": list(request.link or ()),
                "activated": list(impact.activated),
                "dropped": list(impact.dropped),
            }
        self.manager.repair_link(request.link)
        return {"seq": seq, "link": list(request.link or ())}

    def apply_batch(
        self,
        batch: List[Request],
        journal: Optional[List[Tuple[int, Request]]] = None,
    ) -> List[Dict[str, Any]]:
        """Validate, durably log, then apply one batch of mutations.

        Returns one response envelope per request, in order.  Requests
        failing validation are answered with an error and *not* logged;
        the rest are logged write-ahead (single fsync for the whole
        batch), applied in order, and answered from their impact records.

        With ``journal`` set (degraded mode), the WAL is not touched:
        the batch's ``(seq, request)`` pairs are appended to the journal
        instead, to be flushed to the WAL when the disk recovers, and no
        epoch marker is written.  If the WAL append itself fails, the
        assigned sequence numbers are rolled back before the
        :class:`~repro.service.wal.WALWriteError` propagates — nothing
        was applied, so the numbers must be reusable by the degraded
        path or the live log would have a hole.
        """
        to_apply: List[Tuple[int, Request]] = []
        slots: List[Optional[Dict[str, Any]]] = []
        for request in batch:
            problem = self.validate(request)
            if problem is not None:
                code, message = problem
                slots.append(error_response(request.req_id, code, message))
                continue
            to_apply.append((self.seq, request))
            self.seq += 1
            slots.append(None)
        if journal is not None:
            journal.extend(to_apply)
        elif self.wal is not None:
            try:
                self.wal.log_events(to_apply)
            except WALWriteError:
                self.seq -= len(to_apply)
                raise
        responses: List[Dict[str, Any]] = []
        apply_iter = iter(to_apply)
        for request, slot in zip(batch, slots):
            if slot is not None:
                responses.append(slot)
                continue
            seq, _ = next(apply_iter)
            chaos_point("mid-epoch")
            try:
                responses.append(ok_response(request.req_id, self._apply_one(seq, request)))
            except ReproError as exc:
                # Deterministic, non-mutating apply failure: an earlier
                # event in this very batch invalidated the target (e.g. a
                # failure dropped the connection a later teardown names).
                # Replay rejects the same event at validation, reaching
                # the same state.
                problem = self.validate(request)
                code, message = problem if problem else ("internal", str(exc))
                responses.append(error_response(request.req_id, code, message))
        if journal is None and self.wal is not None and to_apply:
            self.wal.log_epoch(to_apply[-1][0])
        return responses

    def apply_sequential(self, request: Request) -> Dict[str, Any]:
        """Single-request flavour of :meth:`apply_batch` (replay path)."""
        return self.apply_batch([request])[0]

    # ------------------------------------------------------------------
    # queries (read-only, answered off-queue)
    # ------------------------------------------------------------------
    def query(self, request: Request) -> Dict[str, Any]:
        """Answer one read-only query against current state."""
        what = request.what
        if what in ("health", "ready"):
            return ok_response(request.req_id, {"status": "ok", "seq": self.seq})
        if what == "info":
            return ok_response(
                request.req_id,
                {
                    "protocol": PROTOCOL_VERSION,
                    "batch_max": self.config.batch_max,
                    "topology": self.topology.kind,
                    "num_nodes": self.net.num_nodes,
                    "num_links": self.net.num_links,
                    "links_sample": [list(lid) for lid in self.net.link_ids()[:8]],
                    "seq": self.seq,
                },
            )
        if what == "stats":
            return ok_response(
                request.req_id,
                {
                    "seq": self.seq,
                    "num_live": self.manager.num_live,
                    "average_live_bandwidth": self.manager.average_live_bandwidth(),
                    "manager": vars(self.manager.stats).copy(),
                },
            )
        if what == "digest":
            return ok_response(
                request.req_id,
                {"seq": self.seq, "digest": manager_state_digest(self.manager)},
            )
        # connection
        if not self.manager.is_live(request.conn_id):
            return error_response(
                request.req_id, "not-live", f"connection {request.conn_id} is not live"
            )
        conn = self.manager.connection(request.conn_id)
        return ok_response(
            request.req_id,
            {
                "conn_id": request.conn_id,
                "level": conn.level,
                "bandwidth": conn.bandwidth,
                "on_backup": conn.on_backup,
                "primary_path": list(conn.primary_path),
            },
        )

    def digest(self) -> str:
        """Bitwise state digest (see :mod:`repro.channels.digest`)."""
        return manager_state_digest(self.manager)

    def close(self) -> None:
        """Close the WAL and drop the route memo; state stays readable."""
        if self.wal is not None:
            self.wal.close()
        if self.manager.route_cache is not None:
            self.manager.route_cache.clear()
