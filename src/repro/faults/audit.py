"""Run-time invariant auditing for fault-injected simulations.

Fault injection makes *when* to run the manager's full invariant
checker part of the experiment design; :class:`AuditPolicy` is the one
setting that says so (``SimulationConfig(audit=...)``):

* ``every_n_events`` — periodic audits every N events;
* ``after_failure`` — audit immediately after every failure event, the
  natural cadence for failure-heavy campaigns (every recovery path just
  exercised gets cross-checked before the next event builds on it).

The :class:`Auditor` keeps a bounded tail of compact per-event records;
when a check trips, it raises :class:`~repro.errors.AuditError` carrying
that tail, so a dead campaign job can be post-mortemed from the
exception alone — no re-run, no full trace recording.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.channels.records import EventImpact
from repro.errors import AuditError, FaultInjectionError, ReproError


@dataclass(frozen=True)
class AuditPolicy:
    """When to run the full invariant audit during a simulation.

    Attributes:
        every_n_events: Audit after every N-th event (0 = no periodic
            audits).
        after_failure: Also audit immediately after every failure event.
        trace_tail: How many recent events to keep for the post-mortem
            tail attached to :class:`~repro.errors.AuditError`.
    """

    every_n_events: int = 0
    after_failure: bool = False
    trace_tail: int = 32

    def __post_init__(self) -> None:
        if self.every_n_events < 0:
            raise FaultInjectionError(
                f"every_n_events must be non-negative, got {self.every_n_events}"
            )
        if self.trace_tail < 1:
            raise FaultInjectionError(
                f"trace_tail must be positive, got {self.trace_tail}"
            )

    @property
    def enabled(self) -> bool:
        """Whether this policy ever audits anything."""
        return self.every_n_events > 0 or self.after_failure


@dataclass(frozen=True)
class AuditTrailEntry:
    """One compact event record in the auditor's bounded tail."""

    index: int
    time: float
    category: str
    conn_id: Optional[int]
    failed_links: Tuple
    dropped: Tuple
    activated: Tuple
    activation_faults: Tuple

    def __str__(self) -> str:
        parts = [f"#{self.index} t={self.time:.3f} {self.category}"]
        if self.conn_id is not None:
            parts.append(f"conn={self.conn_id}")
        if self.failed_links:
            parts.append(f"failed={list(self.failed_links)}")
        if self.activated:
            parts.append(f"activated={list(self.activated)}")
        if self.dropped:
            parts.append(f"dropped={list(self.dropped)}")
        if self.activation_faults:
            parts.append(f"activation_faults={list(self.activation_faults)}")
        return " ".join(parts)


class Auditor:
    """Applies an :class:`AuditPolicy` to a running simulation."""

    def __init__(self, policy: AuditPolicy, manager) -> None:
        self.policy = policy
        self.manager = manager
        self.tail: Deque[AuditTrailEntry] = deque(maxlen=policy.trace_tail)
        self.checks_run = 0

    def observe(
        self, event_index: int, category: str, impact: Optional[EventImpact]
    ) -> None:
        """Record one event and audit if the policy says so.

        Raises:
            AuditError: when the invariant check fails; carries the
                recorded event tail and the failing event index.
        """
        if impact is not None:
            self.tail.append(
                AuditTrailEntry(
                    index=event_index,
                    time=impact.time,
                    category=category,
                    conn_id=impact.conn_id,
                    failed_links=tuple(impact.failed_links)
                    or ((impact.failed_link,) if impact.failed_link else ()),
                    dropped=tuple(impact.dropped),
                    activated=tuple(impact.activated),
                    activation_faults=tuple(impact.activation_faults),
                )
            )
        else:
            self.tail.append(
                AuditTrailEntry(
                    index=event_index,
                    time=float("nan"),
                    category=f"{category} (no-op)",
                    conn_id=None,
                    failed_links=(),
                    dropped=(),
                    activated=(),
                    activation_faults=(),
                )
            )
        due = self.policy.after_failure and category == "failure"
        if not due and self.policy.every_n_events:
            due = (event_index + 1) % self.policy.every_n_events == 0
        if due:
            self.check(event_index)

    def check(self, event_index: int) -> None:
        """Run the full invariant audit now (also callable directly)."""
        self.checks_run += 1
        try:
            self.manager.check_invariants()
        except ReproError as exc:
            tail = list(self.tail)
            trail_text = "\n  ".join(str(entry) for entry in tail) or "(empty)"
            raise AuditError(
                f"invariant audit failed after event {event_index}: {exc}\n"
                f"event trail (most recent last):\n  {trail_text}",
                trace_tail=tail,
                event_index=event_index,
            ) from exc
