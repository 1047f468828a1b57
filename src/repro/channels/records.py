"""Connection records and event-impact reports.

A :class:`DRConnection` bundles everything the network knows about one
dependable real-time connection: its QoS contract, its primary and
backup routes, its current elastic level and its lifecycle state.
:class:`EventImpact` captures what one network event (arrival,
termination, failure) did to the *other* channels — the raw material
for estimating the Markov model's ``Pf, Ps, A, B, T`` parameters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.qos.spec import ConnectionQoS, ElasticQoS
from repro.topology.graph import LinkId

#: Route-selection engines the managers support.
ROUTING_ENGINES = ("dijkstra", "flooding")

#: Sentinel conflict set used when backup multiplexing is disabled: all
#: backups "conflict" on this pseudo failure link, so their reservations
#: add up instead of sharing (see ``multiplex_backups`` on the managers).
_UNIVERSAL_CONFLICT: FrozenSet[LinkId] = frozenset({(-1, -1)})


class ConnectionState(enum.Enum):
    """Lifecycle of a DR-connection."""

    #: Primary carrying traffic, backup (if any) in reserve.
    ACTIVE = "active"
    #: Primary lost to a failure; traffic now on the activated backup.
    FAILED_OVER = "failed-over"
    #: Lost to a failure that could not be recovered (no/unusable backup).
    DROPPED = "dropped"
    #: Ended normally by the client.
    TERMINATED = "terminated"


@dataclass
class DRConnection:
    """One dependable real-time connection.

    Attributes:
        conn_id: Unique identifier assigned by the manager.
        source: Client's node.
        destination: Receiver's node.
        qos: The full QoS contract (elastic performance + dependability).
        primary_path: Node route of the primary channel.
        primary_links: Canonical link ids of the primary route.
        backup_path: Node route of the backup channel (``None`` when the
            connection is currently unprotected).
        backup_links: Link ids of the backup route.
        backup_overlap: Links the backup shares with the primary (0 when
            fully disjoint; >0 only for maximally-disjoint backups).
        level: Current elastic level of the live channel (0 = minimum).
        state: Lifecycle state.
        on_backup: True once traffic moved to the activated backup; an
            activated backup runs at its minimum bandwidth and does not
            participate in elastic raises ("only minimum required ...
            remain unchanged for backups").
        established_at: Simulation time of establishment (stats only).
    """

    conn_id: int
    source: int
    destination: int
    qos: ConnectionQoS
    primary_path: List[int]
    primary_links: List[LinkId]
    backup_path: Optional[List[int]] = None
    backup_links: Optional[List[LinkId]] = None
    backup_overlap: int = 0
    level: int = 0
    state: ConnectionState = ConnectionState.ACTIVE
    on_backup: bool = False
    established_at: float = 0.0
    @property
    def elastic_qos(self) -> ElasticQoS:
        """The performance part of the contract (engine protocol hook)."""
        return self.qos.performance

    @property
    def is_live(self) -> bool:
        """Whether the connection is currently carrying traffic."""
        return self.state in (ConnectionState.ACTIVE, ConnectionState.FAILED_OVER)

    @property
    def is_elastic_participant(self) -> bool:
        """Whether the connection competes for elastic extras."""
        return (
            self.state is ConnectionState.ACTIVE
            and not self.on_backup
            and self.qos.performance.is_elastic()
        )

    @property
    def has_backup(self) -> bool:
        """Whether an (inactive) backup is currently reserved."""
        return self.backup_links is not None and not self.on_backup

    @property
    def bandwidth(self) -> float:
        """Bandwidth currently reserved for the live channel.

        Computed inline rather than via ``level_bandwidth``: ``level`` is
        maintained by the manager and always valid, and this property is
        read for every live connection at every measurement sample, so
        the range check there is pure overhead here.
        """
        perf = self.qos.performance
        if self.on_backup:
            return perf.b_min
        return perf.b_min + self.level * perf.increment

    @property
    def live_links(self) -> List[LinkId]:
        """Links of whichever route currently carries traffic."""
        if self.on_backup:
            assert self.backup_links is not None
            return self.backup_links
        return self.primary_links


class EventKind(enum.Enum):
    """Network events that perturb existing channels."""

    ARRIVAL = "arrival"
    TERMINATION = "termination"
    FAILURE = "failure"
    REPAIR = "repair"


@dataclass
class EventImpact:
    """What one network event did to pre-existing primary channels.

    ``direct`` holds the level transition ``(before, after)`` of every
    *directly-chained* channel — one sharing at least a link with the
    event's channel (for failures: with any activated backup, per the
    paper's retreat rule).  ``indirect_changed`` holds transitions of
    channels that rose without being directly chained; the full indirect
    set is only known on sampled events (see the estimator), so
    unchanged indirect channels are not listed here.
    """

    kind: EventKind
    time: float = 0.0
    conn_id: Optional[int] = None
    accepted: bool = True
    direct: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    indirect_changed: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: Failure-specific outcome lists (connection ids).
    failed_link: Optional[LinkId] = None
    activated: List[int] = field(default_factory=list)
    dropped: List[int] = field(default_factory=list)
    lost_backup: List[int] = field(default_factory=list)
    #: Every link failed by this event.  Single-link failures keep
    #: ``failed_link`` set as before; node failures and correlated
    #: bursts fail several links atomically and list them all here.
    failed_links: List[LinkId] = field(default_factory=list)
    #: Node whose failure caused this event (node-failure injector).
    failed_node: Optional[int] = None
    #: Connections whose backup activation itself failed (injected
    #: backup-activation fault); each is also listed in ``dropped``.
    activation_faults: List[int] = field(default_factory=list)

    def merge_change(self, conn_id: int, before: int, after: int, direct: bool) -> None:
        """Record one channel's net level change for this event."""
        table = self.direct if direct else self.indirect_changed
        if conn_id in table:
            first_before, _ = table[conn_id]
            table[conn_id] = (first_before, after)
        else:
            table[conn_id] = (before, after)


@dataclass
class ManagerStats:
    """Lifetime counters of a network manager."""

    requests: int = 0
    accepted: int = 0
    rejected_no_primary: int = 0
    rejected_no_backup: int = 0
    terminated: int = 0
    link_failures: int = 0
    link_repairs: int = 0
    backups_activated: int = 0
    connections_dropped: int = 0
    backups_lost: int = 0
    backups_reestablished: int = 0
    #: Whole-node failures applied via ``fail_node`` (each also counts
    #: its incident links in ``link_failures``).
    node_failures: int = 0
    #: Connections that *had* a backup and were dropped by a failure
    #: anyway: the backup path was concurrently dead, no longer fit, or
    #: its activation was hit by an injected activation fault — the
    #: double-failure regime outside the paper's single-failure model.
    double_failure_drops: int = 0
    #: Backup activations that failed due to an injected activation
    #: fault (subset of ``double_failure_drops``).
    activation_faults: int = 0

    @property
    def rejected(self) -> int:
        """Total rejected requests."""
        return self.rejected_no_primary + self.rejected_no_backup

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of requests accepted (1.0 when none seen)."""
        return self.accepted / self.requests if self.requests else 1.0
