"""The reference DR-connection manager: §3.1 of the paper, written plainly.

The production core is :class:`~repro.channels.ArrayNetworkManager`
(NumPy columns, integer handles, a route memo, a three-tier fill).
This module states the same rules once more the slow, obvious way, so
that the production core has something independent to be checked
against: a dict of :class:`Link` records, connections as
:class:`~repro.channels.records.DRConnection` objects, every route
searched afresh (admission-filtered BFS for the primary, the
link-disjoint search with its maximally-disjoint fallback for the
backup), and a fill that grants one increment at a time to whichever
raisable channel the adaptation policy ranks first.  No NumPy, no
caches.

Its users are the twin suite (``tests/channels/test_twin_managers.py``),
``repro replay --cross-check`` and the chaos soak's fourth digest
(:func:`repro.service.replay.reference_replay_digest`).  Driven through
the same events, the two managers agree bit for bit on the paper's
dyadic bandwidth grid: routes, grants, drops, impacts, statistics and
every per-link float.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.channels.records import (
    _UNIVERSAL_CONFLICT,
    ROUTING_ENGINES,
    ConnectionState,
    DRConnection,
    EventImpact,
    EventKind,
    ManagerStats,
)
from repro.elastic.policies import AdaptationPolicy, EqualShare
from repro.errors import (
    AdmissionError,
    FaultInjectionError,
    ReservationError,
    SimulationError,
    TopologyError,
)
from repro.qos.spec import ConnectionQoS
from repro.routing.disjoint import disjoint_path
from repro.routing.flooding import flooding_route_pair
from repro.routing.shortest import _check_endpoints, bfs_path_rows
from repro.topology.graph import Link as TopologyLink
from repro.topology.graph import LinkId, Network
from repro.units import EPSILON

ACTIVE, FAILED_OVER = ConnectionState.ACTIVE, ConnectionState.FAILED_OVER


class Link:
    """One link's commitments (DESIGN.md §6), per connection.

    Primary minimums and elastic extras, inactive backups with the
    primary links they protect, and activated backups.  A backup
    reservation is multiplexed: ``backup_demand`` maps each failure link
    to the backup bandwidth that failure would activate here, and the
    reservation is the worst such failure.  Extras may borrow capacity
    that is only reserved for backups.
    """

    def __init__(self, link: LinkId, capacity: float) -> None:
        self.link = link
        self.capacity = capacity
        self.failed = False
        self.primary_min: Dict[int, float] = {}
        self.primary_extra: Dict[int, float] = {}
        self.backup_members: Dict[int, Tuple[float, FrozenSet[LinkId]]] = {}
        self.backup_demand: Dict[LinkId, float] = {}
        self.activated: Dict[int, float] = {}
        # Running totals, in the order the production core adds them.
        self._min_total = self._extra_total = self._activated_total = 0.0

    @property
    def primary_min_total(self) -> float:
        return self._min_total

    @property
    def primary_extra_total(self) -> float:
        return self._extra_total

    @property
    def activated_total(self) -> float:
        return self._activated_total

    @property
    def backup_reserved(self) -> float:
        """Multiplexed backup reservation: the worst single failure's demand."""
        return max(self.backup_demand.values(), default=0.0)

    @property
    def used(self) -> float:
        return self._min_total + self._extra_total + self._activated_total

    @property
    def spare_for_extras(self) -> float:
        """Capacity not yet granted to anyone, backup reservations included."""
        return self.capacity - self._min_total - self._activated_total - self._extra_total

    @property
    def admission_headroom(self) -> float:
        """What a new guaranteed commitment (minimum or backup growth) may claim."""
        return self.capacity - self._min_total - self.backup_reserved - self._activated_total

    def _own(self, table: Mapping[int, object], cid: int, what: str) -> None:
        if cid not in table:
            raise ReservationError(f"connection {cid} has no {what} on {self.link}")

    def can_admit_primary(self, b_min: float) -> bool:
        return not self.failed and b_min <= self.admission_headroom + EPSILON

    def add_primary(self, cid: int, b_min: float) -> None:
        if cid in self.primary_min:
            raise ReservationError(f"connection {cid} already has a primary on {self.link}")
        if b_min <= 0:
            raise ReservationError(f"primary minimum must be positive, got {b_min}")
        if (
            b_min > self.admission_headroom + EPSILON
            or self.used + b_min > self.capacity + EPSILON
        ):
            raise AdmissionError(f"primary of connection {cid} overcommits link {self.link}")
        self.primary_min[cid] = b_min
        self.primary_extra[cid] = 0.0
        self._min_total += b_min

    def remove_primary(self, cid: int) -> float:
        self._own(self.primary_min, cid, "primary")
        b_min, extra = self.primary_min.pop(cid), self.primary_extra.pop(cid)
        self._min_total -= b_min
        self._extra_total -= extra
        return b_min + extra

    def has_primary(self, cid: int) -> bool:
        return cid in self.primary_min

    def extra_of(self, cid: int) -> float:
        self._own(self.primary_extra, cid, "primary")
        return self.primary_extra[cid]

    def grant_extra(self, cid: int, amount: float) -> None:
        self._own(self.primary_extra, cid, "primary")
        if amount <= 0:
            raise ReservationError(f"extra grant must be positive, got {amount}")
        if amount > self.spare_for_extras + EPSILON:
            raise AdmissionError(f"extra grant of {amount} to {cid} exceeds spare on {self.link}")
        self.primary_extra[cid] += amount
        self._extra_total += amount

    def drop_extra(self, cid: int) -> float:
        freed = self.extra_of(cid)
        if freed:
            self.primary_extra[cid] = 0.0
            self._extra_total -= freed
        return freed

    def backup_reserved_with(self, b_min: float, primary_links: FrozenSet[LinkId]) -> float:
        """The reservation after adding a backup protecting ``primary_links``."""
        worst = self.backup_reserved
        for f in primary_links:
            worst = max(worst, self.backup_demand.get(f, 0.0) + b_min)
        return worst

    def can_admit_backup(self, b_min: float, primary_links: FrozenSet[LinkId]) -> bool:
        growth = self.backup_reserved_with(b_min, primary_links) - self.backup_reserved
        return not self.failed and growth <= self.admission_headroom + EPSILON

    def add_backup(self, cid: int, b_min: float, primary_links: FrozenSet[LinkId]) -> None:
        if cid in self.backup_members:
            raise ReservationError(f"connection {cid} already has a backup on {self.link}")
        if not primary_links:
            raise ReservationError(f"backup of connection {cid} has an empty primary path")
        if not self.can_admit_backup(b_min, primary_links):
            raise AdmissionError(f"backup of connection {cid} overcommits link {self.link}")
        self.backup_members[cid] = (b_min, primary_links)
        for f in primary_links:
            self.backup_demand[f] = self.backup_demand.get(f, 0.0) + b_min

    def remove_backup(self, cid: int) -> None:
        self._own(self.backup_members, cid, "backup")
        b_min, primary_links = self.backup_members.pop(cid)
        for f in primary_links:
            remaining = self.backup_demand[f] - b_min
            if remaining <= EPSILON:
                del self.backup_demand[f]
            else:
                self.backup_demand[f] = remaining

    def has_backup(self, cid: int) -> bool:
        return cid in self.backup_members

    def can_activate_backup(self, cid: int) -> bool:
        """Whether the backup fits as live bandwidth (extras are reclaimable)."""
        if self.failed or cid not in self.backup_members:
            return False
        b_min = self.backup_members[cid][0]
        return self._min_total + self._activated_total + b_min <= self.capacity + EPSILON

    def activate_backup(self, cid: int) -> float:
        self._own(self.backup_members, cid, "backup")
        if not self.can_activate_backup(cid):
            raise AdmissionError(f"backup of connection {cid} no longer fits on {self.link}")
        b_min = self.backup_members[cid][0]
        self.remove_backup(cid)
        self.activated[cid] = b_min
        self._activated_total += b_min
        return b_min

    def release_activated(self, cid: int) -> float:
        self._own(self.activated, cid, "activated backup")
        bw = self.activated.pop(cid)
        self._activated_total -= bw
        return bw

    def check_invariants(self, strict_reservation: bool = True) -> None:
        """Recount every total from the per-connection dicts and check
        usage (and, when ``strict_reservation``, commitments) <= capacity."""
        demand: Dict[LinkId, float] = {}
        for b_min, primary_links in self.backup_members.values():
            for f in primary_links:
                demand[f] = demand.get(f, 0.0) + b_min
        min_total, activated = sum(self.primary_min.values()), sum(self.activated.values())
        recounts = [
            ("min total", self._min_total, min_total),
            ("extra total", self._extra_total, sum(self.primary_extra.values())),
            ("activated total", self._activated_total, activated),
        ] + [(f"demand of {f}", self.backup_demand.get(f, 0.0), d) for f, d in demand.items()]
        for name, kept, actual in recounts:
            if abs(kept - actual) > EPSILON:
                raise ReservationError(f"link {self.link}: {name} {kept} != recount {actual}")
        if set(self.primary_extra) != set(self.primary_min) or any(
            extra < -EPSILON for extra in self.primary_extra.values()
        ):
            raise ReservationError(f"link {self.link}: extras out of sync with minimums")
        committed = min_total + self.backup_reserved + activated
        if self.used > self.capacity + EPSILON or (
            strict_reservation and committed > self.capacity + EPSILON
        ):
            raise ReservationError(f"link {self.link}: commitments exceed capacity")


class State:
    """Every link's :class:`Link`, plus the path-wide operations."""

    def __init__(self, topology: Network) -> None:
        self.topology = topology
        self._links = {link.id: Link(link.id, link.capacity) for link in topology.links()}

    def link(self, lid: LinkId) -> Link:
        try:
            return self._links[lid]
        except KeyError:
            raise TopologyError(f"link {lid} is not part of the topology") from None

    def links(self) -> Iterable[Link]:
        return self._links.values()

    @property
    def failed_links(self) -> FrozenSet[LinkId]:
        return frozenset(lid for lid, ls in self._links.items() if ls.failed)

    def is_failed(self, lid: LinkId) -> bool:
        return self.link(lid).failed

    def alive_link_list(self) -> List[LinkId]:
        return sorted(lid for lid, ls in self._links.items() if not ls.failed)

    def failed_link_list(self) -> List[LinkId]:
        return sorted(self.failed_links)

    @property
    def num_alive(self) -> int:
        return len(self.alive_link_list())

    @property
    def num_failed(self) -> int:
        return len(self.failed_links)

    def fail_link(self, lid: LinkId) -> None:
        if self.link(lid).failed:
            raise ReservationError(f"link {lid} is already failed")
        self.link(lid).failed = True

    def repair_link(self, lid: LinkId) -> None:
        if not self.link(lid).failed:
            raise ReservationError(f"link {lid} is not failed")
        self.link(lid).failed = False

    def path_is_alive(self, path: Sequence[LinkId]) -> bool:
        return not any(self.link(lid).failed for lid in path)

    def _atomic(
        self, path: Sequence[LinkId], do: Callable[[Link], object], undo: Callable[[Link], object]
    ) -> None:
        """``do`` on every link of ``path``; undo the done ones if one raises."""
        done: List[Link] = []
        try:
            for lid in path:
                do(self.link(lid))
                done.append(self.link(lid))
        except Exception:
            for ls in done:
                undo(ls)
            raise

    def can_admit_primary_path(self, path: Sequence[LinkId], b_min: float) -> bool:
        return all(self.link(lid).can_admit_primary(b_min) for lid in path)

    def reserve_primary_path(self, cid: int, path: Sequence[LinkId], b_min: float) -> None:
        self._atomic(
            path, lambda ls: ls.add_primary(cid, b_min), lambda ls: ls.remove_primary(cid)
        )

    def release_primary_path(self, cid: int, path: Sequence[LinkId]) -> float:
        return sum(self.link(lid).remove_primary(cid) for lid in path)

    def drop_extras_of(self, cid: int, path: Sequence[LinkId]) -> List[LinkId]:
        """Reclaim ``cid``'s extras; returns the links where bandwidth was freed."""
        return [lid for lid in path if self.link(lid).drop_extra(cid) > EPSILON]

    def primary_level_bandwidth(self, cid: int, path: Sequence[LinkId]) -> float:
        """Min + extra ``cid`` holds on its path (equal on every link)."""
        links = [self.link(lid) for lid in path]
        held = [ls.primary_min[cid] + ls.primary_extra[cid] for ls in links]
        if not held or max(held) - min(held) > EPSILON:
            raise ReservationError(f"connection {cid} holds {held} along its path")
        return held[0]

    def can_admit_backup_path(
        self, path: Sequence[LinkId], b_min: float, conflict: FrozenSet[LinkId]
    ) -> bool:
        return all(self.link(lid).can_admit_backup(b_min, conflict) for lid in path)

    def reserve_backup_path(
        self, cid: int, path: Sequence[LinkId], b_min: float, conflict: FrozenSet[LinkId]
    ) -> None:
        self._atomic(
            path, lambda ls: ls.add_backup(cid, b_min, conflict), lambda ls: ls.remove_backup(cid)
        )

    def release_backup_path(self, cid: int, path: Sequence[LinkId]) -> None:
        for lid in path:
            self.link(lid).remove_backup(cid)

    def can_activate_backup_path(self, cid: int, path: Sequence[LinkId]) -> bool:
        return all(self.link(lid).can_activate_backup(cid) for lid in path)

    def activate_backup_path(self, cid: int, path: Sequence[LinkId]) -> None:
        if not path or cid not in self.link(path[0]).backup_members:
            raise ReservationError(f"connection {cid} has no backup on {list(path)}")
        b_min, conflict = self.link(path[0]).backup_members[cid]
        self._atomic(
            path,
            lambda ls: ls.activate_backup(cid),
            lambda ls: (ls.release_activated(cid), ls.add_backup(cid, b_min, conflict)),
        )

    def release_activated_path(self, cid: int, path: Sequence[LinkId]) -> float:
        return sum(self.link(lid).release_activated(cid) for lid in path)

    def check_invariants(self, strict_reservation: bool = True) -> None:
        for ls in self._links.values():
            ls.check_invariants(strict_reservation)

    def total_used(self) -> float:
        return sum(ls.used for ls in self._links.values())

    def total_capacity(self) -> float:
        return sum(ls.capacity for ls in self._links.values())

    def utilization(self) -> float:
        cap = self.total_capacity()
        return self.total_used() / cap if cap > 0 else 0.0


def candidate_ids(on_link: Mapping[LinkId, Set[int]], links: Iterable[LinkId]) -> Set[int]:
    """Ids of the channels on any of ``links``."""
    return set().union(*(on_link.get(lid, ()) for lid in links))


def fill(
    state: State,
    channels: Mapping[int, DRConnection],
    candidates: Iterable[int],
    policy: AdaptationPolicy,
) -> Dict[int, int]:
    """Water-fill spare extras into ``candidates``, one increment at a time.

    The policy's smallest ``priority`` goes next; a channel rises by Δ
    only if every link of its primary has Δ spare, and one that cannot
    never can again in this fill (spares only shrink).  Returns
    ``conn_id -> increments granted``.
    """
    granted: Dict[int, int] = {}
    heap = [
        (policy.priority(cid, channels[cid].level, channels[cid].elastic_qos), cid)
        for cid in candidates
    ]
    heapq.heapify(heap)
    while heap:
        cid = heapq.heappop(heap)[1]
        chan, qos = channels[cid], channels[cid].elastic_qos
        links = [state.link(lid) for lid in chan.primary_links]
        if chan.level >= qos.max_level or any(
            ls.spare_for_extras < qos.increment - EPSILON for ls in links
        ):
            continue
        for ls in links:
            ls.grant_extra(cid, qos.increment)
        chan.level += 1
        granted[cid] = granted.get(cid, 0) + 1
        heapq.heappush(heap, (policy.priority(cid, chan.level, qos), cid))
    return granted


def is_maximal(state: State, channels: Mapping[int, DRConnection], ids: Iterable[int]) -> bool:
    """Whether no channel in ``ids`` could still rise (test oracle)."""
    for cid in ids:
        chan, qos = channels[cid], channels[cid].elastic_qos
        threshold = qos.increment - EPSILON
        if chan.level < qos.max_level and all(
            state.link(lid).spare_for_extras >= threshold for lid in chan.primary_links
        ):
            return False
    return True


def drop_to_minimum(state: State, chan: DRConnection) -> Tuple[int, List[LinkId]]:
    """Reclaim a channel's extras; returns (previous level, links freed)."""
    previous = chan.level
    if previous == 0:
        return 0, []
    affected = state.drop_extras_of(chan.conn_id, chan.primary_links)
    chan.level = 0
    return previous, affected


class ReferenceManager:
    """The paper's centralized manager (§2.1.1) over one topology.

    Takes the production core's constructor arguments;
    ``route_cache_probe`` is accepted and ignored (nothing is cached).
    Unlike the production core's snapshots, the records that
    ``connection``, ``connections`` and ``request_connection`` hand out
    are the manager's own live ones, which later events update in
    place: read them, never change them.
    """

    def __init__(
        self,
        topology: Network,
        policy: Optional[AdaptationPolicy] = None,
        routing: str = "dijkstra",
        flood_hop_bound: int = 16,
        multiplex_backups: bool = True,
        reestablish_backups: bool = False,
        route_cache_probe: int = 4,
    ) -> None:
        if routing not in ROUTING_ENGINES:
            raise SimulationError(f"unknown routing engine {routing!r}; choose {ROUTING_ENGINES}")
        self.topology = topology
        self.state = State(topology)
        self.policy = policy if policy is not None else EqualShare()
        self.routing = routing
        self.flood_hop_bound = flood_hop_bound
        #: Without multiplexing (ablation A2) backup reservations add up.
        self.multiplex_backups = multiplex_backups
        #: Extension: replace a backup a failure destroyed.
        self.reestablish_backups = reestablish_backups
        self.connections: Dict[int, DRConnection] = {}
        #: link -> ids of ACTIVE primaries / inactive backups / activated backups on it.
        self.channels_on_link: Dict[LinkId, Set[int]] = defaultdict(set)
        self.backups_on_link: Dict[LinkId, Set[int]] = defaultdict(set)
        self.active_backups_on_link: Dict[LinkId, Set[int]] = defaultdict(set)
        self.stats = ManagerStats()
        self.now = 0.0
        self._next_id = 0
        self.activation_fault_prob = 0.0
        self._fault_rng: Any = None
        #: False: events skip the fill (a bulk set-up calls ``redistribute_all``).
        self.auto_redistribute = True
        #: False: events leave ``EventImpact.direct``/``indirect_changed`` empty.
        self.record_trajectories = True

    # -- queries ------------------------------------------------------------
    def connection(self, conn_id: int) -> DRConnection:
        if conn_id not in self.connections:
            raise ReservationError(f"connection {conn_id} is not live")
        return self.connections[conn_id]

    def live_connection_ids(self) -> List[int]:
        return sorted(self.connections)

    @property
    def num_live(self) -> int:
        return len(self.connections)

    def average_live_bandwidth(self) -> float:
        conns = self.connections.values()
        return sum(c.bandwidth for c in conns) / len(conns) if conns else 0.0

    def level_histogram(self, num_levels: int) -> List[int]:
        hist = [0] * num_levels
        for c in self.connections.values():
            if c.state is ACTIVE and not c.on_backup:
                hist[min(c.level, num_levels - 1)] += 1
        return hist

    def is_live(self, conn_id: int) -> bool:
        return conn_id in self.connections

    def ids_on_links(self, lids: Iterable[LinkId]) -> Set[int]:
        """Ids of the ACTIVE primaries on any of ``lids`` (unknown ids carry none)."""
        return candidate_ids(self.channels_on_link, lids)

    def ids_sharing_links(self, conn_ids: Iterable[int]) -> Set[int]:
        return self.ids_on_links(
            lid
            for cid in conn_ids
            if cid in self.connections
            for lid in self.connections[cid].primary_links
        )

    def link_totals(self, lid: LinkId) -> Tuple[float, float, float, float, bool]:
        """``(primary_min, primary_extra, activated, backup_reserved, failed)``."""
        ls = self.state.link(lid)
        return (
            ls.primary_min_total,
            ls.primary_extra_total,
            ls.activated_total,
            ls.backup_reserved,
            ls.failed,
        )

    def levels_of(self, conn_ids: Sequence[int]) -> List[int]:
        return [self.connections[cid].level for cid in conn_ids]

    # -- arrivals -------------------------------------------------------------
    def _conflict_set(self, primary_set: FrozenSet[LinkId]) -> FrozenSet[LinkId]:
        """Without multiplexing every backup conflicts with every other."""
        return primary_set if self.multiplex_backups else _UNIVERSAL_CONFLICT

    def _backup_route(
        self, primary: List[int], b_min: float, qos: ConnectionQoS
    ) -> Optional[List[int]]:
        primary_set = frozenset(self.topology.path_links(primary))
        conflict = self._conflict_set(primary_set)
        found = disjoint_path(
            self.topology,
            primary[0],
            primary[-1],
            avoid=primary_set,
            link_filter=lambda link: self.state.link(link.id).can_admit_backup(b_min, conflict),
            allow_partial=not qos.dependability.require_link_disjoint,
        )
        return None if found is None else found[0]

    def _routes(
        self, source: int, destination: int, qos: ConnectionQoS
    ) -> Tuple[Optional[List[int]], Optional[List[int]]]:
        _check_endpoints(self.topology, source, destination)
        b_min, wants_backup = qos.performance.b_min, qos.dependability.wants_backup
        if self.routing == "flooding":
            def allowance(link: TopologyLink) -> float:
                ls = self.state.link(link.id)
                return 0.0 if ls.failed else max(0.0, ls.admission_headroom)

            primary, backup = flooding_route_pair(
                self.topology,
                source,
                destination,
                b_min,
                allowance,
                backup_allowance=allowance,
                hop_bound=self.flood_hop_bound,
            )
            if primary is not None and wants_backup and backup is None:
                backup = self._backup_route(primary, b_min, qos)
            return primary, backup
        primary = bfs_path_rows(
            self.topology.adjacency_rows(),
            source,
            destination,
            lambda lid, _: self.state.link(lid).can_admit_primary(b_min),
        )
        if primary is None or not wants_backup:
            return primary, None
        return primary, self._backup_route(primary, b_min, qos)

    def request_connection(
        self, source: int, destination: int, qos: ConnectionQoS
    ) -> Tuple[Optional[DRConnection], EventImpact]:
        """Route, reclaim the directly-chained extras, reserve, refill."""
        impact = EventImpact(kind=EventKind.ARRIVAL, time=self.now)
        if qos.dependability.num_backups > 1:
            raise SimulationError(
                "the paper's scheme has one backup per DR-connection; "
                f"got num_backups={qos.dependability.num_backups}"
            )
        self.stats.requests += 1
        b_min = qos.performance.b_min
        primary, backup = self._routes(source, destination, qos)
        if primary is None or (qos.dependability.wants_backup and backup is None):
            if primary is None:
                self.stats.rejected_no_primary += 1
            else:
                self.stats.rejected_no_backup += 1
            impact.accepted = False
            return None, impact
        primary_links = self.topology.path_links(primary)
        primary_set = frozenset(primary_links)
        conflict = self._conflict_set(primary_set)
        conn_id = self._next_id
        self._next_id += 1
        impact.conn_id = conn_id
        affected = set(primary_links)
        for cid in sorted(candidate_ids(self.channels_on_link, primary_links)):
            before, freed = drop_to_minimum(self.state, self.connections[cid])
            affected.update(freed)
            if self.record_trajectories:
                impact.direct[cid] = (before, 0)
        self.state.reserve_primary_path(conn_id, primary_links, b_min)
        backup_links = None
        if backup is not None:
            backup_links = self.topology.path_links(backup)
            if not self.state.can_admit_backup_path(backup_links, b_min, conflict):
                # The primary took the headroom its overlapping backup needed.
                self.state.release_primary_path(conn_id, primary_links)
                self._redistribute(affected, impact)
                self.stats.rejected_no_backup += 1
                impact.accepted = False
                return None, impact
            self.state.reserve_backup_path(conn_id, backup_links, b_min, conflict)
        conn = DRConnection(
            conn_id=conn_id,
            source=source,
            destination=destination,
            qos=qos,
            primary_path=list(primary),
            primary_links=primary_links,
            backup_path=list(backup) if backup else None,
            backup_links=backup_links,
            backup_overlap=sum(lid in primary_set for lid in backup_links or ()),
            established_at=self.now,
        )
        self.connections[conn_id] = conn
        for lid in primary_links:
            self.channels_on_link[lid].add(conn_id)
        for lid in backup_links or ():
            self.backups_on_link[lid].add(conn_id)
        self._redistribute(affected, impact)
        self.stats.accepted += 1
        return conn, impact

    # -- departures -----------------------------------------------------------
    def terminate_connection(self, conn_id: int) -> EventImpact:
        """Free min + extras (and the backup) and let sharing channels rise."""
        impact = EventImpact(kind=EventKind.TERMINATION, time=self.now, conn_id=conn_id)
        conn = self.connection(conn_id)
        del self.connections[conn_id]
        live = conn.live_links
        if self.record_trajectories:
            for cid in sorted(candidate_ids(self.channels_on_link, live) - {conn_id}):
                impact.direct[cid] = (self.connections[cid].level,) * 2
        if conn.state is ACTIVE:
            for lid in live:
                self.channels_on_link[lid].discard(conn_id)
            self.state.release_primary_path(conn_id, live)
            if conn.has_backup:
                assert conn.backup_links is not None
                self._drop_backup(conn, conn.backup_links)
        else:
            self.state.release_activated_path(conn_id, live)
            for lid in live:
                self.active_backups_on_link[lid].discard(conn_id)
        conn.state = ConnectionState.TERMINATED
        self._redistribute({lid for lid in live if not self.state.is_failed(lid)}, impact)
        self.stats.terminated += 1
        return impact

    def _drop_backup(self, conn: DRConnection, links: List[LinkId]) -> None:
        self.state.release_backup_path(conn.conn_id, links)
        for lid in links:
            self.backups_on_link[lid].discard(conn.conn_id)

    # -- failures -------------------------------------------------------------
    def set_activation_faults(self, probability: float, rng: Any) -> None:
        """Each usable backup activation fails with ``probability`` (draws from ``rng``)."""
        if not 0.0 <= probability <= 1.0:
            raise FaultInjectionError(f"activation fault probability {probability} not in [0, 1]")
        if probability > 0.0 and rng is None:
            raise FaultInjectionError("activation faults need an RNG")
        self.activation_fault_prob = probability
        self._fault_rng = rng

    def fail_link(self, lid: LinkId) -> EventImpact:
        impact = EventImpact(EventKind.FAILURE, self.now, failed_link=lid)
        return self._apply_failure([lid], impact)

    def fail_links(self, lids: Iterable[LinkId]) -> EventImpact:
        """Fail several links as one atomic event (a correlated burst)."""
        unique = sorted(set(lids))
        if not unique or any(self.state.is_failed(lid) for lid in unique):
            raise FaultInjectionError(f"fail_links needs alive links, got {unique}")
        impact = EventImpact(
            EventKind.FAILURE, self.now, failed_link=unique[0] if len(unique) == 1 else None
        )
        return self._apply_failure(unique, impact)

    def fail_node(self, node: int) -> EventImpact:
        """Fail every alive link incident to ``node`` at once."""
        alive = [
            link.id
            for link in self.topology.incident_links(node)
            if not self.state.is_failed(link.id)
        ]
        if not alive:
            raise FaultInjectionError(f"node {node} has no alive incident links to fail")
        impact = EventImpact(
            EventKind.FAILURE,
            self.now,
            failed_link=alive[0] if len(alive) == 1 else None,
            failed_node=node,
        )
        self.stats.node_failures += 1
        return self._apply_failure(alive, impact)

    def _apply_failure(self, lids: List[LinkId], impact: EventImpact) -> EventImpact:
        """§3.1: activate the broken primaries' backups (sharing primaries
        retreat to their minimum first), drop what cannot recover, refill."""
        for lid in lids:
            self.state.fail_link(lid)
            self.stats.link_failures += 1
        impact.failed_links = list(lids)
        record, affected = self.record_trajectories, set()
        on = self.channels_on_link
        primaries = candidate_ids(on, lids)
        for cid in sorted(candidate_ids(self.backups_on_link, lids) - primaries):
            conn = self.connections[cid]  # lost only its inactive backup
            assert conn.backup_links is not None
            self._drop_backup(conn, conn.backup_links)
            conn.backup_path = None
            conn.backup_links = None
            impact.lost_backup.append(cid)
            self.stats.backups_lost += 1
            if self.reestablish_backups:
                self._reestablish_backup(conn)
        for cid in sorted(candidate_ids(self.active_backups_on_link, lids)):
            conn = self.connections.pop(cid)  # already failed over: a second failure
            assert conn.backup_links is not None
            self.state.release_activated_path(cid, conn.backup_links)
            for lid in conn.backup_links:
                self.active_backups_on_link[lid].discard(cid)
            self._dropped(conn, impact, had_backup=True)
            affected.update(lid for lid in conn.backup_links if not self.state.is_failed(lid))
        for cid in sorted(primaries):
            conn = self.connections[cid]
            if record:
                impact.direct[cid] = (conn.level, 0)
            for lid in conn.primary_links:
                on[lid].discard(cid)
            self.state.release_primary_path(cid, conn.primary_links)
            conn.level = 0
            affected.update(lid for lid in conn.primary_links if not self.state.is_failed(lid))
            backup = conn.backup_links if conn.has_backup else None
            usable = (
                backup is not None
                and self.state.path_is_alive(backup)
                and self.state.can_activate_backup_path(cid, backup)
            )
            if (
                usable
                and self.activation_fault_prob > 0.0
                and self._fault_rng is not None
                and float(self._fault_rng.random()) < self.activation_fault_prob
            ):
                usable = False
                impact.activation_faults.append(cid)
                self.stats.activation_faults += 1
            if not usable:
                if conn.backup_links is not None:
                    self._drop_backup(conn, conn.backup_links)
                del self.connections[cid]
                self._dropped(conn, impact, had_backup=conn.backup_links is not None)
                continue
            assert backup is not None
            for lid in backup:  # the retreat rule
                for other in sorted(on.get(lid, ())):
                    before, freed = drop_to_minimum(self.state, self.connections[other])
                    affected.update(freed)
                    if record:
                        impact.direct.setdefault(other, (before, 0))
            self.state.activate_backup_path(cid, backup)
            for lid in backup:
                self.backups_on_link[lid].discard(cid)
                self.active_backups_on_link[lid].add(cid)
            conn.on_backup = True
            conn.state = FAILED_OVER
            impact.activated.append(cid)
            self.stats.backups_activated += 1
        self._redistribute(affected, impact)
        return impact

    def _dropped(self, conn: DRConnection, impact: EventImpact, had_backup: bool) -> None:
        conn.state = ConnectionState.DROPPED
        impact.dropped.append(conn.conn_id)
        self.stats.connections_dropped += 1
        self.stats.double_failure_drops += had_backup

    def repair_link(self, lid: LinkId) -> EventImpact:
        """Back in service for future requests; nothing fails back."""
        self.state.repair_link(lid)
        self.stats.link_repairs += 1
        return EventImpact(EventKind.REPAIR, self.now, failed_link=lid)

    def _reestablish_backup(self, conn: DRConnection) -> None:
        """Extension: route and reserve a replacement for a lost backup."""
        b_min = conn.qos.performance.b_min
        path = self._backup_route(conn.primary_path, b_min, conn.qos)
        primary_set = frozenset(conn.primary_links)
        links = self.topology.path_links(path) if path is not None else []
        conflict = self._conflict_set(primary_set)
        if path is None or not self.state.can_admit_backup_path(links, b_min, conflict):
            return
        self.state.reserve_backup_path(conn.conn_id, links, b_min, conflict)
        conn.backup_path = list(path)
        conn.backup_links = links
        conn.backup_overlap = sum(lid in primary_set for lid in links)
        for lid in links:
            self.backups_on_link[lid].add(conn.conn_id)
        self.stats.backups_reestablished += 1

    # -- the fill -------------------------------------------------------------
    def redistribute_all(self) -> Dict[int, int]:
        """Fill over every elastic ACTIVE primary (after a bulk set-up)."""
        ids = [cid for cid, c in self.connections.items() if c.is_elastic_participant]
        return fill(self.state, self.connections, ids, self.policy)

    def _redistribute(self, affected: Set[LinkId], impact: EventImpact) -> None:
        if affected and self.auto_redistribute:
            cands = candidate_ids(self.channels_on_link, affected)
            granted = fill(self.state, self.connections, cands, self.policy)
            for cid, inc in granted.items():
                if self.record_trajectories and cid not in impact.direct:
                    after = self.connections[cid].level
                    impact.indirect_changed[cid] = (after - inc, after)
        for cid, (before, _) in impact.direct.items():
            if cid in self.connections:  # a dropped channel's entry stays censored
                impact.direct[cid] = (before, self.connections[cid].level)

    def check_invariants(self) -> None:
        """Per-link recounts plus: every index agrees with the links and
        every ACTIVE primary holds exactly its level's bandwidth."""
        self.state.check_invariants(not self.state.failed_links and not self.stats.link_failures)
        for index, holds in (
            (self.channels_on_link, Link.has_primary),
            (self.backups_on_link, Link.has_backup),
            (self.active_backups_on_link, lambda ls, cid: cid in ls.activated),
        ):
            for lid, ids in index.items():
                if not all(holds(self.state.link(lid), cid) for cid in ids):
                    raise ReservationError(f"index of link {lid} disagrees with its reservations")
        for c in self.connections.values():
            if c.state is ACTIVE:
                held = self.state.primary_level_bandwidth(c.conn_id, c.primary_links)
                if abs(held - c.qos.performance.level_bandwidth(c.level)) > EPSILON:
                    raise ReservationError(f"connection {c.conn_id} holds {held}, level {c.level}")
