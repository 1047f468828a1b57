"""The network manager: DR-connection establishment, teardown, recovery.

This is the centralized network manager of §2.1.1: it selects routes,
performs admission tests, reserves resources for primary and backup
channels, reclaims and redistributes elastic extras, and reacts to link
failures by activating backup channels.  Every public operation returns
an :class:`~repro.channels.records.EventImpact` describing the level
transitions it caused in pre-existing channels — the raw observations
behind the Markov model's parameters.

The operational rules implemented here are exactly those of §3.1:

* arrivals reserve the *minimum* bandwidth, reclaiming the extras of
  every directly-chained channel first, then redistribute;
* backups are reserved link-disjointly (maximally disjoint as fallback)
  and multiplexed against single link failures;
* terminations free min + extras (and the backup reservation) and let
  sharing channels rise;
* a link failure activates the backups of the primaries it broke; all
  primaries sharing links with an activated backup retreat to their
  minimum before the remaining extras are redistributed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

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
from repro.elastic.redistribute import candidate_ids, drop_to_minimum, redistribute
from repro.errors import FaultInjectionError, ReservationError, SimulationError
from repro.network.state import NetworkState
from repro.qos.spec import ConnectionQoS
from repro.routing.cache import NO_ROUTE, RouteCache
from repro.routing.disjoint import disjoint_path, maximally_disjoint_path
from repro.routing.flooding import flooding_route_pair
from repro.routing.shortest import _check_endpoints, bfs_path_rows
from repro.topology.graph import Link, LinkId, Network


class NetworkManager:
    """Central manager of DR-connections with elastic QoS over one topology."""

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
            raise SimulationError(
                f"unknown routing engine {routing!r}; choose from {ROUTING_ENGINES}"
            )
        self.topology = topology
        self.state = NetworkState(topology)
        self.policy = policy if policy is not None else EqualShare()
        self.routing = routing
        self.flood_hop_bound = flood_hop_bound
        #: With multiplexing off (ablation A2), every backup is treated
        #: as conflicting with every other, so reservations add up
        #: instead of sharing — the pre-Han-&-Shin worst case.
        self.multiplex_backups = multiplex_backups
        #: Extension: when a failure destroys a connection's *inactive*
        #: backup, immediately try to route and reserve a replacement
        #: (the paper leaves connections unprotected; off by default).
        self.reestablish_backups = reestablish_backups
        #: Candidate-route cache over the live topology: repeat arrivals
        #: between the same endpoints reuse raw candidate routes and
        #: only pay the load-dependent admission re-check.  Invalidated
        #: by generation whenever a link fails or is repaired; answers
        #: are always identical to a from-scratch filtered search (see
        #: repro.routing.cache).  ``route_cache_probe`` is the number of
        #: raw candidates checked per arrival before falling back to the
        #: filtered search; 0 disables caching entirely.
        self.route_cache: Optional[RouteCache] = (
            RouteCache(topology, self.state, probe_limit=route_cache_probe)
            if route_cache_probe > 0
            else None
        )
        #: Live connections (ACTIVE or FAILED_OVER) by id.
        self.connections: Dict[int, DRConnection] = {}
        #: link -> ids of ACTIVE primaries traversing it.
        self.channels_on_link: Dict[LinkId, Set[int]] = defaultdict(set)
        #: link -> ids of connections whose *inactive* backup traverses it.
        self.backups_on_link: Dict[LinkId, Set[int]] = defaultdict(set)
        #: link -> ids of connections whose *activated* backup traverses it.
        self.active_backups_on_link: Dict[LinkId, Set[int]] = defaultdict(set)
        self.stats = ManagerStats()
        self.now = 0.0
        self._next_id = 0
        #: Injected backup-activation fault probability: with p > 0 each
        #: otherwise-usable backup activation fails with probability p
        #: (the backup link is concurrently dead from the manager's
        #: point of view) and the connection is dropped.  0.0 keeps the
        #: paper's behaviour and performs *no* RNG draws, so disabled
        #: runs stay bitwise identical.  Set via
        #: :meth:`set_activation_faults`.
        self.activation_fault_prob: float = 0.0
        self._fault_rng = None
        #: When False, events skip the water-fill (bulk setup runs one
        #: global redistribution at the end instead — see the simulator).
        self.auto_redistribute = True
        #: When False, events leave ``EventImpact.direct`` /
        #: ``indirect_changed`` empty: callers that read only the
        #: decision (``accepted`` / ``conn_id`` / ``activated`` /
        #: ``dropped``) skip the cost of the level trajectories.  State,
        #: statistics and every other impact field are unaffected.
        self.record_trajectories = True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def connection(self, conn_id: int) -> DRConnection:
        """The live connection ``conn_id``.

        Raises:
            ReservationError: if it is not live.
        """
        try:
            return self.connections[conn_id]
        except KeyError:
            raise ReservationError(f"connection {conn_id} is not live") from None

    def live_connection_ids(self) -> List[int]:
        """Ids of all live connections, sorted."""
        return sorted(self.connections)

    @property
    def num_live(self) -> int:
        """Number of live connections."""
        return len(self.connections)

    def average_live_bandwidth(self) -> float:
        """Mean bandwidth currently reserved per live connection.

        This is the paper's performance metric ("the average bandwidth
        reserved for each primary channel").  Returns 0.0 with no live
        connections.
        """
        if not self.connections:
            return 0.0
        return sum(c.bandwidth for c in self.connections.values()) / len(self.connections)

    def level_histogram(self, num_levels: int) -> List[int]:
        """Count of ACTIVE elastic primaries at each level (state S_i).

        Heterogeneous workloads may contain contracts with more levels
        than ``num_levels``; such channels are clipped into the top
        bucket (the occupancy distribution is only exact for the
        homogeneous workloads the paper analyses).
        """
        hist = [0] * num_levels
        for conn in self.connections.values():
            if conn.state is ConnectionState.ACTIVE and not conn.on_backup:
                hist[min(conn.level, num_levels - 1)] += 1
        return hist

    def ids_sharing_links(self, conn_ids: Iterable[int]) -> Set[int]:
        """Ids of ACTIVE primaries on any primary link of ``conn_ids``.

        One hop of the channel-overlap relation.  Ids that are no longer
        live are skipped; a failed-over connection still contributes its
        former primary's links (it keeps ``primary_links`` for life).
        """
        links: Set[LinkId] = set()
        for cid in conn_ids:
            conn = self.connections.get(cid)
            if conn is not None:
                links.update(conn.primary_links)
        on_link = self.channels_on_link
        return set().union(*[on_link.get(lid, ()) for lid in links])

    def levels_of(self, conn_ids: Sequence[int]) -> List[int]:
        """Current level of each live connection in ``conn_ids``, in order."""
        connections = self.connections
        return [connections[cid].level for cid in conn_ids]

    # ------------------------------------------------------------------
    # establishment
    # ------------------------------------------------------------------
    def request_connection(
        self, source: int, destination: int, qos: ConnectionQoS
    ) -> Tuple[Optional[DRConnection], EventImpact]:
        """Try to establish a DR-connection; returns (connection, impact).

        The connection is ``None`` when the request was rejected (no
        admissible primary route, or no backup route while the
        dependability QoS demands one).
        """
        impact = EventImpact(kind=EventKind.ARRIVAL, time=self.now)
        if qos.dependability.num_backups > 1:
            raise SimulationError(
                "this manager implements the paper's scheme of one backup "
                f"channel per DR-connection; got num_backups="
                f"{qos.dependability.num_backups}"
            )
        self.stats.requests += 1
        perf = qos.performance
        b_min = perf.b_min

        primary_path, backup_path, primary_links, primary_link_set = self._select_routes(
            source, destination, qos
        )
        if primary_path is None or primary_links is None or primary_link_set is None:
            self.stats.rejected_no_primary += 1
            impact.accepted = False
            return None, impact
        if qos.dependability.wants_backup and backup_path is None:
            self.stats.rejected_no_backup += 1
            impact.accepted = False
            return None, impact

        primary_set = self._conflict_set(primary_link_set)
        conn_id = self._next_id
        self._next_id += 1
        impact.conn_id = conn_id

        # Reclaim: every directly-chained channel drops to its minimum.
        affected: Set[LinkId] = set(primary_links)
        record = self.record_trajectories
        for cid in sorted(candidate_ids(self.channels_on_link, primary_links)):
            chan = self.connections[cid]
            before, freed = drop_to_minimum(self.state, chan)
            affected.update(freed)
            if record:
                impact.direct[cid] = (before, 0)

        self.state.reserve_primary_path(conn_id, primary_links, b_min)

        backup_links: Optional[List[LinkId]] = None
        overlap = 0
        if backup_path is not None:
            backup_links = self.topology.path_links(backup_path)
            overlap = sum(1 for lid in backup_links if lid in primary_link_set)
            if not self.state.can_admit_backup_path(backup_links, b_min, primary_set):
                # The primary's own reservation consumed the headroom the
                # backup needed (only possible with overlapping routes).
                self.state.release_primary_path(conn_id, primary_links)
                self._redistribute(affected, impact)
                self.stats.rejected_no_backup += 1
                impact.accepted = False
                return None, impact
            self.state.reserve_backup_path(conn_id, backup_links, b_min, primary_set)

        conn = DRConnection(
            conn_id=conn_id,
            source=source,
            destination=destination,
            qos=qos,
            primary_path=list(primary_path),
            primary_links=primary_links,
            backup_path=list(backup_path) if backup_path else None,
            backup_links=backup_links,
            backup_overlap=overlap,
            established_at=self.now,
        )
        self.connections[conn_id] = conn
        for lid in primary_links:
            self.channels_on_link[lid].add(conn_id)
        if backup_links:
            for lid in backup_links:
                self.backups_on_link[lid].add(conn_id)

        self._redistribute(affected, impact)
        self.stats.accepted += 1
        return conn, impact

    def _select_routes(
        self, source: int, destination: int, qos: ConnectionQoS
    ) -> Tuple[
        Optional[List[int]],
        Optional[List[int]],
        Optional[List[LinkId]],
        Optional[FrozenSet[LinkId]],
    ]:
        """Pick routes with the configured engine.

        Returns ``(primary, backup, primary_links, primary_link_set)``.
        The primary's link list and link set are derived here, exactly
        once per arrival, and handed to both the backup search and the
        caller — ``path_links`` over a 10+-hop route is too expensive to
        recompute three times per request.
        """
        _check_endpoints(self.topology, source, destination)
        perf = qos.performance
        b_min = perf.b_min

        if self.routing == "flooding":
            def allowance(link: Link) -> float:
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
            if primary is None:
                return None, None, None, None
            primary_links = self.topology.path_links(primary)
            primary_link_set = frozenset(primary_links)
            if qos.dependability.wants_backup and backup is None:
                # Flooding found no disjoint copy; fall back to the
                # centralized disjoint search so maximal disjointness is
                # still honoured (footnote 1 of the paper).
                backup = self._centralized_backup(primary, b_min, qos, primary_link_set)
            return primary, backup, primary_links, primary_link_set

        primary = primary_links = None
        if self.route_cache is not None:
            found = self.route_cache.primary_route(
                source, destination, lambda ls: ls.can_admit_primary(b_min)
            )
            if found is NO_ROUTE:
                return None, None, None, None
            if found is not None:
                primary, primary_links = found
        if primary is None:
            # Cache disabled, or no probed candidate admitted: run the
            # authoritative admission-filtered search over live rows.
            primary = bfs_path_rows(
                self.state.adjacency_rows(),
                source,
                destination,
                lambda lid, ls: ls.can_admit_primary(b_min),
            )
            if primary is None:
                return None, None, None, None
            primary_links = self.topology.path_links(primary)
        primary_link_set = frozenset(primary_links)
        backup = None
        if qos.dependability.wants_backup:
            backup = self._centralized_backup(primary, b_min, qos, primary_link_set)
        return primary, backup, primary_links, primary_link_set

    def _conflict_set(self, primary_set: FrozenSet[LinkId]) -> FrozenSet[LinkId]:
        """The failure-conflict set a backup reservation is keyed on."""
        return primary_set if self.multiplex_backups else _UNIVERSAL_CONFLICT

    def _centralized_backup(
        self,
        primary: List[int],
        b_min: float,
        qos: ConnectionQoS,
        primary_set: FrozenSet[LinkId],
    ) -> Optional[List[int]]:
        conflict_set = self._conflict_set(primary_set)
        allow_partial = not qos.dependability.require_link_disjoint

        def backup_ok(link: Link) -> bool:
            return self.state.link(link.id).can_admit_backup(b_min, conflict_set)

        if self.route_cache is not None:
            raw = self.route_cache.raw_disjoint_backup(
                primary[0], primary[-1], tuple(primary), primary_set
            )
            if raw is None:
                # No fully disjoint live path exists, admissible or not:
                # the filtered disjoint search cannot succeed, so go
                # straight to the maximally-disjoint stage (or give up).
                if not allow_partial:
                    return None
                found = maximally_disjoint_path(
                    self.topology, primary[0], primary[-1], primary_set, backup_ok
                )
                return found[0] if found is not None else None
            path, _links, states = raw
            if all(ls.can_admit_backup(b_min, conflict_set) for ls in states):
                # The raw shortest disjoint path admits as-is; it is the
                # exact path the filtered disjoint search would return.
                return list(path)
            # Raw candidate blocked by load: fall through to the full
            # filtered search below, which remains authoritative.

        found = disjoint_path(
            self.topology,
            primary[0],
            primary[-1],
            avoid=primary_set,
            link_filter=backup_ok,
            allow_partial=allow_partial,
        )
        if found is None:
            return None
        path, _overlap = found
        return path

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def terminate_connection(self, conn_id: int) -> EventImpact:
        """Release one live connection and redistribute the freed capacity."""
        impact = EventImpact(kind=EventKind.TERMINATION, time=self.now, conn_id=conn_id)
        conn = self.connection(conn_id)
        del self.connections[conn_id]
        affected: Set[LinkId] = set()

        if conn.state is ConnectionState.ACTIVE:
            self._record_direct_levels(conn.primary_links, impact, skip=conn_id)
            for lid in conn.primary_links:
                self.channels_on_link[lid].discard(conn_id)
            self.state.release_primary_path(conn_id, conn.primary_links)
            affected.update(lid for lid in conn.primary_links if not self.state.is_failed(lid))
            if conn.has_backup:
                assert conn.backup_links is not None
                self.state.release_backup_path(conn_id, conn.backup_links)
                for lid in conn.backup_links:
                    self.backups_on_link[lid].discard(conn_id)
        elif conn.state is ConnectionState.FAILED_OVER:
            assert conn.backup_links is not None
            self._record_direct_levels(conn.backup_links, impact, skip=conn_id)
            self.state.release_activated_path(conn_id, conn.backup_links)
            for lid in conn.backup_links:
                self.active_backups_on_link[lid].discard(conn_id)
            affected.update(lid for lid in conn.backup_links if not self.state.is_failed(lid))
        else:  # pragma: no cover - defensive
            raise ReservationError(f"connection {conn_id} is not live ({conn.state})")

        conn.state = ConnectionState.TERMINATED
        self._redistribute(affected, impact)
        self.stats.terminated += 1
        return impact

    def _record_direct_levels(
        self, links: List[LinkId], impact: EventImpact, skip: int
    ) -> None:
        """Record the pre-event level of every directly-chained channel."""
        if not self.record_trajectories:
            return
        direct_ids = candidate_ids(self.channels_on_link, links)
        direct_ids.discard(skip)
        for cid in sorted(direct_ids):
            level = self.connections[cid].level
            impact.direct[cid] = (level, level)

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def set_activation_faults(self, probability: float, rng) -> None:
        """Enable injected backup-activation faults.

        Args:
            probability: Per-activation failure probability in [0, 1].
            rng: ``numpy.random.Generator`` the fault draws come from
                (the simulator passes its own stream so campaigns stay
                seed-deterministic).
        """
        if not 0.0 <= probability <= 1.0:
            raise FaultInjectionError(
                f"activation fault probability must be in [0, 1], got {probability}"
            )
        if probability > 0.0 and rng is None:
            raise FaultInjectionError("activation faults need an RNG")
        self.activation_fault_prob = probability
        self._fault_rng = rng

    def fail_link(self, lid: LinkId) -> EventImpact:
        """Fail one link: activate backups, drop unrecoverable connections.

        Follows §3.1: "all backup channels whose primaries traverse the
        failed component must be activated.  At this time, all of the
        existing primary channels that share links with the activated
        backup channels should release their extra resources ...  After
        the activation of backup channels, the extra resources that
        still remain available are distributed to the existing primary
        channels."
        """
        impact = EventImpact(kind=EventKind.FAILURE, time=self.now, failed_link=lid)
        return self._apply_failure([lid], impact)

    def fail_links(self, lids) -> EventImpact:
        """Fail several links as one atomic failure event (burst).

        All links are marked failed *before* any recovery runs, so a
        burst that hits both a primary and its backup drops the
        connection (a double failure) instead of activating onto a link
        that is about to die — exactly the correlated-failure regime the
        paper's single-failure model excludes.
        """
        unique = sorted(set(lids))
        if not unique:
            raise FaultInjectionError("fail_links needs at least one link")
        for lid in unique:
            if self.state.is_failed(lid):
                raise FaultInjectionError(f"link {lid} is already failed")
        impact = EventImpact(
            kind=EventKind.FAILURE,
            time=self.now,
            failed_link=unique[0] if len(unique) == 1 else None,
        )
        return self._apply_failure(unique, impact)

    def fail_node(self, node: int) -> EventImpact:
        """Atomically fail every alive link incident to ``node``.

        Models a router/switch crash: all its links die in one event.
        Raises :class:`FaultInjectionError` when the node has no alive
        incident links left to fail.
        """
        alive = [
            link.id
            for link in self.topology.incident_links(node)
            if not self.state.is_failed(link.id)
        ]
        if not alive:
            raise FaultInjectionError(
                f"node {node} has no alive incident links to fail"
            )
        impact = EventImpact(
            kind=EventKind.FAILURE,
            time=self.now,
            failed_link=alive[0] if len(alive) == 1 else None,
            failed_node=node,
        )
        self.stats.node_failures += 1
        return self._apply_failure(alive, impact)

    def _apply_failure(self, lids: List[LinkId], impact: EventImpact) -> EventImpact:
        """Shared failure machinery over an atomic set of failed links."""
        for lid in lids:
            self.state.fail_link(lid)
            self.stats.link_failures += 1
        impact.failed_links = list(lids)
        affected: Set[LinkId] = set()
        record = self.record_trajectories

        primary_victim_set: Set[int] = set()
        inactive_victim_set: Set[int] = set()
        live_victim_set: Set[int] = set()
        for lid in lids:
            primary_victim_set |= self.channels_on_link.get(lid, set())
            inactive_victim_set |= self.backups_on_link.get(lid, set())
            live_victim_set |= self.active_backups_on_link.get(lid, set())
        primary_victims = sorted(primary_victim_set)
        inactive_backup_victims = sorted(inactive_victim_set - primary_victim_set)
        live_backup_victims = sorted(live_victim_set)

        # Connections that only lost their (inactive) backup stay up,
        # unprotected, at their current bandwidth.
        for cid in inactive_backup_victims:
            conn = self.connections[cid]
            assert conn.backup_links is not None
            self.state.release_backup_path(cid, conn.backup_links)
            for blid in conn.backup_links:
                self.backups_on_link[blid].discard(cid)
            conn.backup_path = None
            conn.backup_links = None
            impact.lost_backup.append(cid)
            self.stats.backups_lost += 1
            if self.reestablish_backups:
                self._try_reestablish_backup(conn)

        # Connections already running on a backup have no further
        # protection: losing the backup path drops them.
        for cid in live_backup_victims:
            conn = self.connections.pop(cid)
            assert conn.backup_links is not None
            self.state.release_activated_path(cid, conn.backup_links)
            for blid in conn.backup_links:
                self.active_backups_on_link[blid].discard(cid)
            conn.state = ConnectionState.DROPPED
            impact.dropped.append(cid)
            self.stats.connections_dropped += 1
            # A failed-over connection losing its activated backup is a
            # second failure on the same connection.
            self.stats.double_failure_drops += 1
            affected.update(blid for blid in conn.backup_links if not self.state.is_failed(blid))

        # Primaries through the failed link: release, then try failover.
        for cid in primary_victims:
            conn = self.connections[cid]
            if record:
                impact.direct[cid] = (conn.level, 0)
            for plid in conn.primary_links:
                self.channels_on_link[plid].discard(cid)
            self.state.release_primary_path(cid, conn.primary_links)
            conn.level = 0
            affected.update(
                plid for plid in conn.primary_links if not self.state.is_failed(plid)
            )

            had_backup = conn.backup_links is not None
            usable_backup = (
                conn.has_backup
                and conn.backup_links is not None
                and self.state.path_is_alive(conn.backup_links)
                and self.state.can_activate_backup_path(cid, conn.backup_links)
            )
            if (
                usable_backup
                and self.activation_fault_prob > 0.0
                and self._fault_rng is not None
                and float(self._fault_rng.random()) < self.activation_fault_prob
            ):
                # Injected backup-activation fault: the activation
                # signalling fails even though the path looked usable.
                usable_backup = False
                impact.activation_faults.append(cid)
                self.stats.activation_faults += 1
            if usable_backup:
                assert conn.backup_links is not None
                # Retreat rule: primaries sharing the backup's links give
                # up their extras before the backup goes live.
                for blid in conn.backup_links:
                    for other in sorted(self.channels_on_link.get(blid, ())):
                        chan = self.connections[other]
                        prev, freed = drop_to_minimum(self.state, chan)
                        affected.update(freed)
                        if record:
                            impact.direct.setdefault(other, (prev, 0))
                self.state.activate_backup_path(cid, conn.backup_links)
                for blid in conn.backup_links:
                    self.backups_on_link[blid].discard(cid)
                    self.active_backups_on_link[blid].add(cid)
                conn.on_backup = True
                conn.state = ConnectionState.FAILED_OVER
                impact.activated.append(cid)
                self.stats.backups_activated += 1
            else:
                if conn.backup_links is not None:
                    self.state.release_backup_path(cid, conn.backup_links)
                    for blid in conn.backup_links:
                        self.backups_on_link[blid].discard(cid)
                del self.connections[cid]
                conn.state = ConnectionState.DROPPED
                impact.dropped.append(cid)
                self.stats.connections_dropped += 1
                if had_backup:
                    # The connection was protected and still died: its
                    # backup was concurrently dead, no longer fit, or
                    # hit by an activation fault.
                    self.stats.double_failure_drops += 1

        self._redistribute(affected, impact)
        return impact

    def repair_link(self, lid: LinkId) -> EventImpact:
        """Return a failed link to service.

        Existing connections are not re-routed (the paper models no
        fail-back); the repaired link simply becomes available to future
        requests and backups.
        """
        impact = EventImpact(kind=EventKind.REPAIR, time=self.now, failed_link=lid)
        self.state.repair_link(lid)
        self.stats.link_repairs += 1
        return impact

    def _try_reestablish_backup(self, conn: DRConnection) -> bool:
        """Route and reserve a replacement backup for ``conn`` (extension).

        Returns True on success; on failure the connection simply stays
        unprotected, as in the paper's base scheme.
        """
        b_min = conn.qos.performance.b_min
        primary_link_set = frozenset(conn.primary_links)
        path = self._centralized_backup(conn.primary_path, b_min, conn.qos, primary_link_set)
        if path is None:
            return False
        links = self.topology.path_links(path)
        primary_set = self._conflict_set(primary_link_set)
        if not self.state.can_admit_backup_path(links, b_min, primary_set):
            return False
        self.state.reserve_backup_path(conn.conn_id, links, b_min, primary_set)
        conn.backup_path = list(path)
        conn.backup_links = links
        conn.backup_overlap = sum(1 for lid in links if lid in primary_link_set)
        for lid in links:
            self.backups_on_link[lid].add(conn.conn_id)
        self.stats.backups_reestablished += 1
        return True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def redistribute_all(self) -> Dict[int, int]:
        """Global water-fill over every ACTIVE elastic primary.

        Used after bulk setup (simulator) and by tests; during normal
        operation the localized per-event redistribution suffices.
        Returns ``conn_id -> increments granted``.
        """
        candidates = {
            cid for cid, conn in self.connections.items() if conn.is_elastic_participant
        }
        return redistribute(self.state, self.connections, candidates, self.policy)

    def _redistribute(self, affected: Set[LinkId], impact: EventImpact) -> None:
        """Water-fill the affected links and fold the result into ``impact``."""
        if affected and self.auto_redistribute:
            cands = candidate_ids(self.channels_on_link, affected)
            granted = redistribute(self.state, self.connections, cands, self.policy)
            if self.record_trajectories:
                for cid, inc in granted.items():
                    if cid not in impact.direct:
                        after = self.connections[cid].level
                        impact.indirect_changed[cid] = (after - inc, after)
        # Post-event level of every direct observation, read back from
        # the connection itself.
        for cid, (before, _) in impact.direct.items():
            conn = self.connections.get(cid)
            if conn is None:
                continue  # dropped during a failure event: censored
            impact.direct[cid] = (before, conn.level)

    def check_invariants(self) -> None:
        """Cross-check reservations against the index structures.

        Used by integration and property tests after every event; cheap
        enough to leave on in anger when debugging.
        """
        strict = not self.state.failed_links and self.stats.link_failures == 0
        self.state.check_invariants(strict_reservation=strict)
        for lid, ids in self.channels_on_link.items():
            for cid in ids:
                if not self.state.link(lid).has_primary(cid):
                    raise ReservationError(
                        f"index says connection {cid} is on {lid} but link state disagrees"
                    )
        for lid, ids in self.backups_on_link.items():
            for cid in ids:
                if not self.state.link(lid).has_backup(cid):
                    raise ReservationError(
                        f"index says backup of {cid} is on {lid} but link state disagrees"
                    )
        for lid, ids in self.active_backups_on_link.items():
            for cid in ids:
                if cid not in self.state.link(lid).activated:
                    raise ReservationError(
                        f"index says activated backup of {cid} is on {lid} "
                        f"but link state disagrees"
                    )
        for conn in self.connections.values():
            if conn.state is ConnectionState.ACTIVE:
                bw = self.state.primary_level_bandwidth(conn.conn_id, conn.primary_links)
                expected = conn.qos.performance.level_bandwidth(conn.level)
                if abs(bw - expected) > 1e-6:
                    raise ReservationError(
                        f"connection {conn.conn_id}: reserved {bw} but level "
                        f"{conn.level} implies {expected}"
                    )
