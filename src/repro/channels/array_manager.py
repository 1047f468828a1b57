"""Array-backed network manager over struct-of-arrays state.

:class:`ArrayNetworkManager` is the SoA twin of
:class:`~repro.reference.ReferenceManager`: the same operational
rules (§3.1 of the paper), the same calls, the same event semantics —
but every reservation lives in the per-link lists of a
:class:`~repro.network.link_table.LinkTable` and every connection in a
:class:`~repro.channels.conn_table.ConnectionTable` row addressed by an
integer handle.  An event touches the links of one or two short paths,
so the per-event work (extras reclamation, the elastic water-fill, the
failure squeeze) is scalar reads and writes on those lists, in the
reference's order; NumPy serves the per-connection measurement
reductions.

Equivalence contract: driven through an identical event sequence, this
manager and the reference produce **bitwise-identical** routes,
grants, drops, statistics and per-link float state (twin-manager tests
pin this, with fault injection on and off).  The contract is exact on
the paper's dyadic bandwidth grid; see :mod:`repro.elastic.array_fill`
for the one caveat on off-grid bandwidths.

Connections leave the manager as
:class:`~repro.channels.records.DRConnection` records, the same type
the reference hands out.  A record is a snapshot of its table row at
the moment it was read; callers that keep one across events read it
again with :meth:`ArrayNetworkManager.connection`.

The reference (:mod:`repro.reference`) is the oracle; this class is
the one production core (``repro.channels.make_manager`` builds it).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.channels.conn_table import CODE_STATE, STATE_CODE, ConnectionTable
from repro.channels.records import (
    _UNIVERSAL_CONFLICT,
    ROUTING_ENGINES,
    ConnectionState,
    DRConnection,
    EventImpact,
    EventKind,
    ManagerStats,
)
from repro.elastic.array_fill import drop_to_minimum_soa, redistribute_soa
from repro.elastic.policies import AdaptationPolicy, EqualShare
from repro.errors import (
    AdmissionError,
    FaultInjectionError,
    ReservationError,
    SimulationError,
)
from repro.network.link_table import LinkTable
from repro.qos.spec import ConnectionQoS
from repro.routing.cache import (
    NO_ROUTE,
    ArrayAdjacencyRows,
    ArrayRouteCache,
    BackupPlan,
    RoutePlan,
)
from repro.routing.disjoint import disjoint_path, maximally_disjoint_path
from repro.routing.flooding import flooding_route_pair
from repro.routing.shortest import _check_endpoints, bfs_path_rows
from repro.topology.graph import Link, LinkId, Network
from repro.units import EPSILON

_ACTIVE = STATE_CODE[ConnectionState.ACTIVE]
_FAILED_OVER = STATE_CODE[ConnectionState.FAILED_OVER]


class ArrayNetworkState:
    """Failure bookkeeping over a :class:`LinkTable`.

    Mirrors the parts of :class:`~repro.reference.State` the
    simulator, the fault injectors and the route layer consume:
    generation counter, sorted alive/failed link lists (incrementally
    maintained, bitwise-deterministic victim picks), adjacency rows —
    here carrying the **dense link index** as the row payload.
    """

    def __init__(self, topology: Network, table: LinkTable) -> None:
        self.topology = topology
        self.table = table
        self._alive_list: List[LinkId] = sorted(table.index)
        self._failed_list: List[LinkId] = []
        self.generation: int = 0
        self._rows: ArrayAdjacencyRows = {
            node: [(nbr, lid, table.index[lid]) for nbr, lid, _link in row]
            for node, row in topology.adjacency_rows().items()
        }

    def adjacency_rows(self) -> ArrayAdjacencyRows:
        """node -> ``[(neighbor, link_id, dense_index)]`` rows."""
        return self._rows

    @property
    def failed_links(self) -> FrozenSet[LinkId]:
        return frozenset(self._failed_list)

    def is_failed(self, lid: LinkId) -> bool:
        li = self.table.index.get(lid)
        return li is not None and self.table.failed[li]

    def alive_link_list(self) -> List[LinkId]:
        return self._alive_list

    def failed_link_list(self) -> List[LinkId]:
        return self._failed_list

    @property
    def num_alive(self) -> int:
        return len(self._alive_list)

    @property
    def num_failed(self) -> int:
        return len(self._failed_list)

    # -- failures -------------------------------------------------------
    def fail_link(self, lid: LinkId) -> None:
        table = self.table
        try:
            li = table.index[lid]
        except KeyError:
            li = table.index_of(lid)  # raises TopologyError, unknown link
        table.fail(li)
        self._alive_list.pop(bisect_left(self._alive_list, lid))
        insort(self._failed_list, lid)
        self.generation += 1

    def repair_link(self, lid: LinkId) -> None:
        table = self.table
        try:
            li = table.index[lid]
        except KeyError:
            li = table.index_of(lid)  # raises TopologyError, unknown link
        table.repair(li)
        self._failed_list.pop(bisect_left(self._failed_list, lid))
        insort(self._alive_list, lid)
        self.generation += 1

    # -- diagnostics ----------------------------------------------------
    # Summed in link order, as the reference's ``State`` does, so the
    # two agree bitwise.
    def total_used(self) -> float:
        return sum(self.table.used())

    def total_capacity(self) -> float:
        return sum(self.table.capacity)

    def utilization(self) -> float:
        cap = self.total_capacity()
        return self.total_used() / cap if cap > 0 else 0.0


class ArrayNetworkManager:
    """Central DR-connection manager over struct-of-arrays state."""

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
        self.links = LinkTable(topology)
        self.conns = ConnectionTable()
        self.state = ArrayNetworkState(topology, self.links)
        self.policy = policy if policy is not None else EqualShare()
        self.routing = routing
        self.flood_hop_bound = flood_hop_bound
        self.multiplex_backups = multiplex_backups
        self.reestablish_backups = reestablish_backups
        self.route_cache: Optional[ArrayRouteCache] = (
            ArrayRouteCache(
                topology,
                self.links,
                self.state.adjacency_rows(),
                probe_limit=route_cache_probe,
            )
            if route_cache_probe > 0
            else None
        )
        n = len(self.links)
        #: Dense link index -> handles of ACTIVE primaries / inactive
        #: backups / activated backups traversing it.
        self._prims_on: List[Set[int]] = [set() for _ in range(n)]
        self._backups_on: List[Set[int]] = [set() for _ in range(n)]
        self._active_on: List[Set[int]] = [set() for _ in range(n)]
        #: conn id -> live handle, in ascending conn id: ids are issued in
        #: increasing order and inserted only at arrival.
        self._h_of: Dict[int, int] = {}
        #: handle -> the primary's link-id frozenset.  A connection's
        #: primary route is immutable for its lifetime, so the conflict
        #: set backups are keyed on never needs rebuilding from the
        #: arena.
        self._conflict_py: List[FrozenSet[LinkId]] = []
        self.stats = ManagerStats()
        self.now = 0.0
        self._next_id = 0
        self.activation_fault_prob: float = 0.0
        self._fault_rng = None
        self.auto_redistribute = True
        #: When False, events leave ``EventImpact.direct`` /
        #: ``indirect_changed`` empty and skip the work of building them;
        #: state, statistics and every other impact field are unaffected.
        self.record_trajectories = True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _record(self, h: int) -> DRConnection:
        """Snapshot of handle ``h``'s table row as a plain record."""
        c = self.conns
        ids = self.links.link_ids
        qos = c.qos[h]
        assert qos is not None
        routed = bool(c.bk_len[h])  # a backup route is attached
        return DRConnection(
            conn_id=c.cid_py[h],
            source=int(c.source[h]),
            destination=int(c.destination[h]),
            qos=qos,
            primary_path=c.pnode_slice(h).tolist(),
            primary_links=[ids[li] for li in c.path[h]],
            backup_path=c.bnode_slice(h).tolist() if routed else None,
            backup_links=[ids[li] for li in c.bk_slice(h).tolist()] if routed else None,
            backup_overlap=int(c.backup_overlap[h]),
            level=int(c.level[h]),
            state=CODE_STATE[int(c.state[h])],
            on_backup=int(c.state[h]) == _FAILED_OVER,
            established_at=float(c.established_at[h]),
        )

    @property
    def connections(self) -> Dict[int, DRConnection]:
        """Live connections by id, as records built on each read.

        O(live): for diagnostics only.  No event path reads it.
        """
        return {cid: self._record(h) for cid, h in self._h_of.items()}

    def connection(self, conn_id: int) -> DRConnection:
        """A snapshot of live connection ``conn_id`` (raises when not live)."""
        try:
            return self._record(self._h_of[conn_id])
        except KeyError:
            raise ReservationError(f"connection {conn_id} is not live") from None

    def is_live(self, conn_id: int) -> bool:
        return conn_id in self._h_of

    def live_connection_ids(self) -> List[int]:
        """Ids of all live connections, sorted."""
        return list(self._h_of)

    @property
    def num_live(self) -> int:
        return len(self._h_of)

    def average_live_bandwidth(self) -> float:
        """Mean bandwidth per live connection (masked reduction)."""
        return self.conns.average_live_bandwidth()

    def level_histogram(self, num_levels: int) -> List[int]:
        """Count of ACTIVE elastic primaries at each level (bincount)."""
        return self.conns.level_histogram(num_levels)

    def _ids_on(self, lis: Iterable[int]) -> Set[int]:
        sets = self._prims_on
        hset: Set[int] = set().union(*[sets[li] for li in lis])
        return set(map(self.conns.cid_py.__getitem__, hset))

    def ids_on_links(self, lids: Iterable[LinkId]) -> Set[int]:
        """Ids of the ACTIVE primaries on any of ``lids`` (unknown ids carry none)."""
        index = self.links.index
        return self._ids_on([index[lid] for lid in lids if lid in index])

    def ids_sharing_links(self, conn_ids: Iterable[int]) -> Set[int]:
        """Ids of ACTIVE primaries on any primary link of ``conn_ids``.

        One hop of the channel-overlap relation, on handles.  Ids that
        are no longer live are skipped; a failed-over connection still
        contributes its former primary's links (see the reference).
        """
        h_of = self._h_of
        paths = self.conns.path
        lis: Set[int] = set()
        for cid in conn_ids:
            h = h_of.get(cid)
            if h is not None:
                lis.update(paths[h])
        return self._ids_on(lis)

    def link_totals(self, lid: LinkId) -> Tuple[float, float, float, float, bool]:
        """``(primary_min, primary_extra, activated, backup_reserved, failed)``."""
        t = self.links
        li = t.index_of(lid)
        return (
            t.primary_min[li],
            t.primary_extra[li],
            t.activated[li],
            t.backup_reserved[li],
            t.failed[li],
        )

    def levels_of(self, conn_ids: Sequence[int]) -> List[int]:
        """Current level of each live connection in ``conn_ids``, in order."""
        h_of = self._h_of
        return self.conns.level[[h_of[cid] for cid in conn_ids]].tolist()

    # ------------------------------------------------------------------
    # establishment
    # ------------------------------------------------------------------
    def request_connection(
        self, source: int, destination: int, qos: ConnectionQoS
    ) -> Tuple[Optional[DRConnection], EventImpact]:
        """Try to establish a DR-connection; returns (record, impact)."""
        impact = EventImpact(kind=EventKind.ARRIVAL, time=self.now)
        if qos.dependability.num_backups > 1:
            raise SimulationError(
                "this manager implements the paper's scheme of one backup "
                f"channel per DR-connection; got num_backups="
                f"{qos.dependability.num_backups}"
            )
        self.stats.requests += 1
        b_min = qos.performance.b_min

        plan, backup_path, backup_plan = self._select_routes(source, destination, qos)
        if plan is None:
            self.stats.rejected_no_primary += 1
            impact.accepted = False
            return None, impact
        if qos.dependability.wants_backup and backup_path is None:
            self.stats.rejected_no_backup += 1
            impact.accepted = False
            return None, impact

        primary_set = self._conflict_set(plan.link_set)
        conn_id = self._next_id
        self._next_id += 1
        impact.conn_id = conn_id

        path = plan.idx_list
        affected: Set[int] = set(plan.idx_set)
        self._reclaim_direct(path, affected, impact)

        self._reserve_primary_checked(path, b_min)

        bk_idx: Optional[List[int]] = None
        bk_nodes: Optional[np.ndarray] = None
        overlap = 0
        if backup_path is not None:
            if backup_plan is not None:
                # Precompiled candidate: indices, node array and overlap
                # are ready.
                bk_idx = backup_plan.idx
                bk_nodes = backup_plan.nodes
                overlap = backup_plan.overlap
            else:
                backup_links = self.topology.path_links(backup_path)
                overlap = sum(1 for lid in backup_links if lid in plan.link_set)
                bk_idx = self.links.indices_of(backup_links)
                bk_nodes = np.asarray(backup_path, dtype=np.int64)
            if not self.links.can_admit_backup_bulk(bk_idx, b_min, primary_set):
                # The primary's own reservation consumed the headroom the
                # backup needed (only possible with overlapping routes).
                self.links.sub_primary_min(path, b_min)
                self._redistribute(affected, impact)
                self.stats.rejected_no_backup += 1
                impact.accepted = False
                return None, impact
            for li in bk_idx:
                self.links.add_backup(li, b_min, primary_set)

        h = self.conns.allocate(
            conn_id, source, destination, qos, path, plan.nodes, self.now
        )
        conflict_py = self._conflict_py
        if h >= len(conflict_py):
            conflict_py.extend(
                [_UNIVERSAL_CONFLICT] * (h + 1 - len(conflict_py))
            )
        conflict_py[h] = plan.link_set
        if bk_idx is not None:
            assert bk_nodes is not None
            self.conns.set_backup(h, bk_idx, bk_nodes, overlap)
            for li in bk_idx:
                self._backups_on[li].add(h)
        self._h_of[conn_id] = h
        for li in path:
            self._prims_on[li].add(h)

        self._redistribute(affected, impact)
        self.stats.accepted += 1
        return self._record(h), impact

    def _reserve_primary_checked(self, path: List[int], b_min: float) -> None:
        """Reserve a primary's minimum with the reference's guards."""
        t = self.links
        headroom = t.headroom
        if any(b_min > headroom[li] + EPSILON for li in path):
            raise AdmissionError(
                f"primary reservation of {b_min} Kb/s overcommits a link "
                f"(headroom {min(headroom[li] for li in path):.3f})"
            )
        pmin, extra, act, cap = t.primary_min, t.primary_extra, t.activated, t.capacity
        if any(pmin[li] + extra[li] + act[li] + b_min > cap[li] + EPSILON for li in path):
            raise AdmissionError("primary reservation would exceed usage capacity")
        t.add_primary_min(path, b_min)

    def _reclaim_direct(
        self, path: List[int], affected: Set[int], impact: EventImpact
    ) -> None:
        """Drop every directly-chained channel to its minimum.

        Channels give their extras back in ascending conn-id order, so
        each link's ``primary_extra`` sees the reference's sorted
        per-channel subtractions.
        """
        sets = self._prims_on
        groups = [sets[li] for li in path if sets[li]]
        if not groups:
            return
        hset: Set[int] = set().union(*groups)
        conns = self.conns
        cid_py = conns.cid_py
        hs_list = sorted(hset, key=cid_py.__getitem__)
        hs = np.fromiter(hs_list, np.int64, len(hs_list))
        if self.record_trajectories:
            direct = impact.direct
            for h, lvl in zip(hs_list, conns.level[hs].tolist()):
                direct[cid_py[h]] = (lvl, 0)
        paths = conns.path
        reclaim = self.links.reclaim_extras
        for h, extra in zip(hs_list, conns.conn_extra[hs].tolist()):
            if extra != 0.0:
                reclaim(paths[h], extra)
                if extra > EPSILON:
                    affected.update(paths[h])
        conns.conn_extra[hs] = 0.0
        conns.level[hs] = 0

    # ------------------------------------------------------------------
    # route selection
    # ------------------------------------------------------------------
    def _select_routes(
        self, source: int, destination: int, qos: ConnectionQoS
    ) -> Tuple[Optional[RoutePlan], Optional[List[int]], Optional[BackupPlan]]:
        """Pick routes with the configured engine (``routing``).

        Returns ``(primary plan, backup node path, backup plan)``.  The
        primary plan is the cache's shared precompiled candidate on a
        hit, or a transient plan built from the search answer otherwise.
        The backup plan is only set when a precompiled candidate passed
        admission; search fallbacks return just the node path (the
        caller derives links/indices/overlap as before).
        """
        _check_endpoints(self.topology, source, destination)
        b_min = qos.performance.b_min
        t = self.links

        if self.routing == "flooding":
            index = t.index

            def allowance(link: Link) -> float:
                li = index[link.id]
                if t.failed[li]:
                    return 0.0
                return max(0.0, t.headroom[li])

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
                return None, None, None
            primary_links = self.topology.path_links(primary)
            plan = RoutePlan(primary, primary_links, t.indices_of(primary_links))
            if qos.dependability.wants_backup and backup is None:
                backup, bplan = self._centralized_backup(plan, b_min, qos)
                return plan, backup, bplan
            return plan, backup, None

        plan: Optional[RoutePlan] = None
        if self.route_cache is not None:
            found = self.route_cache.primary_plan(
                source, destination, b_min, self.state.generation
            )
            if found is NO_ROUTE:
                return None, None, None
            if found is not None and not isinstance(found, RoutePlan):
                raise SimulationError("unexpected route-cache answer")  # pragma: no cover
            plan = found
        if plan is None:
            # ``Link.can_admit_primary``: alive, and the minimum fits
            # the headroom.
            failed, headroom = t.failed, t.headroom
            primary = bfs_path_rows(
                self.state.adjacency_rows(),
                source,
                destination,
                lambda lid, li: not failed[li] and b_min <= headroom[li] + EPSILON,
            )
            if primary is None:
                return None, None, None
            primary_links = self.topology.path_links(primary)
            plan = RoutePlan(primary, primary_links, t.indices_of(primary_links))
        if not qos.dependability.wants_backup:
            return plan, None, None
        backup, bplan = self._centralized_backup(plan, b_min, qos)
        return plan, backup, bplan

    def _conflict_set(self, primary_set: FrozenSet[LinkId]) -> FrozenSet[LinkId]:
        """The failure-conflict set a backup reservation is keyed on."""
        return primary_set if self.multiplex_backups else _UNIVERSAL_CONFLICT

    def _conflict_of(self, h: int) -> FrozenSet[LinkId]:
        """The conflict set handle ``h``'s backup was reserved under."""
        if not self.multiplex_backups:
            return _UNIVERSAL_CONFLICT
        return self._conflict_py[h]

    def _centralized_backup(
        self,
        plan: RoutePlan,
        b_min: float,
        qos: ConnectionQoS,
    ) -> Tuple[Optional[List[int]], Optional[BackupPlan]]:
        """Backup route for ``plan``'s primary.

        Returns ``(node path, backup plan)``; the plan half is only set
        when one of the cache's precompiled candidates (fully disjoint,
        or maximally disjoint where no disjoint path exists) passed the
        load-dependent admission re-check.
        """
        primary = plan.path
        primary_set = plan.link_set
        conflict_set = self._conflict_set(primary_set)
        allow_partial = not qos.dependability.require_link_disjoint
        t = self.links
        index = t.index

        def backup_ok(link: Link) -> bool:
            return t.can_admit_backup(index[link.id], b_min, conflict_set)

        if self.route_cache is not None:
            raw = self.route_cache.raw_disjoint_backup(
                primary[0],
                primary[-1],
                tuple(primary),
                primary_set,
                self.state.generation,
            )
            if raw is None:
                if not allow_partial:
                    return None, None
                raw = self.route_cache.raw_partial_backup(tuple(primary), primary_set)
                if raw is not None and t.can_admit_backup_bulk(
                    raw.idx, b_min, conflict_set
                ):
                    return raw.path, raw
                found = maximally_disjoint_path(
                    self.topology, primary[0], primary[-1], primary_set, backup_ok
                )
                return (found[0] if found is not None else None), None
            if t.can_admit_backup_bulk(raw.idx, b_min, conflict_set):
                return raw.path, raw

        found2 = disjoint_path(
            self.topology,
            primary[0],
            primary[-1],
            avoid=primary_set,
            link_filter=backup_ok,
            allow_partial=allow_partial,
        )
        if found2 is None:
            return None, None
        path2, _overlap = found2
        return path2, None

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def terminate_connection(self, conn_id: int) -> EventImpact:
        """Release one live connection and redistribute the freed capacity."""
        impact = EventImpact(kind=EventKind.TERMINATION, time=self.now, conn_id=conn_id)
        h = self._h_of.pop(conn_id, None)
        if h is None:
            raise ReservationError(f"connection {conn_id} is not live")
        conns = self.conns
        t = self.links
        affected: Set[int] = set()
        scode = int(conns.state[h])
        b_min = float(conns.b_min[h])

        if scode == _ACTIVE:
            path = conns.path[h]
            self._record_direct_levels(path, impact, skip=h)
            for li in path:
                self._prims_on[li].discard(h)
            t.release_primary(path, b_min, float(conns.conn_extra[h]))
            affected.update(li for li in path if not t.failed[li])
            if conns.bk_len[h]:
                conflict = self._conflict_of(h)
                for li in conns.bk_slice(h).tolist():
                    t.remove_backup(li, b_min, conflict)
                    self._backups_on[li].discard(h)
        elif scode == _FAILED_OVER:
            bk_idx = conns.bk_slice(h).tolist()
            self._record_direct_levels(bk_idx, impact, skip=h)
            t.sub_activated(bk_idx, b_min)
            for li in bk_idx:
                self._active_on[li].discard(h)
            affected.update(li for li in bk_idx if not t.failed[li])
        else:  # pragma: no cover - defensive
            raise ReservationError(f"connection {conn_id} is not live")

        conns.free(h, ConnectionState.TERMINATED)
        self._redistribute(affected, impact)
        self.stats.terminated += 1
        return impact

    def _record_direct_levels(
        self, path: Sequence[int], impact: EventImpact, skip: int
    ) -> None:
        """Record the pre-event level of every directly-chained channel."""
        if not self.record_trajectories:
            return
        sets = self._prims_on
        groups = [sets[li] for li in path if sets[li]]
        if not groups:
            return
        hset: Set[int] = set().union(*groups)
        hset.discard(skip)
        if not hset:
            return
        conns = self.conns
        cid_py = conns.cid_py
        hs_list = sorted(hset, key=cid_py.__getitem__)
        hs = np.fromiter(hs_list, np.int64, len(hs_list))
        levels = conns.level[hs].tolist()
        direct = impact.direct
        for h, lvl in zip(hs_list, levels):
            direct[cid_py[h]] = (lvl, lvl)

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def set_activation_faults(self, probability: float, rng) -> None:
        """Each usable backup activation fails with ``probability``
        (draws from ``rng``, so campaigns stay seed-deterministic)."""
        if not 0.0 <= probability <= 1.0:
            raise FaultInjectionError(
                f"activation fault probability must be in [0, 1], got {probability}"
            )
        if probability > 0.0 and rng is None:
            raise FaultInjectionError("activation faults need an RNG")
        self.activation_fault_prob = probability
        self._fault_rng = rng

    def fail_link(self, lid: LinkId) -> EventImpact:
        """Fail one link: activate backups, drop unrecoverable connections."""
        impact = EventImpact(kind=EventKind.FAILURE, time=self.now, failed_link=lid)
        return self._apply_failure([lid], impact)

    def fail_links(self, lids) -> EventImpact:
        """Fail several links as one atomic failure event (burst)."""
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
        """Atomically fail every alive link incident to ``node``."""
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

    def _sorted_by_cid(self, handles: Set[int]) -> List[int]:
        if not handles:
            return []
        return sorted(handles, key=self.conns.cid_py.__getitem__)

    def _apply_failure(self, lids: List[LinkId], impact: EventImpact) -> EventImpact:
        """Shared failure machinery over an atomic set of failed links."""
        t = self.links
        conns = self.conns
        record = self.record_trajectories
        for lid in lids:
            self.state.fail_link(lid)
            self.stats.link_failures += 1
        impact.failed_links = list(lids)
        affected: Set[int] = set()
        li_list = [t.index[lid] for lid in lids]

        primary_victim_set: Set[int] = set()
        inactive_victim_set: Set[int] = set()
        live_victim_set: Set[int] = set()
        for li in li_list:
            primary_victim_set |= self._prims_on[li]
            inactive_victim_set |= self._backups_on[li]
            live_victim_set |= self._active_on[li]
        primary_victims = self._sorted_by_cid(primary_victim_set)
        inactive_backup_victims = self._sorted_by_cid(
            inactive_victim_set - primary_victim_set
        )
        live_backup_victims = self._sorted_by_cid(live_victim_set)

        # Connections that only lost their (inactive) backup stay up,
        # unprotected, at their current bandwidth.
        for h in inactive_backup_victims:
            cid = conns.cid_py[h]
            b_min = float(conns.b_min[h])
            conflict = self._conflict_of(h)
            for li in conns.bk_slice(h).tolist():
                t.remove_backup(li, b_min, conflict)
                self._backups_on[li].discard(h)
            conns.clear_backup(h)
            impact.lost_backup.append(cid)
            self.stats.backups_lost += 1
            if self.reestablish_backups:
                self._try_reestablish_backup(h)

        # Connections already running on a backup have no further
        # protection: losing the backup path drops them.
        for h in live_backup_victims:
            cid = conns.cid_py[h]
            b_min = float(conns.b_min[h])
            bk_idx = conns.bk_slice(h).tolist()
            t.sub_activated(bk_idx, b_min)
            for li in bk_idx:
                self._active_on[li].discard(h)
            del self._h_of[cid]
            conns.free(h, ConnectionState.DROPPED)
            impact.dropped.append(cid)
            self.stats.connections_dropped += 1
            self.stats.double_failure_drops += 1
            affected.update(li for li in bk_idx if not t.failed[li])

        # Primaries through the failed link: release, then try failover.
        for h in primary_victims:
            cid = conns.cid_py[h]
            b_min = float(conns.b_min[h])
            if record:
                impact.direct[cid] = (int(conns.level[h]), 0)
            path = conns.path[h]
            for li in path:
                self._prims_on[li].discard(h)
            t.release_primary(path, b_min, float(conns.conn_extra[h]))
            conns.conn_extra[h] = 0.0
            conns.level[h] = 0
            affected.update(li for li in path if not t.failed[li])

            had_backup = bool(conns.bk_len[h])
            bk_idx = conns.bk_slice(h).tolist() if had_backup else None
            # ``can_activate_backup`` is False on a failed link.
            usable_backup = bk_idx is not None and all(
                t.can_activate_backup(li, b_min) for li in bk_idx
            )
            if (
                usable_backup
                and self.activation_fault_prob > 0.0
                and self._fault_rng is not None
                and float(self._fault_rng.random()) < self.activation_fault_prob
            ):
                usable_backup = False
                impact.activation_faults.append(cid)
                self.stats.activation_faults += 1
            if usable_backup:
                assert bk_idx is not None
                # Retreat rule: primaries sharing the backup's links give
                # up their extras before the backup goes live.
                for bli in bk_idx:
                    for other in self._sorted_by_cid(self._prims_on[bli]):
                        prev, freed = drop_to_minimum_soa(t, conns, other)
                        affected.update(freed)
                        if record:
                            impact.direct.setdefault(conns.cid_py[other], (prev, 0))
                conflict = self._conflict_of(h)
                for li in bk_idx:
                    t.activate_backup(li, b_min, conflict)
                    self._backups_on[li].discard(h)
                    self._active_on[li].add(h)
                conns.state[h] = _FAILED_OVER
                impact.activated.append(cid)
                self.stats.backups_activated += 1
            else:
                if bk_idx is not None:
                    conflict = self._conflict_of(h)
                    for li in bk_idx:
                        t.remove_backup(li, b_min, conflict)
                        self._backups_on[li].discard(h)
                del self._h_of[cid]
                conns.free(h, ConnectionState.DROPPED)
                impact.dropped.append(cid)
                self.stats.connections_dropped += 1
                if had_backup:
                    self.stats.double_failure_drops += 1

        self._redistribute(affected, impact)
        return impact

    def repair_link(self, lid: LinkId) -> EventImpact:
        """Return a failed link to service (no fail-back, as the paper)."""
        impact = EventImpact(kind=EventKind.REPAIR, time=self.now, failed_link=lid)
        self.state.repair_link(lid)
        self.stats.link_repairs += 1
        return impact

    def _try_reestablish_backup(self, h: int) -> bool:
        """Route and reserve a replacement backup for ``h`` (extension)."""
        conns = self.conns
        t = self.links
        qos = conns.qos[h]
        assert qos is not None
        b_min = float(conns.b_min[h])
        path = list(conns.path[h])
        prim_plan = RoutePlan(
            conns.pnode_slice(h).tolist(), [t.link_ids[li] for li in path], path
        )
        path, bplan = self._centralized_backup(prim_plan, b_min, qos)
        if path is None:
            return False
        primary_set = self._conflict_set(prim_plan.link_set)
        if bplan is not None:
            bk_idx = bplan.idx
            bk_nodes = bplan.nodes
            overlap = bplan.overlap
        else:
            links_b = self.topology.path_links(path)
            bk_idx = t.indices_of(links_b)
            bk_nodes = np.asarray(path, dtype=np.int64)
            overlap = sum(1 for lid in links_b if lid in prim_plan.link_set)
        if not t.can_admit_backup_bulk(bk_idx, b_min, primary_set):
            return False
        for li in bk_idx:
            t.add_backup(li, b_min, primary_set)
            self._backups_on[li].add(h)
        self.conns.set_backup(h, bk_idx, bk_nodes, overlap)
        self.stats.backups_reestablished += 1
        return True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def redistribute_all(self) -> Dict[int, int]:
        """Global water-fill over every ACTIVE elastic primary."""
        conns = self.conns
        mask = (conns.state == _ACTIVE) & conns.elastic
        hs = sorted(np.flatnonzero(mask).tolist(), key=conns.cid_py.__getitem__)
        if not hs:
            return {}
        return redistribute_soa(self.links, conns, hs, self.policy)

    def _redistribute(self, affected: Set[int], impact: EventImpact) -> None:
        """Water-fill the affected links and fold the result into ``impact``."""
        if not affected or not self.auto_redistribute:
            return
        sets = self._prims_on
        groups = [sets[li] for li in affected if sets[li]]
        if not groups:
            return
        hset: Set[int] = set().union(*groups)
        conns = self.conns
        hs_list = sorted(hset, key=conns.cid_py.__getitem__)
        if not self.record_trajectories:
            redistribute_soa(self.links, conns, hs_list, self.policy)
            return
        afters: Dict[int, int] = {}
        granted = redistribute_soa(self.links, conns, hs_list, self.policy, afters)
        # Every ``impact.direct`` writer stored ``(before, level at fill
        # start)`` and only the fill moves a level after that, so a
        # riser's post-event level is the fill's ``after``.  Channels
        # dropped by a failure are never candidates: their censored
        # ``(before, 0)`` entry stands.
        direct = impact.direct
        indirect = impact.indirect_changed
        for cid, inc in granted.items():
            after = afters[cid]
            seen = direct.get(cid)
            if seen is None:
                indirect[cid] = (after - inc, after)
            else:
                direct[cid] = (seen[0], after)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Recompute link columns from the raw connection rows and
        cross-check, then audit the index structures.

        The link-level pass hands :meth:`LinkTable.check_invariants` the
        raw per-connection contributions — it never trusts a maintained
        column, mirroring the reference's cache-vs-recount discipline
        at whole-array granularity.
        """
        conns = self.conns
        t = self.links
        strict = not self.state.num_failed and self.stats.link_failures == 0
        live = np.flatnonzero(conns.live_mask())
        primaries = []
        backups = []
        activated = []
        for h in live.tolist():
            b_min = float(conns.b_min[h])
            if int(conns.state[h]) == _ACTIVE:
                primaries.append((conns.path[h], b_min, float(conns.conn_extra[h])))
                if conns.bk_len[h]:
                    backups.append(
                        (conns.bk_slice(h).tolist(), b_min, self._conflict_of(h))
                    )
            else:  # FAILED_OVER
                activated.append((conns.bk_slice(h).tolist(), b_min))
        t.check_invariants(primaries, backups, activated, strict_reservation=strict)

        for name, sets, route in (
            ("primary", self._prims_on, conns.path.__getitem__),
            ("backup", self._backups_on, conns.bk_slice),
            ("activated backup", self._active_on, conns.bk_slice),
        ):
            for li, handles in enumerate(sets):
                for h in handles:
                    if li not in route(h):
                        raise ReservationError(
                            f"index says handle {h} has a {name} on link "
                            f"{t.link_ids[li]} but its route disagrees"
                        )
        ids = list(self._h_of)
        if ids != sorted(ids):
            raise ReservationError("handle map is not in conn-id order")
        for cid, h in self._h_of.items():
            if conns.cid_py[h] != cid or int(conns.state[h]) > _FAILED_OVER:
                raise ReservationError(f"handle map out of sync for connection {cid}")
            if int(conns.state[h]) == _ACTIVE:
                qos = conns.qos[h]
                assert qos is not None
                expected = qos.performance.level_bandwidth(int(conns.level[h]))
                actual = float(conns.b_min[h] + conns.conn_extra[h])
                if abs(actual - expected) > 1e-6:
                    raise ReservationError(
                        f"connection {cid}: reserved {actual} but level "
                        f"{int(conns.level[h])} implies {expected}"
                    )
