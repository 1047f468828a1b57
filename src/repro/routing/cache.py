"""Candidate-route memo of the network manager.

Route selection is the dominant cost of connection establishment: every
arrival runs an admission-filtered BFS for the primary and another for
the disjoint backup.  But the *raw* topology those searches run over
only changes on ``fail_link``/``repair_link`` — arrivals and
terminations change load, not connectivity.  :class:`ArrayRouteCache`
exploits that:

* per ``(source, destination)`` pair it lazily enumerates the raw
  candidate routes in ``(hops, node-sequence)`` order (Yen's, via
  :func:`repro.routing.ksp.paths_iter_rows`), each precompiled into a
  :class:`RoutePlan`;
* an arrival re-checks *admission* (which is load-dependent) against
  the cached candidates, cheap per-link headroom reads instead of a
  graph search.

Correctness contract (why cached answers equal a from-scratch search):
the admission-filtered BFS returns the ``(hops, lex)``-least path of
the *admissible* subgraph, and the cache enumerates **all** simple
paths of the live topology in exactly that order.  Admissible paths are
a subset of live paths, so the first enumerated candidate that passes
the admission re-check *is* the BFS answer.  When no probed candidate
passes, the cache answers "unknown" and the caller falls back to the
real filtered search — cache misses can cost a little, but can never
change a route.  When the enumeration is exhausted without a hit, there
is *no* admissible path at all and the cache answers that definitively.
The reference manager (:mod:`repro.reference`) runs the uncached
searches, which is what the twin suite compares against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from repro.network.link_table import LinkTable
from repro.routing.disjoint import maximally_disjoint_path
from repro.routing.ksp import paths_iter_rows
from repro.routing.shortest import bfs_path_rows
from repro.topology.graph import LinkId, Network, link_id
from repro.units import EPSILON


class _NoRouteType:
    """Sentinel type of :data:`NO_ROUTE` (keeps lookups precisely typed)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NO_ROUTE"


#: Definitive answer: no admissible route exists between the endpoints
#: (the raw enumeration was exhausted without an admission hit).
NO_ROUTE = _NoRouteType()


# ----------------------------------------------------------------------
# array-core variant: precompiled plans, entries that outlive failures
# ----------------------------------------------------------------------

#: Adjacency rows over dense link indices: node -> [(nbr, lid, index)].
ArrayAdjacencyRows = Dict[int, List[Tuple[int, LinkId, int]]]


class RoutePlan:
    """Precompiled, admission-ready artifacts of one cached route.

    Everything ``request_connection`` used to derive per arrival —
    the dense link-index list, the int64 node array (the shape the
    ``ConnectionTable`` node arena stores), the ``frozenset`` of link
    ids (conflict-set key), and the dense-index set seeding the
    affected-link frontier — is computed once when the candidate is
    materialized and reused for as long as the owning entry lives (the
    life of the cache for an all-alive entry, one generation for a
    detour).  Plans are shared: callers must treat every field as
    immutable.  The connection table keeps ``idx_list`` itself as the
    connection's primary route, and its node arena copies ``nodes`` on
    append.
    """

    __slots__ = ("path", "links", "idx_list", "nodes", "link_set", "idx_set")

    def __init__(self, path: List[int], links: List[LinkId], idx_list: List[int]) -> None:
        self.path = path
        self.links = links
        self.idx_list = idx_list
        self.nodes = np.asarray(path, dtype=np.int64)
        self.link_set: FrozenSet[LinkId] = frozenset(links)
        self.idx_set: FrozenSet[int] = frozenset(idx_list)


class BackupPlan:
    """Precompiled backup candidate of one primary path.

    Built only by :class:`ArrayRouteCache`: either the fully-disjoint
    BFS answer (``overlap`` zero **by construction**, so callers skip
    the per-arrival overlap count) or, for a primary that has no
    disjoint path, the maximally-disjoint answer with its ``overlap``
    counted once.
    """

    __slots__ = ("path", "links", "idx", "nodes", "overlap")

    def __init__(
        self, path: List[int], links: List[LinkId], idx: List[int], overlap: int
    ) -> None:
        self.path = path
        self.links = links
        self.idx = idx
        self.nodes = np.asarray(path, dtype=np.int64)
        self.overlap = overlap


class _ArrayPairEntry:
    """Candidate routes of one (source, destination) pair (array core)."""

    __slots__ = ("candidates", "producer", "exhausted", "backups")

    def __init__(self, producer: Iterator[List[int]]) -> None:
        self.producer = producer
        self.candidates: List[RoutePlan] = []
        self.exhausted = False
        self.backups: Dict[Tuple[int, ...], Optional[BackupPlan]] = {}


_NONE_FAILED: FrozenSet[int] = frozenset()


class ArrayRouteCache:
    """Candidate-route cache over a :class:`LinkTable` (SoA core).

    Candidates are precompiled :class:`RoutePlan` objects carrying
    dense link-index lists and the derived sets an admission needs,
    and the admission re-check reads the table's materialized
    ``headroom`` list directly per candidate link.

    The cache does not discard what a failure does not touch.  Raw routes depend on connectivity, not load, and
    removing links removes paths without reordering the rest: the
    ``(hops, lex)`` enumeration over the topology minus the failed
    links F *is* the all-alive enumeration minus the paths through F.
    So every search over the **all-alive** topology (``_pairs`` and the
    maximally-disjoint memo ``_partials``) happens at most once and its
    answer lives as long as the cache.  Only a pair whose probed
    all-alive candidate (or memoised disjoint backup) crosses a
    currently failed link takes the **detour**: an entry enumerated
    over the live topology, good for one generation (``_detours`` is
    emptied whenever the caller's ``generation`` counter, bumped on
    every fail/repair, moves).  Either way the candidates probed are
    the first ``probe_limit`` of the live enumeration, so routes,
    ``hits`` and ``fallbacks`` equal those of a cache rebuilt from
    scratch at every generation.
    """

    def __init__(
        self,
        topology: Network,
        links: LinkTable,
        rows: ArrayAdjacencyRows,
        probe_limit: int = 4,
        max_pairs: int = 65536,
    ) -> None:
        if probe_limit < 1:
            raise ValueError(f"probe_limit must be at least 1, got {probe_limit}")
        self.topology = topology
        self.links = links
        self.rows = rows
        self.probe_limit = probe_limit
        self.max_pairs = max_pairs
        #: All-alive entries: never invalidated.
        self._pairs: Dict[Tuple[int, int], _ArrayPairEntry] = {}
        #: Live-topology entries of failure-affected pairs; one generation.
        self._detours: Dict[Tuple[int, int], _ArrayPairEntry] = {}
        #: Primary path -> all-alive maximally-disjoint plan; never invalidated.
        self._partials: Dict[Tuple[int, ...], Optional[BackupPlan]] = {}
        self._generation: Optional[int] = None
        self._failed_idx: FrozenSet[int] = _NONE_FAILED
        self._failed_lids: FrozenSet[LinkId] = frozenset()
        self.hits = 0
        self.fallbacks = 0

    def _new_generation(self, generation: int) -> None:
        """Drop the detours and re-read which links are down."""
        self._generation = generation
        self._detours.clear()
        link_ids = self.links.link_ids
        down = [li for li, failed in enumerate(self.links.failed) if failed]
        self._failed_idx = frozenset(down)
        self._failed_lids = frozenset(link_ids[li] for li in down)

    def _entry(self, source: int, destination: int, detour: bool = False) -> _ArrayPairEntry:
        pairs = self._detours if detour else self._pairs
        key = (source, destination)
        entry = pairs.get(key)
        if entry is None:
            if len(pairs) >= self.max_pairs:
                pairs.clear()
            blocked = self._failed_lids if detour else frozenset()
            entry = _ArrayPairEntry(
                paths_iter_rows(self.rows, source, destination, None, blocked)
            )
            pairs[key] = entry
        return entry

    def _candidate(self, entry: _ArrayPairEntry, index: int) -> Optional[RoutePlan]:
        while len(entry.candidates) <= index and not entry.exhausted:
            path = next(entry.producer, None)
            if path is None:
                entry.exhausted = True
                break
            links = [link_id(a, b) for a, b in zip(path, path[1:])]
            entry.candidates.append(RoutePlan(path, links, self.links.indices_of(links)))
        if index < len(entry.candidates):
            return entry.candidates[index]
        return None

    def primary_plan(
        self, source: int, destination: int, b_min: float, generation: int
    ) -> Optional[RoutePlan | _NoRouteType]:
        """First precompiled candidate admitting a primary of ``b_min``.

        A shared :class:`RoutePlan` hit (treat as immutable),
        :data:`NO_ROUTE` when the exhausted enumeration proves no
        admissible route exists, or ``None`` when all probed candidates
        failed (caller falls back to a search).

        The per-link test is the admission rule the manager's search
        fallback filters with: alive and ``b_min <= headroom + EPSILON``.
        Aliveness is settled per plan against the generation's failed
        set, so the per-link probe reads ``headroom`` alone.
        """
        if generation != self._generation:
            self._new_generation(generation)
        failed = self._failed_idx
        entry = self._entry(source, destination)
        headroom = self.links.headroom
        index = 0
        while index < self.probe_limit:
            plan = self._candidate(entry, index)
            if plan is None:
                return NO_ROUTE
            if failed and not failed.isdisjoint(plan.idx_set):
                # A probed all-alive candidate is down, so the live
                # enumeration's leading candidates are not these: start
                # over on the pair's detour, which crosses no failed link.
                entry = self._entry(source, destination, detour=True)
                failed = _NONE_FAILED
                index = 0
                continue
            for li in plan.idx_list:
                if b_min > headroom[li] + EPSILON:
                    break
            else:
                self.hits += 1
                return plan
            index += 1
        self.fallbacks += 1
        return None

    def raw_disjoint_backup(
        self,
        source: int,
        destination: int,
        primary_path: Tuple[int, ...],
        avoid: FrozenSet[LinkId],
        generation: int,
    ) -> Optional[BackupPlan]:
        """Raw-topology fully-disjoint backup plan for ``primary_path``.

        The shortest live path avoiding ``avoid`` entirely, ignoring
        load.  ``None`` means no fully disjoint live path exists at all:
        an admission-filtered disjoint search cannot succeed either, and
        the caller may go straight to the maximally-disjoint fallback.
        The returned plan is shared; treat it as immutable.
        """
        if generation != self._generation:
            self._new_generation(generation)
        plan = self._disjoint(self._entry(source, destination), primary_path, avoid)
        failed = self._failed_idx
        if plan is None or not failed or failed.isdisjoint(plan.idx):
            # The least path of a graph that survives in a subgraph is
            # the subgraph's least path; none at all stays none.
            return plan
        return self._disjoint(
            self._entry(source, destination, detour=True),
            primary_path,
            avoid | self._failed_lids,
        )

    def _disjoint(
        self,
        entry: _ArrayPairEntry,
        primary_path: Tuple[int, ...],
        blocked: FrozenSet[LinkId],
    ) -> Optional[BackupPlan]:
        """``entry``'s memoised BFS answer for ``primary_path``."""
        try:
            return entry.backups[primary_path]
        except KeyError:
            pass
        if len(entry.backups) >= 64:  # unbounded-primary-key guard
            entry.backups.clear()
        path = bfs_path_rows(
            self.rows, primary_path[0], primary_path[-1], None, blocked
        )
        plan = self._backup_plan(path, 0) if path is not None else None
        entry.backups[primary_path] = plan
        return plan

    def _backup_plan(self, path: List[int], overlap: int) -> BackupPlan:
        links = [link_id(a, b) for a, b in zip(path, path[1:])]
        return BackupPlan(path, links, self.links.indices_of(links), overlap)

    def raw_partial_backup(
        self, primary_path: Tuple[int, ...], avoid: FrozenSet[LinkId]
    ) -> Optional[BackupPlan]:
        """All-alive, load-free maximally-disjoint plan for ``primary_path``.

        A candidate, like the others: the caller re-checks it against
        the load- and failure-dependent backup admission and, when
        every link passes, it *is* what the filtered
        :func:`maximally_disjoint_path` would return.  (Dijkstra's
        parent of a node is its first-settled optimal predecessor in
        ``(dist, node)`` order; deleting edges off the winning path
        raises no distance on it and adds no optimal predecessor, so
        every parent along it — hence the path — is unchanged.)  When a
        link fails the re-check the caller runs the filtered search.
        """
        try:
            return self._partials[primary_path]
        except KeyError:
            pass
        if len(self._partials) >= self.max_pairs:
            self._partials.clear()
        found = maximally_disjoint_path(
            self.topology, primary_path[0], primary_path[-1], avoid
        )
        plan = self._backup_plan(*found) if found is not None else None
        self._partials[primary_path] = plan
        return plan

    def clear(self) -> None:
        """Drop every memoised search (tests / explicit invalidation)."""
        self._pairs.clear()
        self._detours.clear()
        self._partials.clear()

    def __len__(self) -> int:
        return len(self._pairs) + len(self._detours) + len(self._partials)
