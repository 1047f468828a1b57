"""Admission-aware shortest-path route selection.

The paper's network manager "selects a route between the source and
destination of the channel along which sufficient resources can be
reserved" and notes that the request that arrives first at the
destination "is likely to have traversed the shortest path".  This
module provides the centralized equivalent: hop-count (or
length-weighted) Dijkstra restricted to links that pass a caller-
supplied admission predicate.  The distributed equivalent (bounded
flooding) lives in :mod:`repro.routing.flooding` and finds the same
routes at higher message cost.

Hot-path layout: every search here runs over *compact adjacency rows*
(``node -> [(neighbor, link_id, payload), ...]``, sorted by neighbor —
see :meth:`Network.adjacency_rows`), iterating prebuilt arrays instead
of calling ``neighbors()`` (which sorts) plus ``get_link()`` (a dict
lookup) per edge.  The rows-based cores :func:`bfs_path_rows` and
:func:`dijkstra_path_rows` are shared by the k-shortest enumeration,
the disjoint backup search, and the manager's admission-aware searches
(whose rows carry the link's dense table index).  Links and
nodes a search must avoid go to :func:`bfs_path_rows` as sets, tested
inline; a Python predicate per edge is only for what depends on the
row payload.

Determinism contract (relied on by the route cache): with the hop
metric, :func:`bfs_path_rows` returns the unique path that minimizes
``(hops, node-sequence)`` lexicographically among all admissible paths.
BFS over neighbor-sorted rows discovers each layer in lexicographic
order of tree paths, so each node's parent is the one reached by the
lexicographically smallest shortest prefix — identical inputs always
yield the identical route (reproducibility), and the (hops, lex)-least
admissible path is exactly what a full candidate enumeration would
accept first.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import RoutingError
from repro.topology.graph import Link, LinkId, Network

#: Predicate deciding whether a link may carry the new channel.
LinkFilter = Callable[[Link], bool]

#: Per-link cost function for weighted routing.
LinkWeight = Callable[[Link], float]

#: Rows-based edge predicate: ``(link_id, payload) -> usable?`` where the
#: payload is whatever the rows carry (a ``Link`` for topology rows, a
#: dense link index for the array core's rows).
EdgeFilter = Callable[[LinkId, object], bool]

#: Rows-based edge cost: ``(link_id, payload) -> weight``.
EdgeWeight = Callable[[LinkId, object], float]

#: Compact adjacency mapping (payload type intentionally loose).
AdjacencyRows = Mapping[int, Sequence[Tuple[int, LinkId, object]]]


def _check_endpoints(net: Network, source: int, destination: int) -> None:
    if not net.has_node(source):
        raise RoutingError(f"unknown source node {source}")
    if not net.has_node(destination):
        raise RoutingError(f"unknown destination node {destination}")
    if source == destination:
        raise RoutingError(f"source and destination coincide ({source})")


def shortest_path(
    net: Network,
    source: int,
    destination: int,
    link_filter: Optional[LinkFilter] = None,
    weight: Optional[LinkWeight] = None,
) -> Optional[List[int]]:
    """Shortest admissible path as a node list, or ``None`` if cut off.

    Args:
        net: Topology to route over.
        source: Origin node.
        destination: Target node.
        link_filter: Links failing this predicate are invisible
            (defaults to all links usable).
        weight: Per-link cost; ``None`` means hop count, which uses a
            plain BFS fast path.

    Ties are broken deterministically toward lower node numbers so that
    identical inputs always yield identical routes (reproducibility).
    """
    _check_endpoints(net, source, destination)
    rows = net.adjacency_rows()
    if weight is None:
        if link_filter is None:
            return bfs_path_rows(rows, source, destination)
        return bfs_path_rows(
            rows, source, destination, lambda lid, link: link_filter(link)
        )
    edge_weight = lambda lid, link: weight(link)  # noqa: E731 - tiny shim
    if link_filter is None:
        return dijkstra_path_rows(rows, source, destination, None, edge_weight)
    return dijkstra_path_rows(
        rows, source, destination, lambda lid, link: link_filter(link), edge_weight
    )


def bfs_path_rows(
    rows: AdjacencyRows,
    source: int,
    destination: int,
    edge_ok: Optional[EdgeFilter] = None,
    blocked_links: Collection[LinkId] = (),
    blocked_nodes: Iterable[int] = (),
) -> Optional[List[int]]:
    """Hop-count shortest path over compact adjacency rows.

    The core of every unweighted search in the library.  Returns the
    (hops, node-sequence)-lexicographically least admissible path (see
    the module docstring), or ``None`` when the destination is cut off.

    ``blocked_links`` (pass a set) and ``blocked_nodes`` remove links
    and nodes from the graph without a Python call per edge — what
    Yen's spur searches and the disjoint-backup search need; ``edge_ok``
    remains for predicates over the row payload.  A blocked node is
    never entered (a blocked ``source`` still starts the search).
    """
    if source == destination:
        return [source]
    # Blocked nodes are pre-marked as visited, so the per-edge visited
    # test covers them at no extra cost.
    parent: Dict[int, int] = dict.fromkeys(blocked_nodes, -1)
    parent[source] = source
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nbr, lid, payload in rows.get(node, ()):
            if nbr in parent or lid in blocked_links:
                continue
            if edge_ok is not None and not edge_ok(lid, payload):
                continue
            parent[nbr] = node
            if nbr == destination:
                # A node's first discovery fixes its parent for good, so
                # the rest of the frontier cannot change the answer.
                return _walk_back(parent, source, destination)
            queue.append(nbr)
    return None


def dijkstra_path_rows(
    rows: AdjacencyRows,
    source: int,
    destination: int,
    edge_ok: Optional[EdgeFilter],
    edge_weight: EdgeWeight,
) -> Optional[List[int]]:
    """Weighted shortest path over compact adjacency rows (Dijkstra)."""
    dist: Dict[int, float] = {source: 0.0}
    parent: Dict[int, int] = {source: source}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    settled: set[int] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == destination:
            break
        for nbr, lid, payload in rows.get(node, ()):
            if nbr in settled:
                continue
            if edge_ok is not None and not edge_ok(lid, payload):
                continue
            w = edge_weight(lid, payload)
            if w < 0:
                raise RoutingError(f"negative link weight {w} on {lid}")
            cand = d + w
            if cand < dist.get(nbr, float("inf")) - 1e-15:
                dist[nbr] = cand
                parent[nbr] = node
                heapq.heappush(heap, (cand, nbr))
    if destination not in parent:
        return None
    return _walk_back(parent, source, destination)


def _walk_back(parent: Dict[int, int], source: int, destination: int) -> List[int]:
    path = [destination]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def path_hops(path: Sequence[int]) -> int:
    """Number of links in a node path."""
    if len(path) < 2:
        raise RoutingError(f"path {list(path)} has no links")
    return len(path) - 1


def path_cost(net: Network, path: Sequence[int], weight: Optional[LinkWeight] = None) -> float:
    """Total cost of a node path under ``weight`` (hop count by default)."""
    links = [net.get_link(a, b) for a, b in zip(path, path[1:])]
    if weight is None:
        return float(len(links))
    return sum(weight(link) for link in links)


def reachable_filterless(net: Network, source: int) -> set[int]:
    """All nodes reachable from ``source`` ignoring filters (diagnostics)."""
    rows = net.adjacency_rows()
    seen = {source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nbr, _lid, _link in rows.get(node, ()):
            if nbr not in seen:
                seen.add(nbr)
                queue.append(nbr)
    return seen
