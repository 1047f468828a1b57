"""Yen's k-shortest loopless paths, as a lazy generator.

Used by the sequential route-search strategy ("all possible routes are
checked one by one until a qualified one is found", paper §2.1.1), by
the manager's candidate-route cache, by tests that need route
diversity, and by the routing ablation benchmark.

:func:`shortest_paths_iter` enumerates *all* loopless paths between two
nodes in ``(hops, node-sequence)`` lexicographic order, computing each
next path only when the consumer asks for it: the first path costs one
BFS, and the spur searches of Yen's algorithm run only when a second
path is actually pulled.  Candidate deviations are kept in a heap
(``(cost, path)`` tuples), so accepting a path is ``O(log n)`` instead
of re-sorting the whole candidate list as the previous eager
implementation did.  The enumeration order is bitwise identical to that
implementation: the heap pops candidates in exactly the
``sort(key=(cost, path))`` order, and the spur searches use the same
neighbor-sorted BFS tie-breaking.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Collection, Iterator, List, Optional, Set, Tuple

from repro.errors import RoutingError
from repro.routing.shortest import (
    AdjacencyRows,
    EdgeFilter,
    LinkFilter,
    _check_endpoints,
    bfs_path_rows,
)
from repro.topology.graph import LinkId, Network, link_id


def shortest_paths_iter(
    net: Network,
    source: int,
    destination: int,
    link_filter: Optional[LinkFilter] = None,
) -> Iterator[List[int]]:
    """Lazily enumerate loopless shortest paths (hop metric), best first.

    Classic Yen's algorithm over the admissible subgraph; deterministic
    given the deterministic underlying shortest-path (ours breaks ties
    by node number).  Endpoint validation happens eagerly; path
    computation happens on demand.
    """
    _check_endpoints(net, source, destination)
    rows = net.adjacency_rows()
    edge_ok: Optional[EdgeFilter] = None
    if link_filter is not None:
        edge_ok = lambda lid, link: link_filter(link)  # noqa: E731
    return paths_iter_rows(rows, source, destination, edge_ok)


def paths_iter_rows(
    rows: AdjacencyRows,
    source: int,
    destination: int,
    edge_ok: Optional[EdgeFilter] = None,
    blocked_links: Collection[LinkId] = (),
) -> Iterator[List[int]]:
    """Rows-based core of :func:`shortest_paths_iter`.

    Takes compact adjacency rows directly so callers holding live-state
    rows (the route cache) can enumerate without per-edge dict lookups.
    ``blocked_links`` (a set) removes links from the graph natively —
    enumerating with a link blocked yields exactly the unblocked
    enumeration minus the paths that cross it, in the same order.
    """
    first = bfs_path_rows(rows, source, destination, edge_ok, blocked_links)
    if first is None:
        return
    yield first
    paths: List[List[int]] = [first]
    #: Deviation candidates as (cost, path); heap order == (cost, lex).
    candidates: List[Tuple[float, List[int]]] = []
    seen: Set[Tuple[int, ...]] = {tuple(first)}

    while True:
        prev = paths[-1]
        for i in range(len(prev) - 1):
            spur_node = prev[i]
            root = prev[: i + 1]
            # Yen's spur graph: drop the next link of every accepted
            # path sharing this root, and the root's own nodes.
            removed_links: Set[LinkId] = set(blocked_links)
            for path in paths:
                if len(path) > i and path[: i + 1] == root:
                    removed_links.add(link_id(path[i], path[i + 1]))
            spur = bfs_path_rows(
                rows, spur_node, destination, edge_ok, removed_links, root[:-1]
            )
            if spur is None:
                continue
            total = root[:-1] + spur
            key = tuple(total)
            if key in seen:
                continue
            seen.add(key)
            heapq.heappush(candidates, (float(len(total) - 1), total))
        if not candidates:
            return
        _, best = heapq.heappop(candidates)
        paths.append(best)
        yield best


def k_shortest_paths(
    net: Network,
    source: int,
    destination: int,
    k: int,
    link_filter: Optional[LinkFilter] = None,
) -> List[List[int]]:
    """Up to ``k`` loopless shortest paths (hop metric), shortest first."""
    if k < 1:
        raise RoutingError(f"k must be at least 1, got {k}")
    return list(islice(shortest_paths_iter(net, source, destination, link_filter), k))


def sequential_route_search(
    net: Network,
    source: int,
    destination: int,
    admissible: LinkFilter,
    max_candidates: int = 10,
) -> Optional[List[int]]:
    """The paper's *sequential* search strategy.

    Enumerates shortest routes of the raw topology one by one (ignoring
    load) and returns the first whose every link passes ``admissible`` —
    mirroring "shortest routes are picked and checked first,
    sequentially one by one".  Returns ``None`` when ``max_candidates``
    routes were tried without success.

    Thanks to the lazy enumeration, an arrival whose very first
    shortest route is admissible pays exactly one BFS; Yen's spur
    searches only run for arrivals whose early candidates are rejected.
    """
    if max_candidates < 1:
        raise RoutingError(f"max_candidates must be at least 1, got {max_candidates}")
    paths = shortest_paths_iter(net, source, destination)
    for path in islice(paths, max_candidates):
        links = [net.get_link(a, b) for a, b in zip(path, path[1:])]
        if all(admissible(link) for link in links):
            return path
    return None
