"""Route selection: shortest-path, k-shortest, disjoint backup, flooding.

All searches run over compact adjacency rows (see
:meth:`repro.topology.graph.Network.adjacency_rows`); the
candidate-route memo used by the network manager
lives in :mod:`repro.routing.cache`.
"""

from __future__ import annotations

from repro.routing.cache import NO_ROUTE, ArrayRouteCache
from repro.routing.disjoint import (
    disjoint_path,
    maximally_disjoint_path,
    paths_link_disjoint,
    shared_links,
)
from repro.routing.flooding import (
    AllowanceFn,
    FloodingResult,
    FloodRoute,
    bounded_flood,
    flooding_route_pair,
)
from repro.routing.ksp import (
    k_shortest_paths,
    sequential_route_search,
    shortest_paths_iter,
)
from repro.routing.shortest import (
    LinkFilter,
    LinkWeight,
    bfs_path_rows,
    dijkstra_path_rows,
    path_cost,
    path_hops,
    shortest_path,
)

__all__ = [
    "NO_ROUTE",
    "ArrayRouteCache",
    "bfs_path_rows",
    "dijkstra_path_rows",
    "maximally_disjoint_path",
    "shortest_paths_iter",
    "disjoint_path",
    "paths_link_disjoint",
    "shared_links",
    "AllowanceFn",
    "FloodingResult",
    "FloodRoute",
    "bounded_flood",
    "flooding_route_pair",
    "k_shortest_paths",
    "sequential_route_search",
    "LinkFilter",
    "LinkWeight",
    "path_cost",
    "path_hops",
    "shortest_path",
]
