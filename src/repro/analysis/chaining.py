"""Static chaining analysis: Pf and Ps from a network snapshot.

Section 3.3: the chaining probabilities "are network-dependent
parameters … when the underlying network is a regular-topology network,
these probabilities depend solely on the network topology and the
average number of hops of channels."  The simulator estimates them by
averaging over events; this module computes them *exactly* for a given
set of established channels:

* two channels are **directly chained** when their primaries share at
  least one link;
* **indirectly chained** when they are not directly chained but a third
  channel shares a link with both (distance 2 in the channel-overlap
  graph).

For a hypothetical new channel the same quantities are conditional on
its route; averaging over many random routes gives the arrival-time
Pf/Ps the Markov model needs, which the tests cross-check against the
event-averaged estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

import numpy as np

from repro.channels import AnyManager
from repro.errors import EstimationError
from repro.topology.graph import LinkId


@dataclass
class ChainingSnapshot:
    """Exact chaining structure of the current channel population."""

    num_channels: int
    pf: float
    ps: float
    #: Per-channel count of directly-chained peers.
    direct_degree: Dict[int, int]
    #: Per-channel count of indirectly-chained peers.
    indirect_degree: Dict[int, int]

    @property
    def mean_direct_degree(self) -> float:
        """Average number of directly-chained peers per channel."""
        if not self.direct_degree:
            return 0.0
        return sum(self.direct_degree.values()) / len(self.direct_degree)


def snapshot_chaining(manager: AnyManager) -> ChainingSnapshot:
    """Compute exact pairwise chaining over all ACTIVE primaries.

    Pf (Ps) is the probability that a uniformly random ordered pair of
    distinct channels is directly (indirectly) chained — the population
    analogue of the per-event probabilities of §3.2.
    """
    ids: List[int] = sorted(manager.ids_on_links(manager.topology.link_ids()))
    n = len(ids)
    direct_degree: Dict[int, int] = {cid: 0 for cid in ids}
    indirect_degree: Dict[int, int] = {cid: 0 for cid in ids}
    if n < 2:
        return ChainingSnapshot(n, 0.0, 0.0, direct_degree, indirect_degree)

    # Direct neighbours via the per-link index (C-speed set unions).
    neighbours: Dict[int, Set[int]] = {}
    for cid in ids:
        peers = manager.ids_sharing_links((cid,))
        peers.discard(cid)
        neighbours[cid] = peers
        direct_degree[cid] = len(peers)

    total_direct = 0
    total_indirect = 0
    for cid in ids:
        two_hop: Set[int] = set()
        for peer in neighbours[cid]:
            two_hop.update(neighbours.get(peer, ()))
        two_hop -= neighbours[cid]
        two_hop.discard(cid)
        indirect_degree[cid] = len(two_hop)
        total_direct += direct_degree[cid]
        total_indirect += len(two_hop)

    pairs = n * (n - 1)
    return ChainingSnapshot(
        num_channels=n,
        pf=total_direct / pairs,
        ps=total_indirect / pairs,
        direct_degree=direct_degree,
        indirect_degree=indirect_degree,
    )


def chaining_for_route(
    manager: AnyManager, route_links: Sequence[LinkId]
) -> tuple[float, float]:
    """Exact (Pf, Ps) a hypothetical new channel on ``route_links`` sees.

    Returns the fractions of existing ACTIVE channels that would be
    directly / indirectly chained with a channel using that route.
    """
    live = manager.ids_on_links(manager.topology.link_ids())
    if not live:
        raise EstimationError("no live channels to chain against")
    direct = manager.ids_on_links(route_links)
    indirect = manager.ids_sharing_links(direct) - direct
    return len(direct) / len(live), len(indirect) / len(live)


def expected_arrival_chaining(
    manager: AnyManager,
    num_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo (Pf, Ps) for a random future arrival.

    Samples random node pairs, routes them like the manager would
    (shortest admissible path), and averages the exact per-route
    chaining fractions — the static counterpart of the simulator's
    event-averaged estimates.
    """
    from repro.routing.shortest import shortest_path  # local: avoid cycle at import

    if num_samples < 1:
        raise EstimationError("need at least one sample")
    nodes = np.array(manager.topology.nodes())
    pf_acc: List[float] = []
    ps_acc: List[float] = []
    attempts = 0
    while len(pf_acc) < num_samples and attempts < 20 * num_samples:
        attempts += 1
        src, dst = rng.choice(nodes, size=2, replace=False)
        path = shortest_path(manager.topology, int(src), int(dst))
        if path is None:
            continue
        links = manager.topology.path_links(path)
        pf, ps = chaining_for_route(manager, links)
        pf_acc.append(pf)
        ps_acc.append(ps)
    if not pf_acc:
        raise EstimationError("could not route any chaining sample")
    return float(np.mean(pf_acc)), float(np.mean(ps_acc))
