"""The paper's ideal-average-bandwidth formula (Figure 2's dotted line).

"The ideal average bandwidth of the network when all the network
resources are utilized and equally distributed to DR-connections in the
network ... is computed by the following formula:

    bandwidth of one link / avg. no. of realtime channels on one link
        = (BW x Edge) / (NChan x avghop)
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.topology.graph import Network
from repro.topology.metrics import average_shortest_path_hops


def ideal_average_bandwidth(
    link_bandwidth: float, num_edges: int, num_channels: int, average_hops: float
) -> float:
    """Ideal per-channel bandwidth: ``BW * Edge / (NChan * avghop)``."""
    if link_bandwidth <= 0 or num_edges <= 0:
        raise SimulationError("link bandwidth and edge count must be positive")
    if num_channels <= 0 or average_hops <= 0:
        raise SimulationError("channel count and average hops must be positive")
    return link_bandwidth * num_edges / (num_channels * average_hops)


def ideal_for_network(net: Network, num_channels: int) -> float:
    """Ideal bandwidth for a concrete uniform-capacity topology.

    The average hop count of channels is approximated by the topology's
    average shortest-path length, which is what shortest-path routing
    delivers at low load.
    """
    links = net.links()
    if not links:
        raise SimulationError("network has no links")
    capacity = links[0].capacity
    if any(abs(link.capacity - capacity) > 1e-9 for link in links):
        raise SimulationError("ideal formula assumes uniform link capacity")
    avghop = average_shortest_path_hops(net)
    return ideal_average_bandwidth(capacity, net.num_links, num_channels, avghop)
