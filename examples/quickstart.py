#!/usr/bin/env python3
"""Quickstart: one DR-connection with elastic QoS, end to end.

Builds a small random network, establishes a dependable real-time
connection (primary + link-disjoint backup), shows elastic bandwidth in
action (reclamation on arrival, recovery on termination), injects a
link failure to trigger backup activation, and finally runs the paper's
Markov model on simulated parameters.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    ElasticQoSMarkovModel,
    ElasticQoSSimulator,
    SimulationConfig,
    make_manager,
    paper_connection_qos,
    paper_random_network,
)
from repro.topology import average_degree, average_shortest_path_hops, diameter


def banner(text: str) -> None:
    print(f"\n=== {text} ===")


def main() -> None:
    rng = np.random.default_rng(7)
    capacity = 10_000.0  # 10 Mb/s per link, as in the paper
    net = paper_random_network(capacity, rng, n=40, target_edges=90)
    banner("Topology")
    print(
        f"Waxman random network: {net.num_nodes} nodes, {net.num_links} links, "
        f"avg degree {average_degree(net):.2f}, diameter {diameter(net)}, "
        f"avg hops {average_shortest_path_hops(net):.2f}"
    )

    qos = paper_connection_qos()  # 100..500 Kb/s elastic, Δ=50, one backup
    manager = make_manager(net)

    banner("Establish a DR-connection")
    conn, _ = manager.request_connection(0, net.num_nodes - 1, qos)
    assert conn is not None, "establishment failed on an empty network?"
    print(f"contract: {conn.qos.describe()}")
    print(f"primary route: {conn.primary_path}")
    print(f"backup  route: {conn.backup_path} (overlap {conn.backup_overlap})")
    print(f"bandwidth now: {conn.bandwidth:.0f} Kb/s (level {conn.level})")
    print("-> alone in the network, the connection is pumped to its maximum")

    banner("Elasticity under contention")
    rng_pairs = np.random.default_rng(1)
    nodes = np.array(net.nodes())
    others = []
    for _ in range(60):
        src, dst = rng_pairs.choice(nodes, size=2, replace=False)
        other, _ = manager.request_connection(int(src), int(dst), qos)
        if other is not None:
            others.append(other)
    print(f"admitted {len(others)} more connections")
    # A record is a snapshot: read it again to see what the arrivals did.
    conn = manager.connection(conn.conn_id)
    print(f"our bandwidth now: {conn.bandwidth:.0f} Kb/s (level {conn.level})")
    print(f"network-wide average: {manager.average_live_bandwidth():.0f} Kb/s")

    banner("Failure recovery")
    victim_link = conn.primary_links[0]
    impact = manager.fail_link(victim_link)
    print(f"failed link {victim_link}: activated={impact.activated}, "
          f"dropped={impact.dropped}, lost backups={impact.lost_backup}")
    conn = manager.connection(conn.conn_id)
    print(f"our connection state: {conn.state.value}, "
          f"bandwidth {conn.bandwidth:.0f} Kb/s on the backup route")

    banner("The paper's Markov model")
    config = SimulationConfig(
        qos=qos, offered_connections=150, warmup_events=100, measure_events=600
    )
    result = ElasticQoSSimulator(net, config, seed=3).run()
    model = ElasticQoSMarkovModel(qos.performance, result.params)
    print(model.describe())
    print(f"\nsimulation measured: {result.average_bandwidth:.1f} Kb/s "
          f"(model vs sim error "
          f"{abs(model.average_bandwidth() - result.average_bandwidth) / result.average_bandwidth:.1%})")


if __name__ == "__main__":
    main()
