#!/usr/bin/env python3
"""Video service with elastic QoS — the paper's motivating workload.

The paper's running example: "a video service requires at least
100 Kb/s for recognizable continuous images and 500 Kb/s for a
high-quality image."  This example runs a mixed population of video
clients over a campus-scale network:

* *standard* clients (utility 1) accept anything in 100..500 Kb/s;
* *premium* clients (utility 4) pay for priority on spare bandwidth;
* a handful of *telemetry* channels use single-value 50 Kb/s contracts
  (no elasticity) but demand a backup, mimicking the paper's
  reliability-critical command & control traffic.

It then compares the adaptation policies' effect on what each class of
viewer actually experiences.

Run:  python examples/video_service.py
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro import make_manager
from repro.elastic import EqualShare, MaxUtility, UtilityProportional
from repro.qos import ConnectionQoS, DependabilityQoS, ElasticQoS, single_value_qos
from repro.topology import TransitStubParams, transit_stub_network


def video_contract(premium: bool) -> ConnectionQoS:
    """An elastic video channel; premium viewers carry 4x utility."""
    return ConnectionQoS(
        performance=ElasticQoS(
            b_min=100.0,
            b_max=500.0,
            increment=50.0,
            utility=4.0 if premium else 1.0,
        ),
        dependability=DependabilityQoS(num_backups=1),
    )


def telemetry_contract() -> ConnectionQoS:
    """A fixed-rate, fault-tolerant telemetry channel."""
    return ConnectionQoS(
        performance=single_value_qos(50.0),
        dependability=DependabilityQoS(num_backups=1),
    )


def quality_label(bandwidth: float) -> str:
    """Map a video bitrate to a user-facing quality tier."""
    if bandwidth >= 450.0:
        return "HD"
    if bandwidth >= 250.0:
        return "SD+"
    if bandwidth >= 150.0:
        return "SD"
    return "minimum"


def main() -> None:
    rng = np.random.default_rng(11)
    # A campus-like transit-stub network: two backbones, edge stubs.
    net = transit_stub_network(
        TransitStubParams(
            transit_domains=2,
            transit_nodes_per_domain=4,
            stub_domains_per_transit_node=2,
            stub_nodes_per_domain=5,
        ),
        capacity=10_000.0,
        rng=rng,
    )
    print(f"campus network: {net.num_nodes} nodes, {net.num_links} links")

    # One fixed request sequence so the policy comparison is apples to apples.
    pair_rng = np.random.default_rng(5)
    nodes = np.array(net.nodes())
    requests = []
    for i in range(260):
        src, dst = pair_rng.choice(nodes, size=2, replace=False)
        if i % 13 == 0:
            qos = telemetry_contract()
            kind = "telemetry"
        else:
            premium = i % 3 == 0
            qos = video_contract(premium)
            kind = "premium" if premium else "standard"
        requests.append((int(src), int(dst), qos, kind))

    for policy in (EqualShare(), UtilityProportional(), MaxUtility()):
        manager = make_manager(net, policy=policy)
        kinds = {}
        for src, dst, qos, kind in requests:
            conn, _ = manager.request_connection(src, dst, qos)
            if conn is not None:
                kinds[conn.conn_id] = kind

        by_kind = defaultdict(list)
        for cid, kind in kinds.items():
            if manager.is_live(cid):
                by_kind[kind].append(manager.connection(cid).bandwidth)

        print(f"\npolicy: {policy.name}")
        print(f"  admitted {manager.stats.accepted}/{manager.stats.requests} "
              f"(rejected: {manager.stats.rejected_no_primary} no-route, "
              f"{manager.stats.rejected_no_backup} no-backup)")
        for kind in ("premium", "standard", "telemetry"):
            rates = by_kind.get(kind, [])
            if not rates:
                continue
            mean = float(np.mean(rates))
            print(f"  {kind:9s}: n={len(rates):3d}  avg {mean:5.0f} Kb/s  "
                  f"typical quality: {quality_label(mean)}")

    print(
        "\nNote how max-utility lets premium viewers monopolise spare "
        "bandwidth (the behaviour §2.2 of the paper warns about), while "
        "the coefficient scheme shares it proportionally."
    )


if __name__ == "__main__":
    main()
