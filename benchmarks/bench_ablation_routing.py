"""Ablation A6: route-selection engines — centralized Dijkstra vs.
bounded flooding.

Section 2.1.1 of the paper discusses both: the centralized approach
"can select an 'optimal' route" but is a bottleneck; distributed
bounded flooding finds routes quickly "but it induces a large traffic
overhead".  This ablation offers the same request sequence to both
engines and compares acceptance, bandwidth and path quality, then
measures the flooding message overhead directly.

Each engine leg rebuilds its own topology from a picklable
:class:`TopologySpec` and fans out over
:func:`repro.parallel.parallel_map` when ``REPRO_JOBS`` > 1.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import archive, bench_jobs
from repro.analysis.experiments import paper_connection_qos
from repro.analysis.report import render_table
from repro.channels import make_manager
from repro.parallel import TopologySpec, parallel_map
from repro.routing.flooding import bounded_flood
from repro.units import PAPER_B_MIN, PAPER_LINK_CAPACITY


def _run_engine_leg(spec):
    """One routing engine over the shared request sequence (picklable)."""
    engine, topology, offered, pair_seed = spec
    net = topology.build()
    pair_rng = np.random.default_rng(pair_seed)
    nodes = np.array(net.nodes())
    requests = [tuple(map(int, pair_rng.choice(nodes, size=2, replace=False)))
                for _ in range(offered)]
    qos = paper_connection_qos()
    manager = make_manager(net, routing=engine)
    for src, dst in requests:
        manager.request_connection(src, dst, qos)
    hops = [len(manager.connection(cid).primary_links) for cid in manager.live_connection_ids()]
    return [
        engine,
        manager.stats.accepted,
        manager.stats.acceptance_ratio,
        manager.average_live_bandwidth(),
        float(np.mean(hops)) if hops else 0.0,
    ]


def test_routing_ablation(benchmark, scale):
    topology = TopologySpec(
        "waxman",
        PAPER_LINK_CAPACITY,
        scale.settings.seed,
        nodes=scale.nodes,
        edges=scale.edges,
    )
    offered = scale.figure2_counts[len(scale.figure2_counts) // 2]
    pair_seed = scale.settings.seed + 5
    specs = [
        (engine, topology, offered, pair_seed) for engine in ("dijkstra", "flooding")
    ]

    rows = benchmark.pedantic(
        lambda: parallel_map(_run_engine_leg, specs, jobs=bench_jobs()),
        rounds=1,
        iterations=1,
    )

    # Message overhead of flooding on the raw topology, averaged over a
    # sample of random pairs (Dijkstra's cost is one link-state lookup
    # per edge, i.e. "free" in message terms for the central manager).
    net = topology.build()
    nodes = np.array(net.nodes())
    sample_rng = np.random.default_rng(scale.settings.seed + 6)
    messages = []
    for _ in range(30):
        src, dst = map(int, sample_rng.choice(nodes, size=2, replace=False))
        flood = bounded_flood(
            net, src, dst, PAPER_B_MIN, lambda link: PAPER_LINK_CAPACITY, hop_bound=12
        )
        messages.append(flood.messages_sent)

    table = render_table(
        ["engine", "accepted", "acceptance", "avg bw Kb/s", "avg primary hops"],
        rows,
        precision=3,
        title=f"Ablation A6 — routing engine ({offered} offered)",
    )
    overhead = (
        f"bounded flooding overhead: mean {np.mean(messages):.0f} messages/request "
        f"(max {max(messages)}) vs. 0 for the centralized engine"
    )
    archive("ablation_routing", table + "\n" + overhead)

    dijkstra, flooding = rows
    # Both engines find routes; acceptance should be in the same ballpark.
    assert flooding[1] > 0.7 * dijkstra[1]
    # Flooding confirms the first-arriving (i.e. shortest) copies, so its
    # average path length stays close to Dijkstra's.
    assert flooding[4] < dijkstra[4] + 1.5
    # And it is, as the paper says, message-hungry.
    assert np.mean(messages) > net.num_links / 4
