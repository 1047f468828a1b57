"""Ablation A3: adaptation policies (equal share / coefficient / max-utility).

Section 2.2 of the paper contrasts the max-utility scheme (which "allows
a real-time channel to monopolize all the extra resources even when its
utility is slightly higher than the others") with the coefficient scheme
(proportional sharing).  This ablation runs a two-class workload — half
the clients with utility 1, half with utility 4 — under each policy and
reports per-class average bandwidth plus aggregate utility.

Each policy leg is a self-contained, picklable job (topology rebuilt
from a :class:`TopologySpec` inside the worker), so the three legs fan
out over :func:`repro.parallel.parallel_map` when ``REPRO_JOBS`` > 1.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import archive, bench_jobs
from repro.analysis.report import render_table
from repro.channels import make_manager
from repro.elastic.policies import policy_by_name
from repro.parallel import TopologySpec, parallel_map
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.units import PAPER_B_MAX, PAPER_B_MIN, PAPER_LINK_CAPACITY


def contract(utility: float) -> ConnectionQoS:
    return ConnectionQoS(
        performance=ElasticQoS(
            b_min=PAPER_B_MIN, b_max=PAPER_B_MAX, increment=50.0, utility=utility
        ),
        dependability=DependabilityQoS(num_backups=1),
    )


def _run_policy_leg(spec):
    """One policy over the shared request sequence (module-level: picklable)."""
    policy_name, topology, offered, pair_seed = spec
    net = topology.build()
    manager = make_manager(net, policy=policy_by_name(policy_name))
    pair_rng = np.random.default_rng(pair_seed)
    nodes = np.array(net.nodes())
    for i in range(offered):
        src, dst = pair_rng.choice(nodes, size=2, replace=False)
        manager.request_connection(int(src), int(dst), contract(4.0 if i % 2 else 1.0))
    by_class = {1.0: [], 4.0: []}
    total_utility = 0.0
    for cid in manager.live_connection_ids():
        conn = manager.connection(cid)
        extras = conn.bandwidth - conn.qos.performance.b_min
        total_utility += conn.qos.performance.utility * extras
        by_class[conn.qos.performance.utility].append(conn.bandwidth)
    return [
        policy_name,
        float(np.mean(by_class[1.0])),
        float(np.mean(by_class[4.0])),
        manager.average_live_bandwidth(),
        total_utility,
    ]


def test_policy_ablation(benchmark, scale):
    topology = TopologySpec(
        "waxman",
        PAPER_LINK_CAPACITY,
        scale.settings.seed,
        nodes=scale.nodes,
        edges=scale.edges,
    )
    offered = max(scale.figure2_counts)
    pair_seed = scale.settings.seed + 1
    specs = [
        (name, topology, offered, pair_seed)
        for name in ("equal-share", "utility-proportional", "max-utility")
    ]

    rows = benchmark.pedantic(
        lambda: parallel_map(_run_policy_leg, specs, jobs=bench_jobs()),
        rounds=1,
        iterations=1,
    )
    table = render_table(
        ["policy", "avg bw u=1", "avg bw u=4", "avg bw all", "total utility"],
        rows,
        title=f"Ablation A3 — adaptation policy, two utility classes ({offered} offered)",
    )
    archive("ablation_policy", table)

    equal, proportional, greedy = rows
    # Equal share ignores utility: both classes within a few Kb/s.
    assert abs(equal[1] - equal[2]) < 30.0
    # Proportional favours the utility-4 class.
    assert proportional[2] > proportional[1]
    # Max-utility starves the low class hardest and tops total utility.
    assert greedy[1] <= proportional[1] + 1e-9
    assert greedy[4] >= equal[4] - 1e-9
