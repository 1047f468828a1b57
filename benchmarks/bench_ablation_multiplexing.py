"""Ablation A2: backup-channel multiplexing on vs. off.

The paper (§2.1.2): "The amount of resources to be reserved for backup
channels can be reduced by multiplexing multiple backups, or overbooking
resources."  This ablation offers the same request sequence to a manager
with multiplexing enabled and one where every backup reservation is
accounted separately, and reports acceptance and reservation totals.

The two legs are independent, picklable jobs (topology rebuilt from a
:class:`TopologySpec` in the worker) and fan out over
:func:`repro.parallel.parallel_map` when ``REPRO_JOBS`` > 1.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import archive, bench_jobs
from repro.analysis.experiments import paper_connection_qos
from repro.analysis.report import render_table
from repro.baselines.compare import multiplexing_savings
from repro.channels import make_manager
from repro.parallel import TopologySpec, parallel_map
from repro.units import PAPER_LINK_CAPACITY


def _run_mux_leg(spec):
    """One multiplexing configuration over the shared requests (picklable)."""
    label, mux, topology, offered, seed = spec
    net = topology.build()
    manager = make_manager(net, multiplex_backups=mux)
    rng = np.random.default_rng(seed)
    nodes = np.array(net.nodes())
    qos = paper_connection_qos()
    for _ in range(offered):
        src, dst = rng.choice(nodes, size=2, replace=False)
        manager.request_connection(int(src), int(dst), qos)
    savings = multiplexing_savings(manager)
    return {
        "label": label,
        "accepted": manager.stats.accepted,
        "acceptance_ratio": manager.stats.acceptance_ratio,
        "average_bandwidth": manager.average_live_bandwidth(),
        "savings": savings,
    }


def test_multiplexing_ablation(benchmark, scale):
    topology = TopologySpec(
        "waxman",
        PAPER_LINK_CAPACITY,
        scale.settings.seed,
        nodes=scale.nodes,
        edges=scale.edges,
    )
    offered = max(scale.figure2_counts)
    specs = [
        ("multiplexed", True, topology, offered, scale.settings.seed),
        ("naive", False, topology, offered, scale.settings.seed),
    ]

    legs = benchmark.pedantic(
        lambda: parallel_map(_run_mux_leg, specs, jobs=bench_jobs()),
        rounds=1,
        iterations=1,
    )
    out = {leg["label"]: leg for leg in legs}
    rows = [
        [
            leg["label"],
            offered,
            leg["accepted"],
            leg["acceptance_ratio"],
            leg["savings"]["multiplexed_reservation"],
            leg["average_bandwidth"],
        ]
        for leg in legs
    ]
    table = render_table(
        ["scheme", "offered", "accepted", "acceptance", "backup rsv Kb/s", "avg bw Kb/s"],
        rows,
        precision=3,
        title=f"Ablation A2 — backup multiplexing on/off ({offered} offered)",
    )
    mux_savings = out["multiplexed"]["savings"]
    extra = (
        f"multiplexing saves {mux_savings['saved']:.0f} Kb/s of reservation "
        f"({100 * mux_savings['savings_ratio']:.1f}% of the naive total)"
    )
    archive("ablation_multiplexing", table + "\n" + extra)

    # Multiplexing must never hurt and, under load, strictly helps.
    assert out["multiplexed"]["accepted"] >= out["naive"]["accepted"]
    assert mux_savings["savings_ratio"] > 0.3
    # The naive manager reserves strictly more backup bandwidth per accepted
    # connection.
    naive_rsv = out["naive"]["savings"]["multiplexed_reservation"]
    mux_rsv = mux_savings["multiplexed_reservation"]
    assert naive_rsv / max(1, out["naive"]["accepted"]) > mux_rsv / max(
        1, out["multiplexed"]["accepted"]
    )
