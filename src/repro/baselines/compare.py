"""Head-to-head comparison harness: elastic QoS vs. the baselines.

Used by the ablation benchmarks (A1: elastic vs. single-value; A2:
multiplexing on/off via disjoint primaries accounting) and by the
capacity-planning example.  Each scheme sees the *same* request
sequence on a fresh copy of the reservation state, so differences are
attributable to the scheme alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.channels import AnyManager, make_manager
from repro.qos.spec import ConnectionQoS
from repro.topology.graph import LinkId, Network


@dataclass
class SchemeOutcome:
    """Aggregate outcome of one scheme under the common request sequence."""

    name: str
    offered: int
    accepted: int
    average_bandwidth: float
    total_reserved_backup: float
    network_utilization: float

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of offered requests admitted."""
        return self.accepted / self.offered if self.offered else 1.0


def compare_schemes(
    topology: Network,
    schemes: Sequence[Tuple[str, ConnectionQoS]],
    offered: int,
    seed: int = 0,
) -> List[SchemeOutcome]:
    """Offer the same random request sequence to every scheme.

    Each scheme gets its own manager over the shared topology.
    Requests are uniformly random distinct node pairs; the sequence is
    identical across schemes (same seed).
    """
    rng = np.random.default_rng(seed)
    nodes = np.array(topology.nodes())
    pairs = []
    for _ in range(offered):
        src, dst = rng.choice(nodes, size=2, replace=False)
        pairs.append((int(src), int(dst)))

    outcomes: List[SchemeOutcome] = []
    for name, qos in schemes:
        manager = make_manager(topology)
        for src, dst in pairs:
            manager.request_connection(src, dst, qos)
        backup_reserved = sum(manager.link_totals(lid)[3] for lid in topology.link_ids())
        outcomes.append(
            SchemeOutcome(
                name=name,
                offered=offered,
                accepted=manager.stats.accepted,
                average_bandwidth=manager.average_live_bandwidth(),
                total_reserved_backup=backup_reserved,
                network_utilization=manager.state.utilization(),
            )
        )
    return outcomes


def multiplexing_savings(manager: AnyManager) -> Dict[str, float]:
    """How much backup bandwidth multiplexing saved on this manager.

    Without multiplexing each backup would reserve its full minimum on
    every link it traverses; with multiplexing only the worst single
    failure's demand is reserved.  Returns totals across all links,
    summed in link order.
    """
    # Each link's inactive-backup minimums, in connection-id order.
    members: Dict[LinkId, List[float]] = {}
    for conn in manager.connections.values():
        if conn.has_backup:
            assert conn.backup_links is not None
            for lid in conn.backup_links:
                members.setdefault(lid, []).append(conn.qos.performance.b_min)
    naive = 0.0
    multiplexed = 0.0
    for lid in manager.topology.link_ids():
        naive += sum(members.get(lid, ()))
        multiplexed += manager.link_totals(lid)[3]
    saved = naive - multiplexed
    return {
        "naive_reservation": naive,
        "multiplexed_reservation": multiplexed,
        "saved": saved,
        "savings_ratio": (saved / naive) if naive > 0 else 0.0,
    }
