#!/usr/bin/env python3
"""Failure recovery: backup channels, multiplexing and retreat in action.

Walks through the paper's dependability machinery on a ring network
(where primary and backup arcs are easy to see):

1. establish several DR-connections and show how their backups are
   *multiplexed* — overbooked onto shared reservations because no single
   link failure activates them together;
2. fail a link and watch the affected backup activate while primaries
   sharing the backup's links *retreat* to their minimum bandwidth;
3. fail a second link to demonstrate the scheme's limit: multiplexed
   reservations guarantee recovery from a single failure, so a second,
   near-simultaneous failure may drop a connection.

Run:  python examples/failure_recovery.py
"""

from __future__ import annotations

from repro import make_manager, paper_connection_qos
from repro.baselines import multiplexing_savings
from repro.channels import AnyManager
from repro.topology import ring_network


def show_connections(manager: AnyManager) -> None:
    for cid in manager.live_connection_ids():
        conn = manager.connection(cid)
        route = "backup" if conn.on_backup else "primary"
        print(
            f"  conn {cid}: {conn.source}->{conn.destination}  "
            f"{conn.bandwidth:4.0f} Kb/s on {route} route, state {conn.state.value}"
        )


def main() -> None:
    net = ring_network(8, capacity=1_000.0)
    qos = paper_connection_qos()
    manager = make_manager(net)

    print("ring of 8 nodes, 1 Mb/s links; contract:", qos.describe())

    print("\n--- establish four DR-connections around the ring ---")
    for src, dst in ((0, 2), (2, 4), (4, 6), (6, 0)):
        conn, _ = manager.request_connection(src, dst, qos)
        assert conn is not None
        print(f"  {src}->{dst}: primary {conn.primary_path}, backup {conn.backup_path}")

    savings = multiplexing_savings(manager)
    print("\nbackup multiplexing:")
    print(f"  naive per-backup reservation: {savings['naive_reservation']:.0f} Kb/s")
    print(f"  multiplexed reservation:      {savings['multiplexed_reservation']:.0f} Kb/s")
    print(f"  overbooking saves {savings['savings_ratio']:.0%}")

    print("\n--- state before any failure ---")
    show_connections(manager)
    print(f"  average bandwidth: {manager.average_live_bandwidth():.0f} Kb/s")

    print("\n--- fail link (0, 1): conn 0's primary breaks ---")
    impact = manager.fail_link((0, 1))
    print(f"  activated backups: {impact.activated}")
    print(f"  connections dropped: {impact.dropped}")
    retreats = {cid: f"{b}->{a}" for cid, (b, a) in impact.direct.items() if b != a}
    print(f"  level changes of other channels (retreat + refill): {retreats}")
    show_connections(manager)

    print("\n--- fail link (4, 5): a second failure tests the limit ---")
    impact = manager.fail_link((4, 5))
    print(f"  activated backups: {impact.activated}")
    print(f"  connections dropped: {impact.dropped}")
    print(f"  backups lost (now unprotected): {impact.lost_backup}")
    show_connections(manager)

    print("\n--- repair both links ---")
    manager.repair_link((0, 1))
    manager.repair_link((4, 5))
    print("  repaired; existing connections stay on their current routes "
          "(the scheme does not fail back), but new requests may use them:")
    conn, _ = manager.request_connection(0, 1, qos)
    print(f"  new 0->1 connection routed over {conn.primary_path}")

    stats = manager.stats
    print(
        f"\nlifetime stats: {stats.accepted} accepted, "
        f"{stats.backups_activated} backups activated, "
        f"{stats.connections_dropped} dropped, {stats.backups_lost} backups lost"
    )


if __name__ == "__main__":
    main()
