#!/usr/bin/env python3
"""Run-time message scheduling: reservations become delivered service.

The paper's two-phase channel model (§2.1.1): the establishment phase
reserves bandwidth (everything the other examples show); the *run-time
message scheduling* phase must then actually deliver it on every link.
This example connects the two:

1. establish three DR-connections with elastic QoS on a small network;
2. take the bandwidth levels the elastic manager granted on one shared
   link and configure a weighted-fair packet scheduler with exactly
   those rates;
3. replay CBR and bursty sources — including a misbehaving one — and
   verify each conforming channel receives its reserved rate;
4. attach a k-out-of-M interval regulator (the paper's second elastic
   model) to the misbehaving channel and watch overload being shed
   without breaking the regulator's floor.

Run:  python examples/runtime_scheduling.py
"""

from __future__ import annotations

import numpy as np

from repro import make_manager, paper_connection_qos
from repro.qos.interval import IntervalQoS, IntervalRegulator
from repro.runtime import CbrSource, LinkSimulation, OnOffSource
from repro.topology import dumbbell_network


def main() -> None:
    # ------------------------------------------------------------------
    # Phase 1: establishment (what the rest of the library does).
    # ------------------------------------------------------------------
    net = dumbbell_network(3, capacity=1000.0, bottleneck_capacity=800.0)
    qos = paper_connection_qos()
    manager = make_manager(net)
    conns = []
    for src, dst in ((1, 5), (2, 6), (3, 7)):
        conn, _ = manager.request_connection(src, dst, qos)
        assert conn is not None
        conns.append(conn)
    # Records are snapshots: read them again once every arrival has landed.
    conns = [manager.connection(conn.conn_id) for conn in conns]
    print("established three DR-connections over the shared bottleneck:")
    for conn in conns:
        print(f"  conn {conn.conn_id}: level {conn.level} -> "
              f"{conn.bandwidth:.0f} Kb/s reserved")
    total = sum(c.bandwidth for c in conns)
    print(f"  total on the 800 Kb/s bottleneck: {total:.0f} Kb/s")

    # ------------------------------------------------------------------
    # Phase 2: run-time scheduling on the bottleneck link.
    # ------------------------------------------------------------------
    print("\nreplaying traffic through the bottleneck's fair scheduler:")
    sim = LinkSimulation(capacity=800.0)
    rng = np.random.default_rng(4)
    horizon = 30.0
    # conn 0: a conforming CBR stream at its reserved rate;
    sim.add_channel(
        conns[0].conn_id, conns[0].bandwidth,
        CbrSource(conns[0].conn_id, conns[0].bandwidth),
    )
    # conn 1: a bursty on/off source averaging under its reservation;
    sim.add_channel(
        conns[1].conn_id, conns[1].bandwidth,
        OnOffSource(conns[1].conn_id, peak_rate=2 * conns[1].bandwidth,
                    mean_on=0.5, mean_off=0.5, rng=rng),
    )
    # conn 2: a GREEDY source at 3x its reservation.
    sim.add_channel(
        conns[2].conn_id, conns[2].bandwidth,
        CbrSource(conns[2].conn_id, 3 * conns[2].bandwidth),
    )
    report = sim.run(horizon)
    for conn in conns:
        stats = report.stats[conn.conn_id]
        kind = {0: "CBR @ reservation", 1: "bursty (avg < rsv)", 2: "greedy 3x"}[conns.index(conn)]
        print(f"  conn {conn.conn_id} ({kind:18s}): reserved {conn.bandwidth:3.0f}, "
              f"delivered {report.throughput(conn.conn_id):6.1f} Kb/s, "
              f"mean delay {1000 * (stats.mean_delay or 0):6.1f} ms")
    print("-> conforming channels get their reservations; the greedy one "
          "only absorbs what is spare, and pays for its own backlog in delay")

    # ------------------------------------------------------------------
    # Interval QoS: shed the greedy channel's overload gracefully.
    # ------------------------------------------------------------------
    print("\nsame replay with a 1-out-of-3 interval regulator on the greedy channel:")
    sim2 = LinkSimulation(capacity=800.0)
    sim2.add_channel(
        conns[0].conn_id, conns[0].bandwidth,
        CbrSource(conns[0].conn_id, conns[0].bandwidth),
    )
    sim2.add_channel(
        conns[1].conn_id, conns[1].bandwidth,
        OnOffSource(conns[1].conn_id, peak_rate=2 * conns[1].bandwidth,
                    mean_on=0.5, mean_off=0.5, rng=np.random.default_rng(4)),
    )
    regulator = IntervalRegulator(IntervalQoS(k=1, m=3))
    sim2.add_channel(
        conns[2].conn_id, conns[2].bandwidth,
        CbrSource(conns[2].conn_id, 3 * conns[2].bandwidth),
        regulator=regulator,
    )
    report2 = sim2.run(horizon)
    greedy = report2.stats[conns[2].conn_id]
    regulator.verify_guarantee()
    print(f"  greedy channel: offered {greedy.offered_packets} packets, "
          f"dropped {greedy.dropped_packets} ({greedy.loss_ratio:.0%}), "
          f"delivered {report2.throughput(conns[2].conn_id):.1f} Kb/s")
    print(f"  regulator audit over {regulator.stats.windows_completed} windows: "
          f"every window met its k-of-M floor")
    print(f"  conforming channel's mean delay improved: "
          f"{1000 * report.stats[conns[0].conn_id].mean_delay:.1f} ms -> "
          f"{1000 * report2.stats[conns[0].conn_id].mean_delay:.1f} ms")


if __name__ == "__main__":
    main()
