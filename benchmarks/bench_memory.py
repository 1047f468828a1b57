"""Memory-footprint benchmarks of the simulation core.

Two guards ride here:

* ``test_memory_per_connection`` — bytes of core bookkeeping state per
  live connection, in two figures.  The first counts the
  ``ConnectionTable`` NumPy columns and CSR arenas plus the
  ``LinkTable`` lists; the second counts the ``ConnectionTable``
  per-handle Python lists.  A list counts as its own size plus every
  distinct number or list it holds (``repro.network.link_table.
  list_nbytes``).  The core's whole point is that a connection is a
  table row plus a few list cells, not a Python object graph; these
  pin the figures so a future change that quietly re-introduces
  per-connection object state shows up as a number, not a feeling.
* ``test_hundred_thousand_connections`` — a 10⁵-connection smoke: the
  handle allocator, the arenas and the list accounting must take a
  population two orders of magnitude beyond the paper's experiments
  without blowing up (in time or invariants).  Backups off, single
  elastic level, so the run isolates admission + bookkeeping cost.
"""

from __future__ import annotations

import numpy as np

from repro.channels import ArrayNetworkManager, make_manager
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.topology.regular import grid_network


def _populate(manager, net, count: int, qos: ConnectionQoS, seed: int = 3) -> None:
    rng = np.random.default_rng(seed)
    links = net.link_ids()
    while manager.num_live < count:
        s, d = links[int(rng.integers(len(links)))]
        manager.request_connection(s, d, qos)


def _array_state_bytes(manager: ArrayNetworkManager) -> int:
    """Connection columns and arenas plus the link lists."""
    cols, arenas, _lists = manager.conns.nbytes()
    return cols + arenas + manager.links.nbytes()


def test_memory_per_connection():
    net = grid_network(8, 8, capacity=100_000.0)
    qos = ConnectionQoS(
        performance=ElasticQoS(b_min=50.0, b_max=250.0, increment=50.0),
        dependability=DependabilityQoS(num_backups=1),
    )
    count = 400
    manager = make_manager(net)
    _populate(manager, net, count, qos)
    assert manager.num_live == count

    bpc = _array_state_bytes(manager) / count
    list_bpc = manager.conns.nbytes()[2] / count
    print(f"\nbytes per live connection: {bpc:.0f} + {list_bpc:.0f} in lists")
    # Row-plus-CSR bookkeeping, growth slack included (~350 measured).
    assert bpc <= 400
    # The per-handle lists read 176.3 while the primary path was kept
    # both in the CSR arena and as a fresh list per connection.
    assert list_bpc <= 176.3


def test_hundred_thousand_connections():
    net = grid_network(20, 20, capacity=10_000_000.0)
    # Single-level elastic contract, no backups: admission and
    # bookkeeping only, no redistribution churn.
    qos = ConnectionQoS(
        performance=ElasticQoS(b_min=50.0, b_max=50.0, increment=50.0),
        dependability=DependabilityQoS(num_backups=0),
    )
    manager = make_manager(net)
    count = 100_000
    _populate(manager, net, count, qos, seed=9)
    assert manager.num_live == count
    manager.check_invariants()

    # Drop a slice and refill: the free list must recycle handles
    # rather than growing the table without bound.
    cap_before = manager.conns.capacity
    for cid in manager.live_connection_ids()[:10_000]:
        manager.terminate_connection(cid)
    assert manager.num_live == count - 10_000
    _populate(manager, net, count, qos, seed=10)
    assert manager.num_live == count
    assert manager.conns.capacity == cap_before
    manager.check_invariants()

    total = _array_state_bytes(manager)
    print(f"\n100k connections: core state {total / 1e6:.1f} MB "
          f"({total / count:.0f} B/conn)")
    assert total < 200e6
