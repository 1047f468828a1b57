"""Memory-footprint benchmarks of the simulation cores.

Two guards ride here:

* ``test_memory_per_connection`` — bytes of core bookkeeping state per
  live connection, the array core vs the object reference core.  The SoA core's whole
  point is that a connection is a table row plus two CSR slices, not a
  Python object graph; this pins the ratio so a future change that
  quietly re-introduces per-connection object state shows up as a
  number, not a feeling.
* ``test_hundred_thousand_connections`` — a 10⁵-connection smoke: the
  handle allocator, CSR arenas and vectorized accounting must take a
  population two orders of magnitude beyond the paper's experiments
  without blowing up (in time or invariants).  Backups off, single
  elastic level, so the run isolates admission + bookkeeping cost.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.channels import ArrayNetworkManager, NetworkManager, make_manager
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.topology.regular import grid_network


def _deep_size(obj, seen=None) -> int:
    """Recursive ``sys.getsizeof`` over containers and object graphs."""
    if seen is None:
        seen = set()
    oid = id(obj)
    if oid in seen:
        return 0
    seen.add(oid)
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(
            _deep_size(k, seen) + _deep_size(v, seen) for k, v in obj.items()
        )
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(_deep_size(item, seen) for item in obj)
    elif isinstance(obj, np.ndarray):
        size += obj.nbytes
    if hasattr(obj, "__dict__"):
        size += _deep_size(vars(obj), seen)
    if hasattr(obj, "__slots__"):
        size += sum(
            _deep_size(getattr(obj, slot), seen)
            for slot in obj.__slots__
            if hasattr(obj, slot)
        )
    return size


def _populate(manager, net, count: int, qos: ConnectionQoS, seed: int = 3) -> None:
    rng = np.random.default_rng(seed)
    links = net.link_ids()
    while manager.num_live < count:
        s, d = links[int(rng.integers(len(links)))]
        manager.request_connection(s, d, qos)


def _array_state_bytes(manager: ArrayNetworkManager) -> int:
    cols, arenas = manager.conns.nbytes()
    return cols + arenas + manager.links.nbytes()


def _object_state_bytes(manager: NetworkManager) -> int:
    # The object core's equivalents of the columns: the connection
    # objects themselves plus the per-link reservation ledgers.
    seen: set = set()
    size = _deep_size(manager.connections, seen)
    for lid in manager.state.topology.link_ids():
        ls = manager.state.link(lid)
        size += _deep_size(ls.primary_min, seen)
        size += _deep_size(ls.primary_extra, seen)
        size += _deep_size(ls.activated, seen)
        size += _deep_size(ls.backup_members, seen)
        size += _deep_size(ls.backup_demand, seen)
    return size


def test_memory_per_connection():
    net = grid_network(8, 8, capacity=100_000.0)
    qos = ConnectionQoS(
        performance=ElasticQoS(b_min=50.0, b_max=250.0, increment=50.0),
        dependability=DependabilityQoS(num_backups=1),
    )
    count = 400
    ma = make_manager(net)
    mo = NetworkManager(net)
    _populate(ma, net, count, qos)
    _populate(mo, net, count, qos)
    assert ma.num_live == mo.num_live == count

    array_bpc = _array_state_bytes(ma) / count
    object_bpc = _object_state_bytes(mo) / count
    print(
        f"\nbytes per live connection: array {array_bpc:.0f}"
        f" vs object {object_bpc:.0f} ({object_bpc / array_bpc:.1f}x)"
    )
    # Row-plus-CSR bookkeeping: generously < 2 KiB per connection even
    # with growth slack, and well under the object graph.
    assert array_bpc < 2048
    assert array_bpc < 0.5 * object_bpc


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
    cap_before = len(manager.conns.conn_id)
    for cid in manager.live_connection_ids()[:10_000]:
        manager.terminate_connection(cid)
    assert manager.num_live == count - 10_000
    _populate(manager, net, count, qos, seed=10)
    assert manager.num_live == count
    assert len(manager.conns.conn_id) == cap_before
    manager.check_invariants()

    total = _array_state_bytes(manager)
    print(f"\n100k connections: core state {total / 1e6:.1f} MB "
          f"({total / count:.0f} B/conn)")
    assert total < 200e6
