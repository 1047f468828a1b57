"""ConnectionTable arenas: when they compact, and what compaction keeps.

Backup links and primary/backup nodes live in append-only CSR arenas;
``free`` only counts the payload it leaves behind as garbage, and the
arena is repacked once that garbage exceeds both 4 096 slots and the
live payload.  These tests drive the table directly, with no manager.
"""

import numpy as np

from repro.channels.conn_table import ConnectionTable
from repro.channels.records import ConnectionState
from repro.qos.spec import ConnectionQoS, ElasticQoS

QOS = ConnectionQoS(performance=ElasticQoS(b_min=100.0, b_max=500.0, increment=50.0))

#: Per handle: a 10-node primary (9 links) and a 10-link backup (11 nodes).
PRIMARY_NODES = 10
BACKUP_LINKS = 10
BACKUP_NODES = 11
NODE_PAYLOAD = PRIMARY_NODES + BACKUP_NODES


def _fill(count):
    """A table holding ``count`` handles, each with distinct route payload."""
    table = ConnectionTable()
    handles = []
    for cid in range(count):
        base = 100 * cid
        prim_nodes = [base + i for i in range(PRIMARY_NODES)]
        h = table.allocate(
            cid, prim_nodes[0], prim_nodes[-1], QOS, list(range(9)), prim_nodes, 0.0
        )
        table.set_backup(
            h,
            [base + 50 + i for i in range(BACKUP_LINKS)],
            [base + 70 + i for i in range(BACKUP_NODES)],
            overlap=0,
        )
        handles.append(h)
    return table, handles


def _routes(table, h):
    return (
        table.pnode_slice(h).tolist(),
        table.bk_slice(h).tolist(),
        table.bnode_slice(h).tolist(),
    )


def test_arenas_compact_once_garbage_exceeds_live():
    table, handles = _fill(1000)
    routes = {h: _routes(table, h) for h in handles}
    # Every other handle first, so the survivors are scattered through
    # the arenas and compaction has to move them.
    order = handles[::2] + handles[1::2]
    for h in order[:500]:
        table.free(h, ConnectionState.TERMINATED)
    # 500 of 1 000 equal payloads freed: garbage == live, no compaction.
    assert table.nodes_arena.garbage == 500 * NODE_PAYLOAD
    assert table.nodes_arena.used == 1000 * NODE_PAYLOAD
    assert table.links_arena.garbage == 500 * BACKUP_LINKS
    assert table.links_arena.used == 1000 * BACKUP_LINKS

    table.free(order[500], ConnectionState.TERMINATED)
    # The 501st free tips garbage over live (and over 4 096): both
    # arenas are repacked down to the 499 survivors.
    assert table.nodes_arena.garbage == 0
    assert table.nodes_arena.used == 499 * NODE_PAYLOAD
    assert table.links_arena.garbage == 0
    assert table.links_arena.used == 499 * BACKUP_LINKS

    live = order[501:]
    assert np.flatnonzero(table.live_mask()).tolist() == sorted(live)
    for h in live:
        assert _routes(table, h) == routes[h]


def test_small_tables_never_compact():
    # 100 handles never leave more than 4 096 slots of garbage, so the
    # arenas keep growing even when almost everything is freed.
    table, handles = _fill(100)
    routes = {h: _routes(table, h) for h in handles}
    for h in handles[:-1]:
        table.free(h, ConnectionState.DROPPED)
    assert table.nodes_arena.garbage == 99 * NODE_PAYLOAD
    assert table.nodes_arena.used == 100 * NODE_PAYLOAD
    assert _routes(table, handles[-1]) == routes[handles[-1]]
