"""Unit tests for the array core's :class:`LinkTable` and its fill oracle."""

import math

import numpy as np
import pytest

from repro.channels import make_manager
from repro.elastic.array_fill import is_maximal_soa
from repro.errors import ReservationError
from repro.network.link_table import LinkTable
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.topology.regular import line_network


def _reserved_table():
    """A 4-node line with one 100 Kb/s primary over its three links."""
    table = LinkTable(line_network(4, 1000.0))
    path = list(range(len(table)))
    table.add_primary_min(path, 100.0)
    return table, [(path, 100.0, 0.0)]


def _assert_materialized_current(table):
    """Both materialized columns equal their from-scratch expressions, bitwise."""
    cap, pmin, act = table.capacity, table.primary_min, table.activated
    bres = table.backup_reserved
    n = len(table)
    assert table.headroom == [cap[i] - pmin[i] - bres[i] - act[i] for i in range(n)]
    assert table.spare_base == [cap[i] - pmin[i] - act[i] for i in range(n)]


class TestHeadroom:
    def test_every_writer_keeps_headroom_current(self):
        # Off-grid bandwidths, so a skipped refresh leaves a visibly
        # stale cell rather than one that happens to agree.
        table, _ = _reserved_table()
        conflict = frozenset({(7, 8)})
        writers = [
            lambda: table.add_primary_min([0, 1], 33.3),
            lambda: table.sub_primary_min([1], 33.3),
            lambda: table.release_primary([2], 12.7, 0.0),
            lambda: table.add_backup(1, 41.9, conflict),
            lambda: table.remove_backup(1, 41.9, conflict),
            lambda: table.add_backup(2, 17.1, conflict),
            lambda: table.activate_backup(2, 17.1, conflict),
            lambda: table.sub_activated([2], 17.1),
            lambda: table.set_capacity(1, 900.3),
        ]
        for write in writers:
            write()
            _assert_materialized_current(table)
        primaries = [([0], 133.3, 0.0), ([1], 100.0, 0.0), ([2], 87.3, 0.0)]
        table.check_invariants(primaries, [], [])

    def test_check_invariants_catches_one_stale_headroom_cell(self):
        table, primaries = _reserved_table()
        table.check_invariants(primaries, [], [])
        # One ULP off: only a bitwise comparison can see it.
        table.headroom[1] = math.nextafter(table.headroom[1], math.inf)
        with pytest.raises(ReservationError, match="materialized headroom"):
            table.check_invariants(primaries, [], [])

    def test_check_invariants_catches_one_stale_spare_base_cell(self):
        table, primaries = _reserved_table()
        table.check_invariants(primaries, [], [])
        table.spare_base[2] = math.nextafter(table.spare_base[2], -math.inf)
        with pytest.raises(ReservationError, match="materialized spare base"):
            table.check_invariants(primaries, [], [])

    def test_spare_for_extras_is_computed_on_demand(self):
        table, _ = _reserved_table()
        table.primary_extra[0] = 250.0
        spare = table.spare_for_extras()
        assert spare == [650.0, 900.0, 900.0]
        spare[1] = 0.0  # a fresh list: the columns are untouched
        assert table.spare_for_extras()[1] == 900.0


def test_is_maximal_soa_sees_new_capacity():
    manager = make_manager(line_network(3, 1000.0))
    qos = ConnectionQoS(
        performance=ElasticQoS(b_min=100.0, b_max=2000.0, increment=100.0),
        dependability=DependabilityQoS(num_backups=0),
    )
    conn, _ = manager.request_connection(0, 2, qos)
    assert conn is not None and conn.level == 9  # the links are full
    links, conns = manager.links, manager.conns
    handles = np.flatnonzero(conns.live_mask()).tolist()
    assert is_maximal_soa(links, conns, handles)
    for li in range(len(links)):
        links.set_capacity(li, 1200.0)
    assert not is_maximal_soa(links, conns, handles)
    assert manager.redistribute_all() == {conn.conn_id: 2}
    assert is_maximal_soa(links, conns, handles)
