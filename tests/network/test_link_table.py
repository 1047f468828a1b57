"""Unit tests for the array core's :class:`LinkTable` and its fill oracle."""

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
    path = np.arange(len(table), dtype=np.int64)
    table.add_primary_min(path, 100.0)
    return table, [(path, 100.0, 0.0)]


class TestHeadroom:
    def test_every_writer_keeps_headroom_current(self):
        table, primaries = _reserved_table()
        table.set_capacity(1, 900.0)
        table.activate_backup(2, 50.0, frozenset())
        expected = (
            table.capacity - table.primary_min - table.backup_reserved - table.activated
        )
        assert np.array_equal(table.headroom, expected)
        table.check_invariants(primaries, [], [(np.array([2]), 50.0)])

    def test_check_invariants_catches_one_stale_headroom_cell(self):
        table, primaries = _reserved_table()
        table.check_invariants(primaries, [], [])
        # One ULP off: only a bitwise comparison can see it.
        table.headroom[1] = np.nextafter(table.headroom[1], np.inf)
        with pytest.raises(ReservationError, match="materialized headroom"):
            table.check_invariants(primaries, [], [])

    def test_check_invariants_catches_a_split_failed_mirror(self):
        table, primaries = _reserved_table()
        table.fail(1)
        table.check_invariants(primaries, [], [], strict_reservation=False)
        table.failed_py[1] = False  # the NumPy mask still says failed
        with pytest.raises(ReservationError, match="failed_py mirror"):
            table.check_invariants(primaries, [], [], strict_reservation=False)

    def test_spare_for_extras_is_computed_on_demand(self):
        table, _ = _reserved_table()
        table.primary_extra[0] = 250.0
        spare = table.spare_for_extras()
        assert spare.tolist() == [650.0, 900.0, 900.0]
        spare[1] = 0.0  # a fresh array: the columns are untouched
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
    handles = np.flatnonzero(conns.alloc).tolist()
    assert is_maximal_soa(links, conns, handles)
    for li in range(len(links)):
        links.set_capacity(li, 1200.0)
    assert not is_maximal_soa(links, conns, handles)
    assert manager.redistribute_all() == {conn.conn_id: 2}
    assert is_maximal_soa(links, conns, handles)
