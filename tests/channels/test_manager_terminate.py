"""Unit tests for DR-connection termination."""

import pytest

from repro.channels.records import ConnectionState, EventKind
from repro.errors import ReservationError
from repro.reference import ReferenceManager


class TestTermination:
    def test_releases_everything(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        impact = manager.terminate_connection(conn.conn_id)
        assert impact.kind is EventKind.TERMINATION
        assert conn.state is ConnectionState.TERMINATED
        assert manager.num_live == 0
        for ls in manager.state.links():
            assert ls.used == 0.0
            assert ls.backup_reserved == 0.0
        manager.check_invariants()

    def test_stats_counted(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        manager.terminate_connection(conn.conn_id)
        assert manager.stats.terminated == 1

    def test_unknown_connection_rejected(self, ring6):
        manager = ReferenceManager(ring6)
        with pytest.raises(ReservationError):
            manager.terminate_connection(42)

    def test_double_terminate_rejected(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        manager.terminate_connection(conn.conn_id)
        with pytest.raises(ReservationError):
            manager.terminate_connection(conn.conn_id)

    def test_sharing_channels_rise(self, contract_no_backup):
        from repro.topology.regular import dumbbell_network

        net = dumbbell_network(3, 1000.0, bottleneck_capacity=500.0)
        manager = ReferenceManager(net)
        first, _ = manager.request_connection(1, 5, contract_no_backup)
        second, _ = manager.request_connection(2, 6, contract_no_backup)
        assert first.level == 3 and second.level == 3
        impact = manager.terminate_connection(second.conn_id)
        # The survivor shares the bottleneck: it rises back to its maximum.
        assert first.level == 8
        assert first.conn_id in impact.direct
        before, after = impact.direct[first.conn_id]
        assert (before, after) == (3, 8)

    def test_unrelated_channels_unchanged(self, dumbbell3, contract_no_backup):
        manager = ReferenceManager(dumbbell3)
        # Two disjoint leaf-to-hub connections.
        a, _ = manager.request_connection(1, 2, contract_no_backup)
        b, _ = manager.request_connection(5, 6, contract_no_backup)
        level_b = b.level
        impact = manager.terminate_connection(a.conn_id)
        assert b.conn_id not in impact.direct
        assert b.level == level_b

    def test_terminate_failed_over_connection(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        manager.fail_link((0, 1))
        assert conn.state is ConnectionState.FAILED_OVER
        manager.terminate_connection(conn.conn_id)
        assert conn.state is ConnectionState.TERMINATED
        for ls in manager.state.links():
            assert ls.activated == {}
        assert manager.num_live == 0

    def test_backup_release_frees_reservation_for_future_backups(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        reserved_before = sum(ls.backup_reserved for ls in manager.state.links())
        assert reserved_before > 0
        manager.terminate_connection(conn.conn_id)
        assert sum(ls.backup_reserved for ls in manager.state.links()) == 0.0
