"""Miscellaneous manager behaviours: bulk setup, corruption detection,
flooding fallbacks, multiplexing toggle."""

import pytest

from repro.errors import ReservationError
from repro.reference import ReferenceManager
from repro.topology.regular import line_network, ring_network


class TestBulkSetupMode:
    def test_auto_redistribute_off_defers_extras(self, ring6, contract):
        manager = ReferenceManager(ring6)
        manager.auto_redistribute = False
        conn, _ = manager.request_connection(0, 2, contract)
        assert conn.level == 0  # no water-fill yet
        granted = manager.redistribute_all()
        assert granted == {conn.conn_id: 8}
        assert conn.level == 8
        manager.check_invariants()

    def test_redistribute_all_skips_failed_over(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        manager.fail_link((0, 1))
        assert conn.on_backup
        granted = manager.redistribute_all()
        assert conn.conn_id not in granted
        assert conn.bandwidth == 100.0

    def test_redistribute_all_idempotent(self, ring6, contract):
        manager = ReferenceManager(ring6)
        manager.request_connection(0, 2, contract)
        assert manager.redistribute_all() == {}  # already maximal


class TestCorruptionDetection:
    def test_index_corruption_detected(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        # Corrupt the per-link index: claim a channel on a link it isn't.
        manager.channels_on_link[(3, 4)].add(conn.conn_id)
        with pytest.raises(ReservationError):
            manager.check_invariants()

    def test_level_mismatch_detected(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        conn.level = 2  # lie about the level
        with pytest.raises(ReservationError):
            manager.check_invariants()


class TestFloodingFallbacks:
    def test_flooding_uses_centralized_backup_fallback(self, contract):
        """On a line there is no disjoint copy for flooding to confirm;
        the manager falls back to the centralized (maximally-disjoint)
        search, accepting an overlapping backup."""
        net = line_network(4, 1000.0)
        manager = ReferenceManager(net, routing="flooding")
        conn, _ = manager.request_connection(0, 3, contract)
        assert conn is not None
        assert conn.backup_path is not None
        assert conn.backup_overlap == 3

    def test_flooding_rejects_when_no_bandwidth(self, contract):
        # 250 fits one primary (100) + its overlapping backup (100).
        net = line_network(3, 250.0)
        manager = ReferenceManager(net, routing="flooding")
        first, _ = manager.request_connection(0, 2, contract)
        assert first is not None
        second, impact = manager.request_connection(0, 2, contract)
        assert second is None
        assert not impact.accepted

    def test_flooding_hop_bound_respected(self, contract_no_backup):
        net = line_network(8, 1000.0)
        manager = ReferenceManager(net, routing="flooding", flood_hop_bound=3)
        conn, _ = manager.request_connection(0, 7, contract_no_backup)
        assert conn is None  # destination beyond the flooding bound
        assert manager.stats.rejected_no_primary == 1


class TestMultiplexingToggle:
    def test_naive_mode_reserves_more(self, contract):
        net = ring_network(8, 1000.0)
        pairs = [(0, 1), (2, 3), (4, 5)]
        mux = ReferenceManager(net, multiplex_backups=True)
        naive = ReferenceManager(net, multiplex_backups=False)
        for manager in (mux, naive):
            for src, dst in pairs:
                conn, _ = manager.request_connection(src, dst, contract)
                assert conn is not None
        mux_total = sum(ls.backup_reserved for ls in mux.state.links())
        naive_total = sum(ls.backup_reserved for ls in naive.state.links())
        assert naive_total > mux_total
        naive.check_invariants()

    def test_naive_mode_still_recovers_from_failure(self, contract):
        net = ring_network(8, 1000.0)
        manager = ReferenceManager(net, multiplex_backups=False)
        conn, _ = manager.request_connection(0, 2, contract)
        impact = manager.fail_link((0, 1))
        assert impact.activated == [conn.conn_id]
        manager.state.check_invariants(strict_reservation=False)
