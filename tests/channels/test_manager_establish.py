"""Unit tests for DR-connection establishment."""

import pytest

from repro.channels.records import ConnectionState, EventKind
from repro.errors import SimulationError
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.reference import ReferenceManager
from repro.topology.regular import dumbbell_network, line_network


class TestBasicEstablishment:
    def test_primary_and_backup_routes(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, impact = manager.request_connection(0, 2, contract)
        assert conn is not None
        assert impact.kind is EventKind.ARRIVAL
        assert impact.accepted
        assert conn.primary_path == [0, 1, 2]
        assert conn.backup_path == [0, 5, 4, 3, 2]
        assert conn.backup_overlap == 0
        assert conn.state is ConnectionState.ACTIVE

    def test_redistribution_fills_lone_connection(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        # extra pool 900 per link allows the full 8 increments
        assert conn.level == 8
        assert conn.bandwidth == 500.0

    def test_reservations_on_links(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        for lid in conn.primary_links:
            ls = manager.state.link(lid)
            assert ls.primary_min[conn.conn_id] == 100.0
            assert ls.primary_extra[conn.conn_id] == 400.0
        for lid in conn.backup_links:
            assert manager.state.link(lid).has_backup(conn.conn_id)
            assert manager.state.link(lid).backup_reserved == 100.0

    def test_indexes_maintained(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        for lid in conn.primary_links:
            assert conn.conn_id in manager.channels_on_link[lid]
        for lid in conn.backup_links:
            assert conn.conn_id in manager.backups_on_link[lid]
        manager.check_invariants()

    def test_stats(self, ring6, contract):
        manager = ReferenceManager(ring6)
        manager.request_connection(0, 2, contract)
        assert manager.stats.requests == 1
        assert manager.stats.accepted == 1
        assert manager.stats.acceptance_ratio == 1.0

    def test_no_backup_contract(self, ring6, contract_no_backup):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract_no_backup)
        assert conn is not None
        assert conn.backup_path is None
        assert not conn.has_backup


class TestReclamation:
    def test_new_arrival_reclaims_direct_extras(self, elastic_qos):
        contract = ConnectionQoS(
            performance=elastic_qos, dependability=DependabilityQoS(num_backups=0)
        )
        # Tight bottleneck: 500 Kb/s shared by both cross connections.
        net = dumbbell_network(3, 1000.0, bottleneck_capacity=500.0)
        manager = ReferenceManager(net)
        # Leaf 1 -> leaf 5 crosses the bottleneck (0, 4).
        first, _ = manager.request_connection(1, 5, contract)
        assert first.level == 8  # bottleneck pool 400 covers all 8 increments
        second, impact = manager.request_connection(2, 6, contract)
        assert second is not None
        # The first connection was directly chained: recorded in impact.
        assert first.conn_id in impact.direct
        before, after = impact.direct[first.conn_id]
        assert before == 8
        # Bottleneck pool: 500 - 200 mins = 300 -> 6 increments split 3/3.
        assert first.level == 3
        assert second.level == 3
        assert after == 3
        manager.check_invariants()

    def test_direct_channels_at_min_still_recorded(self, dumbbell3, contract_no_backup):
        manager = ReferenceManager(dumbbell3)
        ids = []
        for leaf in (1, 2, 3):
            conn, _ = manager.request_connection(leaf, leaf + 4, contract_no_backup)
            ids.append(conn.conn_id)
        # Bottleneck pool: 1000 - 300 mins = 700 -> levels ~ 4/4/4 hits 12*50=600<=700.
        _, impact = manager.request_connection(1, 6, contract_no_backup)
        for cid in ids:
            assert cid in impact.direct


class TestRejection:
    def test_no_primary_capacity(self, line5, contract_no_backup):
        small = line_network(3, 150.0)
        manager = ReferenceManager(small)
        conn1, _ = manager.request_connection(0, 2, contract_no_backup)
        assert conn1 is not None
        conn2, impact = manager.request_connection(0, 2, contract_no_backup)
        assert conn2 is None
        assert not impact.accepted
        assert manager.stats.rejected_no_primary == 1

    def test_no_disjoint_backup_when_required(self, line5):
        contract = ConnectionQoS(
            performance=ElasticQoS(b_min=100.0, b_max=500.0, increment=50.0),
            dependability=DependabilityQoS(num_backups=1, require_link_disjoint=True),
        )
        manager = ReferenceManager(line5)
        conn, impact = manager.request_connection(0, 4, contract)
        assert conn is None
        assert manager.stats.rejected_no_backup == 1

    def test_partial_backup_allowed_by_default(self, line5, contract):
        manager = ReferenceManager(line5)
        conn, _ = manager.request_connection(0, 4, contract)
        assert conn is not None
        assert conn.backup_overlap == 4  # the line has only one route

    def test_rejection_leaves_no_residue(self, line5, contract_no_backup):
        small = line_network(3, 150.0)
        manager = ReferenceManager(small)
        manager.request_connection(0, 2, contract_no_backup)
        manager.request_connection(0, 2, contract_no_backup)  # rejected
        manager.check_invariants()
        # Only the first connection's reservations exist.
        assert len(manager.state.link((0, 1)).primary_min) == 1


class TestRoutingEngines:
    def test_flooding_engine_establishes(self, ring6, contract):
        manager = ReferenceManager(ring6, routing="flooding")
        conn, _ = manager.request_connection(0, 2, contract)
        assert conn is not None
        assert conn.primary_path == [0, 1, 2]
        assert conn.backup_path is not None
        plinks = set(conn.primary_links)
        assert not plinks & set(conn.backup_links)

    def test_unknown_engine_rejected(self, ring6):
        with pytest.raises(SimulationError):
            ReferenceManager(ring6, routing="magic")


class TestCapacityGuarantee:
    def test_backup_reservation_protects_minimums(self, ring6, contract):
        """Admitted connections never overcommit: fill the ring and check."""
        manager = ReferenceManager(ring6)
        accepted = 0
        for _ in range(60):
            conn, _ = manager.request_connection(0, 3, contract)
            if conn is not None:
                accepted += 1
        assert 0 < accepted < 60
        manager.check_invariants()

    def test_average_live_bandwidth(self, ring6, contract):
        manager = ReferenceManager(ring6)
        assert manager.average_live_bandwidth() == 0.0
        manager.request_connection(0, 2, contract)
        assert manager.average_live_bandwidth() == 500.0

    def test_level_histogram(self, ring6, contract):
        manager = ReferenceManager(ring6)
        manager.request_connection(0, 2, contract)
        hist = manager.level_histogram(9)
        assert hist[8] == 1
        assert sum(hist) == 1


class TestMultiBackupRejected:
    def test_more_than_one_backup_is_an_error(self, ring6, elastic_qos):
        """The paper's scheme allocates exactly one backup; asking for
        more must fail loudly instead of silently under-providing."""
        contract = ConnectionQoS(
            performance=elastic_qos,
            dependability=DependabilityQoS(num_backups=2),
        )
        manager = ReferenceManager(ring6)
        with pytest.raises(SimulationError):
            manager.request_connection(0, 2, contract)
