"""Unit tests for link failures, backup activation and recovery."""


from repro.channels.records import ConnectionState, EventKind
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.reference import ReferenceManager
from repro.topology.regular import ring_network


class TestFailover:
    def test_backup_activates(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        impact = manager.fail_link((0, 1))
        assert impact.kind is EventKind.FAILURE
        assert impact.failed_link == (0, 1)
        assert impact.activated == [conn.conn_id]
        assert conn.state is ConnectionState.FAILED_OVER
        assert conn.on_backup
        assert conn.bandwidth == 100.0  # backups run at the minimum
        assert manager.stats.backups_activated == 1
        # Live bandwidth flows on the backup path now.
        for lid in conn.backup_links:
            assert manager.state.link(lid).activated[conn.conn_id] == 100.0

    def test_old_primary_reservations_released(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        primary_links = list(conn.primary_links)
        manager.fail_link((0, 1))
        for lid in primary_links:
            assert not manager.state.link(lid).has_primary(conn.conn_id)
            assert conn.conn_id not in manager.channels_on_link[lid]

    def test_unaffected_connection_keeps_running(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn_a, _ = manager.request_connection(0, 2, contract)
        conn_b, _ = manager.request_connection(3, 5, contract)
        manager.fail_link((0, 1))
        assert conn_b.state in (ConnectionState.ACTIVE,)
        assert manager.num_live == 2

    def test_extras_retreat_on_backup_path(self, ring6, contract_no_backup, contract):
        """Primaries sharing links with an activated backup drop extras."""
        manager = ReferenceManager(ring6)
        protected, _ = manager.request_connection(0, 2, contract)
        bystander, _ = manager.request_connection(3, 5, contract_no_backup)
        assert bystander.level > 0
        level_before = bystander.level
        impact = manager.fail_link((0, 1))
        # The bystander's path [3,4,5] lies on the backup route [0,5,4,3,2].
        assert bystander.conn_id in impact.direct
        before, after = impact.direct[bystander.conn_id]
        assert before == level_before
        # After retreat + redistribution it may rise again, but the
        # activated backup's 100 Kb/s must now fit underneath.
        for lid in manager.topology.path_links([3, 4, 5]):
            manager.state.link(lid).check_invariants(strict_reservation=False)

    def test_failure_of_idle_link(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        # (3,4) carries the backup only; failing it loses the backup.
        impact = manager.fail_link((3, 4))
        assert impact.lost_backup == [conn.conn_id]
        assert conn.backup_path is None
        assert not conn.has_backup
        assert conn.state is ConnectionState.ACTIVE
        assert manager.stats.backups_lost == 1

    def test_drop_without_backup(self, ring6, contract_no_backup):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract_no_backup)
        impact = manager.fail_link((0, 1))
        assert impact.dropped == [conn.conn_id]
        assert conn.state is ConnectionState.DROPPED
        assert manager.num_live == 0
        assert manager.stats.connections_dropped == 1
        for ls in manager.state.links():
            assert ls.used == 0.0

    def test_second_failure_drops_failed_over(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        manager.fail_link((0, 1))       # fail over to [0,5,4,3,2]
        impact = manager.fail_link((4, 5))  # kill the live backup
        assert impact.dropped == [conn.conn_id]
        assert conn.state is ConnectionState.DROPPED
        assert manager.num_live == 0

    def test_backup_through_failed_link_unusable(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        manager.fail_link((3, 4))  # backup lost first
        impact = manager.fail_link((0, 1))  # primary fails, no backup left
        assert impact.dropped == [conn.conn_id]
        assert conn.state is ConnectionState.DROPPED


class TestMultiplexedActivationConflicts:
    def test_sequential_failures_may_drop_second_victim(self):
        """Two backups multiplexed onto one tight link: only the first
        failure's victim can activate."""
        net = ring_network(6, 200.0)
        contract = ConnectionQoS(
            performance=ElasticQoS(b_min=100.0, b_max=100.0, increment=100.0),
            dependability=DependabilityQoS(num_backups=1),
        )
        manager = ReferenceManager(net)
        # Conn A: 0->1 primary [0,1], backup [0,5,4,3,2,1].
        a, _ = manager.request_connection(0, 1, contract)
        # Conn B: 1->2 primary [1,2], backup [1,0,5,4,3,2].
        b, _ = manager.request_connection(1, 2, contract)
        assert a is not None and b is not None
        # Their backups share links and are multiplexed (disjoint primaries).
        manager.fail_link((0, 1))
        assert a.state is ConnectionState.FAILED_OVER
        # With A's activation consuming the multiplexed reservation and
        # capacity 200 = A's 100 + B's primary min 100 on the shared arc,
        # a second failure cannot activate B everywhere.
        impact = manager.fail_link((1, 2))
        assert b.conn_id in impact.dropped or b.state is ConnectionState.FAILED_OVER
        manager.state.check_invariants(strict_reservation=False)


class TestRepair:
    def test_repair_restores_admission(self, ring6, contract):
        manager = ReferenceManager(ring6)
        manager.fail_link((0, 1))
        conn, _ = manager.request_connection(0, 2, contract)
        # Primary must avoid the failed link.
        assert (0, 1) not in conn.primary_links
        impact = manager.repair_link((0, 1))
        assert impact.kind is EventKind.REPAIR
        assert manager.stats.link_repairs == 1
        conn2, _ = manager.request_connection(0, 1, contract)
        assert conn2 is not None
        assert conn2.primary_path == [0, 1]

    def test_no_failback(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        manager.fail_link((0, 1))
        manager.repair_link((0, 1))
        # The connection stays on its backup (the paper models no revert).
        assert conn.state is ConnectionState.FAILED_OVER
