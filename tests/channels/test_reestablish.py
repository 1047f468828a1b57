"""Unit tests for the backup re-establishment extension."""


from repro.reference import ReferenceManager
from repro.topology.graph import Network


def theta_network(capacity=1000.0):
    """Three disjoint 0->3 branches: room for a replacement backup."""
    net = Network()
    for branch, midpoints in enumerate(((1,), (2,), (4, 5))):
        prev = 0
        for node in midpoints:
            net.add_link(prev, node, capacity)
            prev = node
        net.add_link(prev, 3, capacity)
    return net


class TestReestablishment:
    def test_disabled_by_default(self, ring6, contract):
        manager = ReferenceManager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        manager.fail_link((3, 4))  # kills the backup; ring has no third arc
        assert conn.backup_links is None
        assert manager.stats.backups_reestablished == 0

    def test_replacement_found_on_rich_topology(self, contract):
        net = theta_network()
        manager = ReferenceManager(net, reestablish_backups=True)
        conn, _ = manager.request_connection(0, 3, contract)
        assert conn.primary_path == [0, 1, 3]
        first_backup = list(conn.backup_links)
        # Fail a backup link: the third branch must take over.
        manager.fail_link(first_backup[0])
        assert conn.backup_links is not None
        assert conn.backup_links != first_backup
        assert manager.stats.backups_reestablished == 1
        # New backup is reserved on its links and disjoint from the primary.
        for lid in conn.backup_links:
            assert manager.state.link(lid).has_backup(conn.conn_id)
        assert not set(conn.backup_links) & set(conn.primary_links)
        manager.check_invariants()

    def test_no_replacement_when_no_route(self, ring6, contract):
        manager = ReferenceManager(ring6, reestablish_backups=True)
        conn, _ = manager.request_connection(0, 2, contract)
        manager.fail_link((3, 4))
        # The only disjoint arc is gone; the maximally-disjoint fallback
        # would have to reuse the failed link, so no replacement exists...
        # unless a partial-overlap route over the primary is allowed.
        if conn.backup_links is not None:
            # A maximally-disjoint replacement re-uses primary links.
            assert any(lid in set(conn.primary_links) for lid in conn.backup_links)
        manager.check_invariants()

    def test_replacement_protects_against_next_failure(self, contract):
        net = theta_network()
        manager = ReferenceManager(net, reestablish_backups=True)
        conn, _ = manager.request_connection(0, 3, contract)
        manager.fail_link(conn.backup_links[0])   # lose original backup
        manager.fail_link(conn.primary_links[0])  # now lose the primary
        # The re-established backup carries the connection.
        assert conn.on_backup
        assert manager.num_live == 1
