"""Unit tests for baseline contracts and the comparison harness."""

import pytest

from repro.baselines.compare import compare_schemes, multiplexing_savings
from repro.baselines.contracts import no_backup_contract, single_value_contract
from repro.channels import make_manager
from repro.topology.regular import complete_network, ring_network


class TestContracts:
    def test_single_value_is_degenerate(self):
        qos = single_value_contract(250.0)
        assert qos.performance.num_levels == 1
        assert qos.performance.b_min == qos.performance.b_max == 250.0
        assert qos.dependability.num_backups == 1

    def test_single_value_without_backup(self):
        qos = single_value_contract(250.0, num_backups=0)
        assert not qos.dependability.wants_backup

    def test_no_backup_contract(self):
        qos = no_backup_contract(100.0, 500.0, 50.0)
        assert qos.performance.num_levels == 9
        assert not qos.dependability.wants_backup


#: ``(name, accepted, average_bandwidth, total_reserved_backup,
#: network_utilization)`` per scheme, by seed — recorded on the object
#: reference core, before the harness moved to ``make_manager``.
PINNED = {
    1: [("elastic", 40, 500.0, 0.0, 0.35714285714285715),
        ("single-min", 40, 100.0, 0.0, 0.07142857142857142)],
    2: [("elastic", 30, 500.0, 0.0, 0.26785714285714285),
        ("single-min", 30, 100.0, 0.0, 0.05357142857142857)],
    3: [("single-min", 34, 100.0, 0.0, 0.9),
        ("single-max", 8, 500.0, 0.0, 1.0)],
    4: [("no-backup", 31, 100.0, 0.0, 0.975),
        ("with-backup", 16, 100.0, 4300.0, 0.45)],
}


def _key(outcome):
    return (
        outcome.name,
        outcome.accepted,
        outcome.average_bandwidth,
        outcome.total_reserved_backup,
        outcome.network_utilization,
    )


class TestCompareSchemes:
    def test_same_request_sequence(self):
        net = complete_network(8, 2000.0)
        schemes = [
            ("elastic", no_backup_contract(100.0, 500.0, 50.0)),
            ("single-min", single_value_contract(100.0, num_backups=0)),
        ]
        outcomes = compare_schemes(net, schemes, offered=40, seed=1)
        assert [o.name for o in outcomes] == ["elastic", "single-min"]
        assert all(o.offered == 40 for o in outcomes)
        assert [_key(o) for o in outcomes] == PINNED[1]

    def test_elastic_beats_single_min_bandwidth(self):
        """Elasticity recovers idle capacity: higher average bandwidth."""
        net = complete_network(8, 2000.0)
        schemes = [
            ("elastic", no_backup_contract(100.0, 500.0, 50.0)),
            ("single-min", single_value_contract(100.0, num_backups=0)),
        ]
        elastic, single = compare_schemes(net, schemes, offered=30, seed=2)
        assert [_key(elastic), _key(single)] == PINNED[2]
        assert single.average_bandwidth == pytest.approx(100.0)
        assert elastic.average_bandwidth > 200.0
        assert elastic.accepted == single.accepted  # same admission footprint

    def test_single_max_rejects_more(self):
        """Reserving the maximum everywhere exhausts the network sooner."""
        net = ring_network(8, 1000.0)
        schemes = [
            ("single-min", single_value_contract(100.0, num_backups=0)),
            ("single-max", single_value_contract(500.0, num_backups=0)),
        ]
        low, high = compare_schemes(net, schemes, offered=60, seed=3)
        assert [_key(low), _key(high)] == PINNED[3]
        assert high.accepted < low.accepted
        assert high.acceptance_ratio < low.acceptance_ratio

    def test_backup_scheme_costs_capacity(self):
        """Reserving backups lowers the acceptance count."""
        net = ring_network(8, 1000.0)
        schemes = [
            ("no-backup", single_value_contract(100.0, num_backups=0)),
            ("with-backup", single_value_contract(100.0, num_backups=1)),
        ]
        plain, protected = compare_schemes(net, schemes, offered=80, seed=4)
        assert [_key(plain), _key(protected)] == PINNED[4]
        assert protected.accepted <= plain.accepted
        assert protected.total_reserved_backup > 0.0
        assert plain.total_reserved_backup == 0.0


class TestMultiplexingSavings:
    def test_savings_positive_with_disjoint_primaries(self, contract):
        net = ring_network(8, 1000.0)
        manager = make_manager(net)
        # Several connections whose primaries are spread around the ring:
        # their backups multiplex on the opposite arc.
        for pair in ((0, 1), (2, 3), (4, 5)):
            conn, _ = manager.request_connection(*pair, contract)
            assert conn is not None
        savings = multiplexing_savings(manager)
        assert savings == {
            "naive_reservation": 2100.0,
            "multiplexed_reservation": 800.0,
            "saved": 1300.0,
            "savings_ratio": 0.6190476190476191,
        }
        assert savings["naive_reservation"] > savings["multiplexed_reservation"]
        assert savings["saved"] > 0
        assert 0.0 < savings["savings_ratio"] < 1.0

    def test_no_backups_no_savings(self, contract_no_backup):
        net = ring_network(6, 1000.0)
        manager = make_manager(net)
        manager.request_connection(0, 2, contract_no_backup)
        savings = multiplexing_savings(manager)
        assert savings["naive_reservation"] == 0.0
        assert savings["savings_ratio"] == 0.0
