"""Unit tests for the fault injectors and multi-link failure plumbing."""

import numpy as np
import pytest

from repro.channels import make_manager
from repro.errors import FaultInjectionError
from repro.faults import (
    CorrelatedBurstInjector,
    FaultConfig,
    FaultInjector,
    MarkovOnOffInjector,
    NodeFailureInjector,
    build_injector,
)
from repro.sim.workload import Workload, WorkloadConfig, constant_qos
from repro.topology.waxman import paper_random_network


def make_workload(net, contract, gamma=0.001, rho=0.5, seed=3):
    config = WorkloadConfig(
        arrival_rate=0.001,
        termination_rate=0.001,
        link_failure_rate=gamma,
        repair_rate=rho,
    )
    return Workload(net, constant_qos(contract), config, np.random.default_rng(seed))


@pytest.fixture
def waxman24():
    return paper_random_network(10_000.0, np.random.default_rng(42), n=24, target_edges=45)


class TestFaultConfigValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultConfig(mode="meteor")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultConfig(mode="burst", burst_kernel="spooky")

    def test_nonpositive_burst_size_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultConfig(mode="burst", burst_size=0)

    def test_nonpositive_distance_scale_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultConfig(distance_scale=0.0)

    def test_activation_prob_range(self):
        with pytest.raises(FaultInjectionError):
            FaultConfig(activation_fault_prob=1.5)
        with pytest.raises(FaultInjectionError):
            FaultConfig(activation_fault_prob=-0.1)

    def test_negative_rate_spread_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultConfig(rate_spread=-1.0)

    def test_build_dispatch(self, ring6, contract):
        workload = make_workload(ring6, contract)
        assert type(build_injector(None, ring6, workload)) is FaultInjector
        assert type(build_injector(FaultConfig(), ring6, workload)) is FaultInjector
        assert isinstance(
            build_injector(FaultConfig(mode="node"), ring6, workload),
            NodeFailureInjector,
        )
        assert isinstance(
            build_injector(FaultConfig(mode="burst"), ring6, workload),
            CorrelatedBurstInjector,
        )
        assert isinstance(
            build_injector(FaultConfig(mode="markov"), ring6, workload),
            MarkovOnOffInjector,
        )


class TestMultiLinkFailures:
    def test_fail_links_atomic_double_failure(self, ring6, contract):
        """A burst hitting primary AND backup drops the connection."""
        manager = make_manager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        # Primary goes 0-1-2; the link-disjoint backup goes the long way
        # round, so (0,1) and (0,5) together sever both routes at once.
        impact = manager.fail_links([(0, 1), (0, 5)])
        assert sorted(impact.failed_links) == [(0, 1), (0, 5)]
        assert not manager.is_live(conn.conn_id)
        assert conn.conn_id in impact.dropped
        assert manager.stats.double_failure_drops == 1
        assert manager.stats.backups_activated == 0
        assert manager.stats.link_failures == 2
        manager.check_invariants()

    def test_fail_links_rejects_empty_and_dead(self, ring6):
        manager = make_manager(ring6)
        with pytest.raises(FaultInjectionError):
            manager.fail_links([])
        manager.fail_link((0, 1))
        with pytest.raises(FaultInjectionError):
            manager.fail_links([(0, 1), (1, 2)])

    def test_single_link_burst_matches_fail_link(self, ring6, contract):
        """fail_links([lid]) and fail_link(lid) report identically."""
        a = make_manager(ring6)
        a.request_connection(0, 2, contract)
        b = make_manager(ring6)
        b.request_connection(0, 2, contract)
        one = a.fail_link((0, 1))
        many = b.fail_links([(0, 1)])
        assert many.failed_link == one.failed_link == (0, 1)
        assert many.activated == one.activated
        assert many.dropped == one.dropped
        assert many.direct == one.direct

    def test_fail_node(self, ring6, contract):
        manager = make_manager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        impact = manager.fail_node(0)
        assert impact.failed_node == 0
        assert sorted(impact.failed_links) == [(0, 1), (0, 5)]
        assert manager.stats.node_failures == 1
        assert manager.stats.link_failures == 2
        # Both routes pass through node 0: the connection cannot survive.
        assert not manager.is_live(conn.conn_id)
        manager.check_invariants()

    def test_fail_node_without_alive_links_rejected(self, ring6):
        manager = make_manager(ring6)
        manager.fail_node(0)
        with pytest.raises(FaultInjectionError):
            manager.fail_node(0)


class TestNodeFailureInjector:
    def test_injects_whole_node(self, ring6, contract):
        manager = make_manager(ring6)
        workload = make_workload(ring6, contract)
        injector = NodeFailureInjector(ring6, workload)
        impact = injector.inject_failure(manager)
        assert impact.failed_node is not None
        assert len(impact.failed_links) == 2  # every ring node has degree 2
        assert manager.stats.node_failures == 1

    def test_rates_match_base_model(self, ring6, contract):
        manager = make_manager(ring6)
        workload = make_workload(ring6, contract, gamma=0.01, rho=0.25)
        injector = NodeFailureInjector(ring6, workload)
        assert injector.failure_rate(manager.state) == 0.01 * 6
        manager.fail_link((0, 1))
        assert injector.failure_rate(manager.state) == 0.01 * 5
        assert injector.repair_rate(manager.state) == 0.25 * 1


class TestCorrelatedBurstInjector:
    def test_shared_node_burst_is_connected(self, waxman24, contract):
        manager = make_manager(waxman24)
        workload = make_workload(waxman24, contract)
        config = FaultConfig(mode="burst", burst_size=3)
        injector = CorrelatedBurstInjector(waxman24, workload, config)
        impact = injector.inject_failure(manager)
        assert len(impact.failed_links) == 3
        # Every burst link shares a node with at least one other member.
        for lid in impact.failed_links:
            others = [o for o in impact.failed_links if o != lid]
            assert any(set(lid) & set(o) for o in others)

    def test_shared_node_victims_are_pinned(self, waxman24, contract):
        # The candidate pool is drawn from in sorted order; any other
        # order (a set's, say) picks other victims from the same draws.
        manager = make_manager(waxman24)
        workload = make_workload(waxman24, contract)
        config = FaultConfig(mode="burst", burst_size=4)
        injector = CorrelatedBurstInjector(waxman24, workload, config)
        bursts = [injector.inject_failure(manager).failed_links for _ in range(3)]
        assert bursts == [
            [(0, 3), (0, 10), (0, 20), (10, 21)],
            [(3, 10), (7, 10), (7, 13), (7, 23)],
            [(0, 1), (0, 11), (1, 11), (1, 13)],
        ]

    def test_distance_kernel_needs_positions(self, ring6, contract):
        workload = make_workload(ring6, contract)
        config = FaultConfig(mode="burst", burst_kernel="distance")
        with pytest.raises(FaultInjectionError):
            CorrelatedBurstInjector(ring6, workload, config)

    def test_distance_kernel_on_waxman(self, waxman24, contract):
        manager = make_manager(waxman24)
        workload = make_workload(waxman24, contract)
        config = FaultConfig(mode="burst", burst_size=4, burst_kernel="distance")
        injector = CorrelatedBurstInjector(waxman24, workload, config)
        impact = injector.inject_failure(manager)
        assert len(impact.failed_links) == 4
        assert len(set(impact.failed_links)) == 4
        for lid in impact.failed_links:
            assert manager.state.is_failed(lid)

    def test_burst_comes_up_short_when_pool_dry(self, line5, contract):
        # A 4-link path asked for a 10-link burst fails what it can.
        manager = make_manager(line5)
        workload = make_workload(line5, contract)
        config = FaultConfig(mode="burst", burst_size=10)
        injector = CorrelatedBurstInjector(line5, workload, config)
        impact = injector.inject_failure(manager)
        assert 1 <= len(impact.failed_links) <= 4


class TestMarkovOnOffInjector:
    def test_homogeneous_spread_matches_base_rates(self, ring6, contract):
        manager = make_manager(ring6)
        workload = make_workload(ring6, contract, gamma=0.02, rho=0.5)
        injector = MarkovOnOffInjector(ring6, workload, FaultConfig(mode="markov"))
        base = FaultInjector(ring6, workload)
        assert injector.failure_rate(manager.state) == pytest.approx(
            base.failure_rate(manager.state)
        )

    def test_incremental_weights_stay_consistent(self, waxman24, contract):
        manager = make_manager(waxman24)
        workload = make_workload(waxman24, contract, gamma=0.01, rho=0.5)
        config = FaultConfig(mode="markov", rate_spread=0.8, rate_seed=9)
        injector = MarkovOnOffInjector(waxman24, workload, config)
        total = sum(injector.multipliers.values())
        for _ in range(10):
            injector.inject_failure(manager)
        for _ in range(4):
            injector.inject_repair(manager)
        # Recompute both sums from scratch and compare to the running ones.
        alive = sum(injector.multipliers[l] for l in manager.state.alive_link_list())
        failed = sum(injector.multipliers[l] for l in manager.state.failed_link_list())
        assert injector.failure_rate(manager.state) == pytest.approx(0.01 * alive)
        assert injector.repair_rate(manager.state) == pytest.approx(0.5 * failed)
        assert alive + failed == pytest.approx(total)

    def test_rate_seed_fixes_the_landscape(self, waxman24, contract):
        workload = make_workload(waxman24, contract)
        config = FaultConfig(mode="markov", rate_spread=0.5, rate_seed=4)
        a = MarkovOnOffInjector(waxman24, workload, config)
        b = MarkovOnOffInjector(waxman24, workload, config)
        assert a.multipliers == b.multipliers

    def test_rate_landscape_values_are_pinned(self, waxman24, contract):
        # Drawn from ``default_rng(rate_seed)``; the legacy RandomState
        # stream, for one, gives other multipliers.
        workload = make_workload(waxman24, contract)
        config = FaultConfig(mode="markov", rate_spread=0.5, rate_seed=4)
        injector = MarkovOnOffInjector(waxman24, workload, config)
        first = sorted(injector.multipliers)[:4]
        assert [injector.multipliers[lid] for lid in first] == pytest.approx(
            [0.6370573625879589, 0.8086746175029655, 2.0276185892832914, 1.2270020971746745],
            rel=1e-12,
        )
