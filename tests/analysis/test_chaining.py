"""Unit tests for static chaining analysis (exact Pf / Ps)."""

import numpy as np
import pytest

from repro.analysis.chaining import (
    chaining_for_route,
    expected_arrival_chaining,
    snapshot_chaining,
)
from repro.channels import make_manager
from repro.errors import EstimationError
from repro.topology.regular import dumbbell_network, line_network


class TestSnapshot:
    def test_empty_manager(self, ring6):
        snap = snapshot_chaining(make_manager(ring6))
        assert snap.num_channels == 0
        assert snap.pf == snap.ps == 0.0

    def test_two_overlapping_channels(self, contract_no_backup):
        net = line_network(4, 1000.0)
        manager = make_manager(net)
        manager.request_connection(0, 2, contract_no_backup)  # links (0,1),(1,2)
        manager.request_connection(1, 3, contract_no_backup)  # links (1,2),(2,3)
        snap = snapshot_chaining(manager)
        assert snap.num_channels == 2
        assert snap.pf == 1.0  # the only ordered pairs are directly chained
        assert snap.ps == 0.0

    def test_indirect_chain_of_three(self, contract_no_backup):
        net = line_network(7, 1000.0)
        manager = make_manager(net)
        a, _ = manager.request_connection(0, 2, contract_no_backup)
        b, _ = manager.request_connection(2, 4, contract_no_backup)  # no shared link with a
        c, _ = manager.request_connection(1, 3, contract_no_backup)  # overlaps both
        snap = snapshot_chaining(manager)
        # pairs: (a,c) and (b,c) direct (2 unordered = 4 ordered);
        # (a,b) indirect via c (2 ordered).
        assert snap.pf == pytest.approx(4 / 6)
        assert snap.ps == pytest.approx(2 / 6)
        assert snap.direct_degree[c.conn_id] == 2
        assert snap.indirect_degree[a.conn_id] == 1

    def test_disjoint_channels(self, contract_no_backup):
        net = dumbbell_network(3, 1000.0)
        manager = make_manager(net)
        manager.request_connection(1, 2, contract_no_backup)
        manager.request_connection(5, 6, contract_no_backup)
        snap = snapshot_chaining(manager)
        assert snap.pf == 0.0
        assert snap.ps == 0.0

    def test_mean_direct_degree(self, contract_no_backup):
        net = line_network(4, 1000.0)
        manager = make_manager(net)
        manager.request_connection(0, 2, contract_no_backup)
        manager.request_connection(1, 3, contract_no_backup)
        snap = snapshot_chaining(manager)
        assert snap.mean_direct_degree == pytest.approx(1.0)


class TestRouteChaining:
    def test_exact_fractions(self, contract_no_backup):
        net = line_network(5, 1000.0)
        manager = make_manager(net)
        manager.request_connection(0, 1, contract_no_backup)   # link (0,1)
        manager.request_connection(3, 4, contract_no_backup)   # link (3,4)
        # A route over (1,2),(2,3) touches neither channel: pf=0, ps=0.
        pf, ps = chaining_for_route(manager, [(1, 2), (2, 3)])
        assert (pf, ps) == (0.0, 0.0)
        # A route over (0,1) is direct with the first channel only.
        pf, ps = chaining_for_route(manager, [(0, 1)])
        assert pf == pytest.approx(0.5)
        assert ps == 0.0

    def test_requires_live_channels(self, ring6):
        with pytest.raises(EstimationError):
            chaining_for_route(make_manager(ring6), [(0, 1)])


class TestMonteCarloArrivalChaining:
    def test_matches_simulator_estimates(self, contract):
        """Static Monte-Carlo Pf must agree with the event-averaged Pf
        from the simulator on the same network and load."""
        from repro.sim.simulator import ElasticQoSSimulator, SimulationConfig
        from repro.topology.waxman import paper_random_network

        rng = np.random.default_rng(3)
        net = paper_random_network(10_000.0, rng, n=40, target_edges=90)
        config = SimulationConfig(
            qos=contract, offered_connections=200,
            warmup_events=100, measure_events=800,
        )
        sim = ElasticQoSSimulator(net, config, seed=5)
        result = sim.run()
        static_pf, static_ps = expected_arrival_chaining(
            sim.manager, num_samples=200, rng=np.random.default_rng(9)
        )
        assert static_pf == pytest.approx(result.params.pf, rel=0.35)
        assert static_ps == pytest.approx(result.params.ps, rel=0.35)

    def test_validation(self, ring6, contract_no_backup):
        manager = make_manager(ring6)
        manager.request_connection(0, 2, contract_no_backup)
        with pytest.raises(EstimationError):
            expected_arrival_chaining(manager, 0, np.random.default_rng(0))
