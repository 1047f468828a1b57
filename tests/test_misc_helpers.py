"""Tests for small helpers not covered elsewhere."""

import pytest

from repro.errors import TopologyError
from repro.routing.shortest import reachable_filterless
from repro.topology.graph import Network, iter_adjacent
from repro.topology.regular import line_network


class TestIterAdjacent:
    def test_yields_neighbor_and_link(self, ring6):
        pairs = list(iter_adjacent(ring6, 0))
        assert [nbr for nbr, _ in pairs] == [1, 5]
        assert all(link.id in {(0, 1), (0, 5)} for _, link in pairs)

    def test_unknown_node(self, ring6):
        with pytest.raises(TopologyError):
            list(iter_adjacent(ring6, 42))


class TestReachableFilterless:
    def test_connected_component(self):
        net = Network()
        net.add_link(0, 1, 1.0)
        net.add_link(1, 2, 1.0)
        net.add_link(5, 6, 1.0)
        assert reachable_filterless(net, 0) == {0, 1, 2}
        assert reachable_filterless(net, 5) == {5, 6}


class TestIsMaximalNegative:
    def test_detects_non_maximal_allocation(self, elastic_qos):
        from repro.reference import State, is_maximal

        class Chan:
            def __init__(self, cid, links, qos):
                self.conn_id = cid
                self.primary_links = links
                self.level = 0
                self._qos = qos

            @property
            def elastic_qos(self):
                return self._qos

        state = State(line_network(3, 1000.0))
        chan = Chan(1, [(0, 1)], elastic_qos)
        state.reserve_primary_path(1, chan.primary_links, elastic_qos.b_min)
        # Plenty of spare, level still 0: not maximal.
        assert not is_maximal(state, {1: chan}, [1])


class TestTraceSummaryRepairs:
    def test_repairs_counted(self):
        from repro.channels.records import EventImpact, EventKind
        from repro.sim.trace import TraceRecorder

        rec = TraceRecorder()
        rec.record(EventImpact(kind=EventKind.FAILURE, time=1.0, failed_link=(0, 1)), 0, 0.0)
        rec.record(EventImpact(kind=EventKind.REPAIR, time=2.0, failed_link=(0, 1)), 0, 0.0)
        summary = rec.summary()
        assert summary.failures == 1
        assert summary.repairs == 1


class TestModelSolutionHelpers:
    def test_occupancy_matches_pi(self):
        import numpy as np

        from repro.markov.model import ElasticQoSMarkovModel
        from repro.markov.parameters import (
            MarkovParameters,
            uniform_downward_matrix,
            uniform_upward_matrix,
        )
        from repro.qos.spec import ElasticQoS

        qos = ElasticQoS(b_min=100.0, b_max=200.0, increment=50.0)
        params = MarkovParameters(
            num_levels=3,
            pf=0.5,
            ps=0.3,
            a=uniform_downward_matrix(3),
            b=uniform_upward_matrix(3),
            t=uniform_upward_matrix(3),
            arrival_rate=1.0,
            termination_rate=1.0,
        )
        sol = ElasticQoSMarkovModel(qos, params).solve()
        assert sol.occupancy(1) == pytest.approx(float(sol.pi[1]))
        assert np.allclose(sol.level_bandwidths, [100.0, 150.0, 200.0])
