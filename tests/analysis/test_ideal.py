"""Unit tests for the ideal-average-bandwidth formula."""

import pytest

from repro.errors import SimulationError
from repro.analysis.ideal import ideal_average_bandwidth, ideal_for_network
from repro.topology.graph import Network
from repro.topology.regular import ring_network


class TestFormula:
    def test_paper_numbers(self):
        # BW=10 Mb/s, 354 edges, 1000 channels, 8 hops -> 442.5 Kb/s
        got = ideal_average_bandwidth(10_000.0, 354, 1000, 8.0)
        assert got == pytest.approx(442.5)

    def test_inverse_in_channels(self):
        one = ideal_average_bandwidth(10_000.0, 354, 1000, 8.0)
        two = ideal_average_bandwidth(10_000.0, 354, 2000, 8.0)
        assert two == pytest.approx(one / 2)

    def test_invalid_inputs(self):
        with pytest.raises(SimulationError):
            ideal_average_bandwidth(0.0, 354, 1000, 8.0)
        with pytest.raises(SimulationError):
            ideal_average_bandwidth(1.0, 354, 0, 8.0)
        with pytest.raises(SimulationError):
            ideal_average_bandwidth(1.0, -1, 10, 8.0)


class TestForNetwork:
    def test_ring(self):
        net = ring_network(6, 1000.0)
        # 6 edges, avg hops 1.8 (ring of 6)
        got = ideal_for_network(net, num_channels=10)
        assert got == pytest.approx(1000.0 * 6 / (10 * 1.8))

    def test_non_uniform_capacity_rejected(self):
        net = Network()
        net.add_link(0, 1, 100.0)
        net.add_link(1, 2, 200.0)
        with pytest.raises(SimulationError):
            ideal_for_network(net, 5)

    def test_empty_network_rejected(self):
        with pytest.raises(SimulationError):
            ideal_for_network(Network(), 5)
