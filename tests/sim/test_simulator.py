"""Integration-ish unit tests for the end-to-end simulator."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.faults.audit import AuditPolicy
from repro.sim.simulator import ElasticQoSSimulator, SimulationConfig
from repro.sim.workload import WorkloadConfig
from repro.topology.regular import complete_network, ring_network


def small_config(contract, **overrides):
    base = dict(
        qos=contract,
        offered_connections=10,
        warmup_events=20,
        measure_events=60,
        sample_interval=5,
        audit=AuditPolicy(every_n_events=10),
    )
    base.update(overrides)
    return SimulationConfig(**base)


@pytest.fixture
def net():
    return complete_network(8, 2000.0)


class TestConfigValidation:
    def test_negative_offered_rejected(self, contract):
        with pytest.raises(SimulationError):
            SimulationConfig(qos=contract, offered_connections=-1)

    def test_bad_setup_mode_rejected(self, contract):
        with pytest.raises(SimulationError):
            SimulationConfig(qos=contract, offered_connections=1, setup_mode="magic")

    def test_bad_event_counts_rejected(self, contract):
        with pytest.raises(SimulationError):
            SimulationConfig(qos=contract, offered_connections=1, measure_events=0)


class TestSetup:
    def test_offered_mode_tries_exactly_n(self, net, contract):
        sim = ElasticQoSSimulator(net, small_config(contract), seed=3)
        live = sim.establish_initial_population()
        assert sim.manager.stats.requests == 10
        assert live == sim.manager.num_live
        assert live > 0

    def test_accepted_mode_reaches_target(self, net, contract):
        sim = ElasticQoSSimulator(
            net, small_config(contract, setup_mode="accepted"), seed=3
        )
        live = sim.establish_initial_population()
        assert live == 10

    def test_accepted_mode_raises_when_impossible(self, contract):
        tiny = ring_network(3, 150.0)
        sim = ElasticQoSSimulator(
            tiny,
            small_config(contract, offered_connections=30, setup_mode="accepted"),
            seed=3,
        )
        with pytest.raises(SimulationError):
            sim.establish_initial_population()

    def test_setup_redistributes_extras(self, net, contract):
        sim = ElasticQoSSimulator(net, small_config(contract), seed=3)
        sim.establish_initial_population()
        # Light load on a rich topology: everyone should sit above minimum.
        assert sim.manager.average_live_bandwidth() > 100.0


class TestRun:
    def test_run_produces_result(self, net, contract):
        result = ElasticQoSSimulator(net, small_config(contract), seed=5).run()
        assert result.events == 80
        assert result.end_time > 0
        assert 100.0 - 1e-6 <= result.average_bandwidth <= 500.0 + 1e-6
        assert result.initial_population > 0
        assert result.topology_nodes == 8
        assert abs(result.level_occupancy.sum() - 1.0) < 1e-6

    def test_deterministic_given_seed(self, net, contract):
        r1 = ElasticQoSSimulator(net, small_config(contract), seed=7).run()
        r2 = ElasticQoSSimulator(net, small_config(contract), seed=7).run()
        assert r1.average_bandwidth == r2.average_bandwidth
        assert r1.end_time == r2.end_time
        assert np.array_equal(r1.params.a, r2.params.a)

    def test_different_seeds_differ(self, net, contract):
        r1 = ElasticQoSSimulator(net, small_config(contract), seed=1).run()
        r2 = ElasticQoSSimulator(net, small_config(contract), seed=2).run()
        assert r1.end_time != r2.end_time

    def test_balanced_mode_pins_population(self, net, contract):
        cfg = small_config(contract, offered_connections=12, measure_events=100)
        result = ElasticQoSSimulator(net, cfg, seed=5).run()
        # Balanced churn keeps population within one of the initial value.
        assert abs(result.measurement.average_population - result.initial_population) <= 1.5

    def test_unbalanced_mode_runs(self, net, contract):
        cfg = small_config(
            contract, workload=WorkloadConfig(balanced=False), measure_events=80
        )
        result = ElasticQoSSimulator(net, cfg, seed=5).run()
        assert result.events == 100

    def test_failures_injected(self, net, contract):
        cfg = small_config(
            contract,
            workload=WorkloadConfig(
                link_failure_rate=0.001 / 28, repair_rate=0.01
            ),
            measure_events=150,
        )
        result = ElasticQoSSimulator(net, cfg, seed=11).run()
        assert result.manager_stats.link_failures > 0
        # Parameters carry the network-wide failure rate.
        assert result.params.failure_rate == pytest.approx(0.001)

    def test_params_are_valid(self, net, contract):
        result = ElasticQoSSimulator(net, small_config(contract), seed=5).run()
        params = result.params
        assert params.num_levels == 9
        assert np.allclose(params.a.sum(axis=1), 1.0)
        assert np.allclose(params.b.sum(axis=1), 1.0)
        assert np.allclose(params.t.sum(axis=1), 1.0)
        assert 0.0 <= params.pf + params.ps <= 1.0 + 1e-9
