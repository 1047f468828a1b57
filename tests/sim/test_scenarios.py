"""Unit tests for canned workload scenarios."""

import pytest

from repro.errors import QoSSpecError
from repro.faults.audit import AuditPolicy
from repro.sim.scenarios import bandwidth_tiers, utility_classes, video_mix
from repro.sim.simulator import ElasticQoSSimulator, SimulationConfig
from repro.topology.regular import complete_network


class TestVideoMix:
    def test_telemetry_cadence(self):
        factory = video_mix(telemetry_every=5)
        for i in range(20):
            qos = factory(i)
            if i % 5 == 0:
                assert qos.performance.b_min == 50.0
                assert not qos.performance.is_elastic()
            else:
                assert qos.performance.b_min == 100.0

    def test_premium_utility(self):
        factory = video_mix(premium_every=2, telemetry_every=100)
        assert factory(2).performance.utility == 4.0
        assert factory(3).performance.utility == 1.0

    def test_deterministic_in_index(self):
        factory = video_mix()
        assert factory(7) == factory(7)

    def test_invalid_periods(self):
        with pytest.raises(QoSSpecError):
            video_mix(premium_every=0)


class TestUtilityClasses:
    def test_round_robin(self):
        factory = utility_classes([1.0, 2.0, 5.0])
        assert [factory(i).performance.utility for i in range(6)] == [
            1.0, 2.0, 5.0, 1.0, 2.0, 5.0,
        ]

    def test_empty_rejected(self):
        with pytest.raises(QoSSpecError):
            utility_classes([])

    def test_backups_configurable(self):
        factory = utility_classes([1.0], num_backups=0)
        assert not factory(0).dependability.wants_backup


class TestBandwidthTiers:
    def test_tiers_cycle(self):
        factory = bandwidth_tiers([(50, 50, 50), (100, 500, 50)])
        audio = factory(0)
        video = factory(1)
        assert audio.performance.num_levels == 1
        assert video.performance.num_levels == 9
        assert factory(2) == audio

    def test_empty_rejected(self):
        with pytest.raises(QoSSpecError):
            bandwidth_tiers([])


class TestScenarioDrivesSimulator:
    def test_heterogeneous_run_completes(self):
        """The simulator accepts a mixed-levels factory; occupancy is
        clipped into the template's level count."""
        from repro.analysis.experiments import paper_connection_qos

        net = complete_network(8, 2000.0)
        config = SimulationConfig(
            qos=paper_connection_qos(),
            offered_connections=15,
            warmup_events=20,
            measure_events=120,
            qos_factory=video_mix(),
            audit=AuditPolicy(every_n_events=20),
        )
        result = ElasticQoSSimulator(net, config, seed=9).run()
        assert result.initial_population > 0
        assert 50.0 <= result.average_bandwidth <= 500.0 + 1e-6
