"""Tests for injected backup-activation faults (graceful drop path)."""

import numpy as np
import pytest

from repro.channels import make_manager
from repro.channels.records import ConnectionState
from repro.errors import FaultInjectionError
from repro.faults import FaultConfig
from repro.sim.simulator import ElasticQoSSimulator, SimulationConfig
from repro.sim.workload import WorkloadConfig


class TestSetActivationFaults:
    def test_probability_out_of_range_rejected(self, ring6):
        manager = make_manager(ring6)
        with pytest.raises(FaultInjectionError):
            manager.set_activation_faults(-0.1, np.random.default_rng(0))
        with pytest.raises(FaultInjectionError):
            manager.set_activation_faults(1.1, np.random.default_rng(0))

    def test_positive_probability_requires_rng(self, ring6):
        manager = make_manager(ring6)
        with pytest.raises(FaultInjectionError):
            manager.set_activation_faults(0.5, None)

    def test_zero_probability_without_rng_allowed(self, ring6):
        manager = make_manager(ring6)
        manager.set_activation_faults(0.0, None)


class TestActivationFaultBehaviour:
    def test_certain_fault_drops_instead_of_activating(self, ring6, contract):
        manager = make_manager(ring6)
        manager.set_activation_faults(1.0, np.random.default_rng(0))
        conn, _ = manager.request_connection(0, 2, contract)
        impact = manager.fail_link((0, 1))
        assert not manager.is_live(conn.conn_id)
        assert impact.activation_faults == [conn.conn_id]
        assert conn.conn_id in impact.dropped
        assert impact.activated == []
        assert manager.stats.activation_faults == 1
        assert manager.stats.backups_activated == 0
        # An activation fault is a double failure from the QoS viewpoint:
        # the connection had protection and still went down.
        assert manager.stats.double_failure_drops == 1
        manager.check_invariants()

    def test_zero_probability_activates_normally(self, ring6, contract):
        manager = make_manager(ring6)
        manager.set_activation_faults(0.0, np.random.default_rng(0))
        conn, _ = manager.request_connection(0, 2, contract)
        impact = manager.fail_link((0, 1))
        assert manager.connection(conn.conn_id).state is ConnectionState.FAILED_OVER
        assert impact.activated == [conn.conn_id]
        assert impact.activation_faults == []
        assert manager.stats.activation_faults == 0
        assert manager.stats.backups_activated == 1
        manager.check_invariants()

    def test_faulted_activation_releases_backup_resources(self, ring6, contract):
        manager = make_manager(ring6)
        manager.set_activation_faults(1.0, np.random.default_rng(0))
        manager.request_connection(0, 2, contract)
        manager.fail_link((0, 1))
        # The dropped connection must leave no reservations behind on the
        # backup path it failed to switch onto.
        for lid in ring6.link_ids():
            primary_min, _extra, activated, backup_reserved, _failed = manager.link_totals(lid)
            assert activated == 0.0
            assert primary_min == 0.0
            assert backup_reserved == 0.0


class TestSimulatorIntegration:
    def make_config(self, contract, prob):
        return SimulationConfig(
            qos=contract,
            workload=WorkloadConfig(
                arrival_rate=0.001,
                termination_rate=0.001,
                link_failure_rate=0.0005,
                repair_rate=1.0,
            ),
            offered_connections=4,
            warmup_events=0,
            measure_events=600,
            faults=FaultConfig(activation_fault_prob=prob),
        )

    def test_certain_faults_suppress_all_activations(self, ring6, contract):
        config = self.make_config(contract, 1.0)
        result = ElasticQoSSimulator(ring6, config, seed=11).run()
        stats = result.manager_stats
        assert stats.activation_faults > 0
        assert stats.backups_activated == 0
        assert stats.double_failure_drops >= stats.activation_faults

    def test_disabled_faults_leave_stats_clean(self, ring6, contract):
        config = self.make_config(contract, 0.0)
        result = ElasticQoSSimulator(ring6, config, seed=11).run()
        stats = result.manager_stats
        assert stats.activation_faults == 0
        assert stats.backups_activated > 0
