"""Tests for the AuditPolicy / Auditor run-time invariant auditing."""

import math

import pytest

from repro.channels import make_manager
from repro.channels.records import EventImpact, EventKind
from repro.errors import AuditError, FaultInjectionError
from repro.faults import AuditPolicy, Auditor
from repro.sim.simulator import ElasticQoSSimulator, SimulationConfig
from repro.sim.workload import WorkloadConfig


class TestAuditPolicy:
    def test_defaults_disabled(self):
        policy = AuditPolicy()
        assert not policy.enabled

    def test_enabled_variants(self):
        assert AuditPolicy(every_n_events=10).enabled
        assert AuditPolicy(after_failure=True).enabled
        assert AuditPolicy(every_n_events=5, after_failure=True).enabled

    def test_negative_period_rejected(self):
        with pytest.raises(FaultInjectionError):
            AuditPolicy(every_n_events=-1)

    def test_nonpositive_tail_rejected(self):
        with pytest.raises(FaultInjectionError):
            AuditPolicy(trace_tail=0)


def impact_at(time, **kwargs):
    return EventImpact(kind=EventKind.FAILURE, time=time, **kwargs)


class TestAuditor:
    def test_after_failure_checks_only_failures(self, ring6):
        manager = make_manager(ring6)
        auditor = Auditor(AuditPolicy(after_failure=True), manager)
        auditor.observe(0, "churn", impact_at(1.0))
        auditor.observe(1, "repair", None)
        assert auditor.checks_run == 0
        auditor.observe(2, "failure", impact_at(2.0, failed_link=(0, 1)))
        assert auditor.checks_run == 1

    def test_every_n_period(self, ring6):
        manager = make_manager(ring6)
        auditor = Auditor(AuditPolicy(every_n_events=3), manager)
        for index in range(9):
            auditor.observe(index, "churn", None)
        assert auditor.checks_run == 3  # after events 2, 5 and 8

    def test_tail_is_bounded(self, ring6):
        manager = make_manager(ring6)
        auditor = Auditor(AuditPolicy(every_n_events=100, trace_tail=4), manager)
        for index in range(10):
            auditor.observe(index, "churn", impact_at(float(index)))
        assert len(auditor.tail) == 4
        assert [entry.index for entry in auditor.tail] == [6, 7, 8, 9]

    def test_noop_events_marked_in_tail(self, ring6):
        manager = make_manager(ring6)
        auditor = Auditor(AuditPolicy(every_n_events=100), manager)
        auditor.observe(0, "repair", None)
        entry = auditor.tail[0]
        assert entry.category == "repair (no-op)"
        assert math.isnan(entry.time)

    def test_corruption_raises_audit_error_with_tail(self, ring6, contract):
        manager = make_manager(ring6)
        conn, _ = manager.request_connection(0, 2, contract)
        auditor = Auditor(AuditPolicy(after_failure=True), manager)
        auditor.observe(0, "churn", impact_at(1.0, conn_id=conn.conn_id))
        # Sabotage a reservation column behind the connection table's back.
        manager.links.primary_min[manager.links.index_of((0, 1))] += 333.0
        with pytest.raises(AuditError) as excinfo:
            auditor.observe(1, "failure", impact_at(2.0, failed_link=(3, 4)))
        err = excinfo.value
        assert "invariant audit failed after event 1" in str(err)
        assert "event trail" in str(err)
        assert err.event_index == 1
        assert len(err.trace_tail) == 2
        assert err.trace_tail[-1].failed_links == ((3, 4),)


class TestMidRunCorruption:
    """Satellite: a reservation corrupted mid-run must trip the audit."""

    def test_simulator_audit_catches_corruption(self, ring6, contract):
        config = SimulationConfig(
            qos=contract,
            workload=WorkloadConfig(
                arrival_rate=0.001,
                termination_rate=0.001,
                link_failure_rate=0.0002,
                repair_rate=1.0,
            ),
            offered_connections=4,
            warmup_events=0,
            measure_events=400,
            audit=AuditPolicy(every_n_events=1),
        )
        sim = ElasticQoSSimulator(ring6, config, seed=7)
        manager = sim.manager
        real_next_request = sim.workload.next_request
        calls = {"n": 0, "corrupted": False}

        def corrupting_next_request():
            calls["n"] += 1
            # Past the initial population (4 requests), sabotage the first
            # primary reservation found; retry until one exists (the lone
            # survivor may briefly be running on its activated backup).
            if calls["n"] > 4 and not calls["corrupted"]:
                for li in range(len(manager.links)):
                    if manager._prims_on[li]:
                        manager.links.primary_min[li] += 333.0
                        calls["corrupted"] = True
                        break
            return real_next_request()

        sim.workload.next_request = corrupting_next_request
        with pytest.raises(AuditError) as excinfo:
            sim.run()
        err = excinfo.value
        assert "invariant audit failed" in str(err)
        assert err.event_index is not None
        assert err.trace_tail  # post-mortem tail travels with the error

    def test_clean_run_passes_audits(self, ring6, contract):
        config = SimulationConfig(
            qos=contract,
            workload=WorkloadConfig(
                arrival_rate=0.001,
                termination_rate=0.001,
                link_failure_rate=0.0002,
                repair_rate=1.0,
            ),
            offered_connections=4,
            warmup_events=0,
            measure_events=400,
            audit=AuditPolicy(every_n_events=10, after_failure=True),
        )
        result = ElasticQoSSimulator(ring6, config, seed=7).run()
        assert result.audit_checks >= 40
