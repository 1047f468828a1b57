"""Unit tests for Markov-parameter estimation from event impacts."""

import numpy as np
import pytest

from repro.channels import make_manager
from repro.channels.records import EventImpact, EventKind
from repro.errors import EstimationError
from repro.sim.estimation import TransitionEstimator, _normalise


def arrival_impact(direct, conn_id=99, accepted=True):
    return EventImpact(
        kind=EventKind.ARRIVAL, conn_id=conn_id, accepted=accepted, direct=dict(direct)
    )


class TestNormalise:
    def test_rows_normalised(self):
        counts = np.array([[2.0, 2.0], [0.0, 4.0]])
        out = _normalise(counts)
        assert np.allclose(out, [[0.5, 0.5], [0.0, 1.0]])

    def test_empty_rows_become_uniform(self):
        out = _normalise(np.zeros((3, 3)))
        assert np.allclose(out, np.full((3, 3), 1.0 / 3.0))

    def test_input_not_mutated(self):
        counts = np.array([[1.0, 1.0], [0.0, 0.0]])
        _normalise(counts)
        assert counts[0, 0] == 1.0


class TestCounting:
    def test_arrival_counts_into_a(self, ring6):
        manager = make_manager(ring6)
        est = TransitionEstimator(num_levels=3, arrival_rate=1.0, termination_rate=1.0)
        est.observe(arrival_impact({1: (2, 0), 2: (1, 1)}), manager, pre_event_live=4)
        assert est.a_counts[2, 0] == 1
        assert est.a_counts[1, 1] == 1
        assert est.a_counts.sum() == 2

    def test_termination_counts_into_t(self, ring6):
        manager = make_manager(ring6)
        est = TransitionEstimator(num_levels=3, arrival_rate=1.0, termination_rate=1.0)
        impact = EventImpact(kind=EventKind.TERMINATION, conn_id=5, direct={1: (0, 2)})
        est.observe(impact, manager, pre_event_live=4)
        assert est.t_counts[0, 2] == 1
        assert est.a_counts.sum() == 0

    def test_failure_counts_into_f(self, ring6):
        manager = make_manager(ring6)
        est = TransitionEstimator(num_levels=3, arrival_rate=1.0, termination_rate=1.0)
        impact = EventImpact(kind=EventKind.FAILURE, direct={1: (2, 0)})
        est.observe(impact, manager, pre_event_live=4)
        assert est.f_counts[2, 0] == 1

    def test_repair_is_ignored(self, ring6):
        manager = make_manager(ring6)
        est = TransitionEstimator(num_levels=3, arrival_rate=1.0, termination_rate=1.0)
        est.observe(EventImpact(kind=EventKind.REPAIR), manager, pre_event_live=4)
        with pytest.raises(EstimationError):
            _ = est.pf


class TestPfEstimation:
    def test_pf_is_direct_fraction(self, ring6):
        manager = make_manager(ring6)
        est = TransitionEstimator(num_levels=3, arrival_rate=1.0, termination_rate=1.0)
        est.observe(arrival_impact({1: (0, 0), 2: (0, 0)}), manager, pre_event_live=4)
        assert est.pf == pytest.approx(0.5)

    def test_pf_averages_over_events(self, ring6):
        manager = make_manager(ring6)
        est = TransitionEstimator(num_levels=3, arrival_rate=1.0, termination_rate=1.0)
        est.observe(arrival_impact({1: (0, 0)}), manager, pre_event_live=4)   # 0.25
        est.observe(arrival_impact({}), manager, pre_event_live=4)            # 0.0
        assert est.pf == pytest.approx(0.125)

    def test_rejected_arrival_counts_zero_direct(self, ring6):
        manager = make_manager(ring6)
        est = TransitionEstimator(num_levels=3, arrival_rate=1.0, termination_rate=1.0)
        est.observe(arrival_impact({}, accepted=False), manager, pre_event_live=4)
        assert est.pf == 0.0

    def test_pf_undefined_before_events(self, ring6):
        est = TransitionEstimator(num_levels=3, arrival_rate=1.0, termination_rate=1.0)
        with pytest.raises(EstimationError):
            _ = est.pf


class TestEstimate:
    def test_requires_observations(self):
        est = TransitionEstimator(num_levels=3, arrival_rate=1.0, termination_rate=1.0)
        with pytest.raises(EstimationError):
            est.estimate()

    def test_produces_valid_parameters(self, ring6):
        manager = make_manager(ring6)
        est = TransitionEstimator(
            num_levels=3, arrival_rate=0.5, termination_rate=0.5, failure_rate=0.1
        )
        est.observe(arrival_impact({1: (2, 0)}), manager, pre_event_live=4)
        impact = EventImpact(kind=EventKind.TERMINATION, conn_id=5, direct={1: (0, 2)})
        est.observe(impact, manager, pre_event_live=4)
        params = est.estimate()
        assert params.num_levels == 3
        assert params.arrival_rate == 0.5
        assert params.failure_rate == 0.1
        assert params.a[2, 0] == 1.0
        assert params.t[0, 2] == 1.0
        assert 0.0 <= params.pf <= 1.0
        assert params.observations["a"] == 1

    def test_failure_matrix_optional(self, ring6):
        manager = make_manager(ring6)
        est = TransitionEstimator(num_levels=2, arrival_rate=1.0, termination_rate=1.0)
        est.observe(arrival_impact({1: (1, 0)}), manager, pre_event_live=2)
        est.observe(
            EventImpact(kind=EventKind.FAILURE, direct={1: (1, 0)}),
            manager,
            pre_event_live=2,
        )
        assert est.estimate().f is None
        with_f = est.estimate(use_failure_matrix=True)
        assert with_f.f is not None
        assert with_f.f[1, 0] == 1.0

    def test_validation_rejects_bad_levels(self):
        with pytest.raises(EstimationError):
            TransitionEstimator(num_levels=0, arrival_rate=1.0, termination_rate=1.0)
        with pytest.raises(EstimationError):
            TransitionEstimator(
                num_levels=2, arrival_rate=1.0, termination_rate=1.0, sample_interval=0
            )


class TestIndirectSampling:
    def test_sampled_arrival_counts_b(self, dumbbell3, contract_no_backup):
        """Drive a real manager so the indirect set is genuine."""
        manager = make_manager(dumbbell3)
        est = TransitionEstimator(
            num_levels=9, arrival_rate=1.0, termination_rate=1.0, sample_interval=1
        )
        # Two channels: A on leaf 1 - hub 0; B crossing 1-0-4-5.
        a, _ = manager.request_connection(1, 0, contract_no_backup)
        b, impact_b = manager.request_connection(2, 6, contract_no_backup)
        pre = 1
        est.observe(impact_b, manager, pre_event_live=pre)
        # A shares link (0,1)? A's path is [1,0]; B's path is [2,0,4,6]:
        # no shared link, but both touch node 0. A is indirect only if it
        # shares a link with a direct channel; with only two channels the
        # indirect set is empty, so B's arrival records ps = 0.
        assert est._ps_events == 1
        params = est.estimate()
        assert params.ps == 0.0
