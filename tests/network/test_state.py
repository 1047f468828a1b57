"""Unit tests for network-wide reservation state (the reference's path operations)."""

import pytest

from repro.errors import ReservationError, TopologyError
from repro.reference import State


@pytest.fixture
def state(line5):
    return State(line5)


PATH = [(0, 1), (1, 2), (2, 3)]


class TestLinkAccess:
    def test_link_lookup(self, state):
        assert state.link((0, 1)).capacity == 1000.0

    def test_unknown_link_rejected(self, state):
        with pytest.raises(TopologyError):
            state.link((0, 9))

    def test_links_iterates_all(self, state):
        assert len(list(state.links())) == 4


class TestFailures:
    def test_fail_and_repair(self, state):
        state.fail_link((1, 2))
        assert state.is_failed((1, 2))
        assert state.failed_links == frozenset({(1, 2)})
        state.repair_link((1, 2))
        assert not state.is_failed((1, 2))

    def test_double_fail_rejected(self, state):
        state.fail_link((1, 2))
        with pytest.raises(ReservationError):
            state.fail_link((1, 2))

    def test_repair_of_healthy_rejected(self, state):
        with pytest.raises(ReservationError):
            state.repair_link((1, 2))

    def test_path_is_alive(self, state):
        assert state.path_is_alive(PATH)
        state.fail_link((1, 2))
        assert not state.path_is_alive(PATH)
        assert state.path_is_alive([(3, 4)])


class TestPrimaryPaths:
    def test_reserve_and_release(self, state):
        state.reserve_primary_path(1, PATH, 100.0)
        assert state.primary_level_bandwidth(1, PATH) == 100.0
        freed = state.release_primary_path(1, PATH)
        assert freed == 300.0  # 100 on each of 3 links

    def test_admission_test(self, state):
        assert state.can_admit_primary_path(PATH, 1000.0)
        state.reserve_primary_path(1, PATH, 600.0)
        assert not state.can_admit_primary_path(PATH, 500.0)
        assert state.can_admit_primary_path([(3, 4)], 1000.0)

    def test_atomic_rollback_on_failure(self, state):
        # Fill (2,3) so a reservation across it must fail midway.
        state.reserve_primary_path(9, [(2, 3)], 950.0)
        with pytest.raises(Exception):
            state.reserve_primary_path(1, PATH, 100.0)
        # Links before the failing one must have been rolled back.
        assert not state.link((0, 1)).has_primary(1)
        assert not state.link((1, 2)).has_primary(1)

    def test_inconsistent_path_bandwidth_detected(self, state):
        state.reserve_primary_path(1, PATH, 100.0)
        state.link((1, 2)).grant_extra(1, 50.0)  # corrupt: only one link raised
        with pytest.raises(ReservationError):
            state.primary_level_bandwidth(1, PATH)

    def test_empty_path_rejected(self, state):
        with pytest.raises(ReservationError):
            state.primary_level_bandwidth(1, [])

    def test_drop_extras_reports_affected(self, state):
        state.reserve_primary_path(1, PATH, 100.0)
        for lid in PATH[:2]:
            state.link(lid).grant_extra(1, 50.0)
        affected = state.drop_extras_of(1, PATH)
        assert affected == PATH[:2]


class TestBackupPaths:
    def test_reserve_activate_release(self, state):
        primary = frozenset({(3, 4)})
        state.reserve_backup_path(1, PATH, 100.0, primary)
        assert all(state.link(lid).has_backup(1) for lid in PATH)
        assert state.can_activate_backup_path(1, PATH)
        state.activate_backup_path(1, PATH)
        assert all(state.link(lid).activated.get(1) == 100.0 for lid in PATH)
        freed = state.release_activated_path(1, PATH)
        assert freed == 300.0

    def test_release_inactive_backup(self, state):
        primary = frozenset({(3, 4)})
        state.reserve_backup_path(1, PATH, 100.0, primary)
        state.release_backup_path(1, PATH)
        assert all(not state.link(lid).has_backup(1) for lid in PATH)

    def test_backup_admission(self, state):
        primary = frozenset({(3, 4)})
        state.reserve_primary_path(9, PATH, 950.0)
        assert not state.can_admit_backup_path(PATH, 100.0, primary)
        assert state.can_admit_backup_path(PATH, 50.0, primary)

    def test_reserve_backup_rollback(self, state):
        primary = frozenset({(3, 4)})
        state.reserve_primary_path(9, [(2, 3)], 950.0)
        with pytest.raises(Exception):
            state.reserve_backup_path(1, PATH, 100.0, primary)
        assert not state.link((0, 1)).has_backup(1)
        assert not state.link((1, 2)).has_backup(1)

    def test_activate_empty_path_rejected(self, state):
        with pytest.raises(ReservationError):
            state.activate_backup_path(1, [])

    def test_activate_unknown_backup_rejected(self, state):
        with pytest.raises(ReservationError):
            state.activate_backup_path(1, PATH)

    def test_activation_rollback_midway(self, state):
        """If one path link cannot activate, earlier links are restored."""
        primary = frozenset({(9, 10)})
        state.reserve_backup_path(1, PATH, 100.0, primary)
        # Saturate (2,3) with another *activated* backup (sequential
        # failures are the only way activation can become infeasible).
        state.reserve_backup_path(7, [(2, 3)], 950.0, frozenset({(11, 12)}))
        state.activate_backup_path(7, [(2, 3)])
        assert not state.can_activate_backup_path(1, PATH)
        with pytest.raises(Exception):
            state.activate_backup_path(1, PATH)
        # (0,1) and (1,2) must hold the reservation again, not an activation.
        for lid in PATH:
            assert state.link(lid).has_backup(1)
            assert 1 not in state.link(lid).activated


class TestDiagnostics:
    def test_totals_and_utilization(self, state):
        assert state.total_capacity() == 4000.0
        state.reserve_primary_path(1, PATH, 100.0)
        assert state.total_used() == 300.0
        assert state.utilization() == pytest.approx(300.0 / 4000.0)

    def test_check_invariants_clean(self, state):
        state.reserve_primary_path(1, PATH, 100.0)
        state.check_invariants()
