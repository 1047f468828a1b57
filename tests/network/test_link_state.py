"""Unit tests for per-link reservation accounting (the reference's :class:`Link`)."""

import pytest

from repro.errors import AdmissionError, ReservationError
from repro.reference import Link


def make_link(capacity=1000.0):
    return Link((0, 1), capacity)


class TestPrimaryReservations:
    def test_add_and_totals(self):
        ls = make_link()
        ls.add_primary(1, 100.0)
        ls.add_primary(2, 200.0)
        assert ls.primary_min_total == 300.0
        assert ls.used == 300.0
        assert ls.spare_for_extras == 700.0

    def test_duplicate_rejected(self):
        ls = make_link()
        ls.add_primary(1, 100.0)
        with pytest.raises(ReservationError):
            ls.add_primary(1, 100.0)

    def test_non_positive_rejected(self):
        ls = make_link()
        with pytest.raises(ReservationError):
            ls.add_primary(1, 0.0)

    def test_overcommit_rejected(self):
        ls = make_link(capacity=150.0)
        ls.add_primary(1, 100.0)
        with pytest.raises(AdmissionError):
            ls.add_primary(2, 100.0)

    def test_can_admit_primary(self):
        ls = make_link(capacity=250.0)
        ls.add_primary(1, 100.0)
        assert ls.can_admit_primary(150.0)
        assert not ls.can_admit_primary(151.0)

    def test_failed_link_admits_nothing(self):
        ls = make_link()
        ls.failed = True
        assert not ls.can_admit_primary(1.0)

    def test_remove_returns_min_plus_extra(self):
        ls = make_link()
        ls.add_primary(1, 100.0)
        ls.grant_extra(1, 50.0)
        assert ls.remove_primary(1) == 150.0
        assert ls.used == 0.0
        assert not ls.has_primary(1)

    def test_remove_unknown_rejected(self):
        with pytest.raises(ReservationError):
            make_link().remove_primary(7)


class TestExtras:
    def test_grant_and_drop(self):
        ls = make_link()
        ls.add_primary(1, 100.0)
        ls.grant_extra(1, 50.0)
        ls.grant_extra(1, 50.0)
        assert ls.extra_of(1) == 100.0
        assert ls.primary_extra_total == 100.0
        assert ls.drop_extra(1) == 100.0
        assert ls.extra_of(1) == 0.0

    def test_grant_beyond_spare_rejected(self):
        ls = make_link(capacity=200.0)
        ls.add_primary(1, 100.0)
        with pytest.raises(AdmissionError):
            ls.grant_extra(1, 150.0)

    def test_grant_to_unknown_channel_rejected(self):
        ls = make_link()
        with pytest.raises(ReservationError):
            ls.grant_extra(9, 10.0)

    def test_grant_must_be_positive(self):
        ls = make_link()
        ls.add_primary(1, 100.0)
        with pytest.raises(ReservationError):
            ls.grant_extra(1, 0.0)

    def test_drop_all_extras(self):
        ls = make_link()
        ls.add_primary(1, 100.0)
        ls.add_primary(2, 100.0)
        ls.grant_extra(1, 100.0)
        ls.grant_extra(2, 200.0)
        assert ls.drop_extra(1) + ls.drop_extra(2) == 300.0
        assert ls.primary_extra_total == 0.0

    def test_extras_can_borrow_backup_reservation(self):
        """The paper's core idea: inactive backup capacity is usable as extras."""
        ls = make_link(capacity=300.0)
        ls.add_primary(1, 100.0)
        ls.add_backup(2, 100.0, frozenset({(5, 6)}))
        assert ls.backup_reserved == 100.0
        # Extra pool ignores the backup reservation: 300 - 100 = 200.
        assert ls.spare_for_extras == 200.0
        ls.grant_extra(1, 200.0)  # borrows the backup's 100
        assert ls.used == 300.0


class TestBackupMultiplexing:
    def test_disjoint_failure_sets_share_reservation(self):
        """Backups whose primaries cannot fail together share capacity."""
        ls = make_link(capacity=1000.0)
        ls.add_backup(1, 100.0, frozenset({(10, 11)}))
        ls.add_backup(2, 100.0, frozenset({(20, 21)}))
        assert ls.backup_reserved == 100.0  # multiplexed, not 200

    def test_shared_failure_link_adds_up(self):
        ls = make_link(capacity=1000.0)
        shared = frozenset({(10, 11)})
        ls.add_backup(1, 100.0, shared)
        ls.add_backup(2, 100.0, shared)
        assert ls.backup_reserved == 200.0

    def test_worst_case_over_failures(self):
        ls = make_link(capacity=1000.0)
        ls.add_backup(1, 100.0, frozenset({(10, 11), (11, 12)}))
        ls.add_backup(2, 150.0, frozenset({(11, 12)}))
        ls.add_backup(3, 120.0, frozenset({(10, 11)}))
        # failure (11,12): 100 + 150 = 250; failure (10,11): 100 + 120 = 220
        assert ls.backup_reserved == 250.0

    def test_remove_backup_recomputes_max(self):
        ls = make_link(capacity=1000.0)
        ls.add_backup(1, 100.0, frozenset({(10, 11)}))
        ls.add_backup(2, 150.0, frozenset({(20, 21)}))
        assert ls.backup_reserved == 150.0
        ls.remove_backup(2)
        assert ls.backup_reserved == 100.0
        ls.remove_backup(1)
        assert ls.backup_reserved == 0.0
        assert ls.backup_demand == {}

    def test_remove_unknown_backup_rejected(self):
        with pytest.raises(ReservationError):
            make_link().remove_backup(3)

    def test_duplicate_backup_rejected(self):
        ls = make_link()
        ls.add_backup(1, 100.0, frozenset({(10, 11)}))
        with pytest.raises(ReservationError):
            ls.add_backup(1, 100.0, frozenset({(10, 11)}))

    def test_empty_primary_links_rejected(self):
        with pytest.raises(ReservationError):
            make_link().add_backup(1, 100.0, frozenset())

    def test_admission_counts_only_growth(self):
        ls = make_link(capacity=250.0)
        ls.add_primary(9, 100.0)  # headroom now 150
        ls.add_backup(1, 150.0, frozenset({(10, 11)}))
        # A second multiplexable backup needs no new reservation:
        assert ls.can_admit_backup(150.0, frozenset({(20, 21)}))
        # A conflicting one would need 300 total backup reservation:
        assert not ls.can_admit_backup(150.0, frozenset({(10, 11)}))

    def test_backup_overcommit_rejected(self):
        ls = make_link(capacity=100.0)
        ls.add_primary(9, 50.0)
        with pytest.raises(AdmissionError):
            ls.add_backup(1, 100.0, frozenset({(10, 11)}))


class TestActivation:
    def test_activate_moves_to_live(self):
        ls = make_link(capacity=500.0)
        ls.add_backup(1, 100.0, frozenset({(10, 11)}))
        assert ls.can_activate_backup(1)
        assert ls.activate_backup(1) == 100.0
        assert ls.activated_total == 100.0
        assert ls.backup_reserved == 0.0
        assert not ls.has_backup(1)

    def test_activation_blocked_by_minimums(self):
        ls = make_link(capacity=250.0)
        ls.add_primary(9, 100.0)
        ls.add_backup(1, 100.0, frozenset({(10, 11)}))
        ls.add_backup(2, 100.0, frozenset({(20, 21)}))  # multiplexed
        ls.activate_backup(1)
        # min(100) + activated(100) + 100 would exceed the capacity.
        assert not ls.can_activate_backup(2)

    def test_activation_not_blocked_by_extras(self):
        ls = make_link(capacity=300.0)
        ls.add_primary(9, 100.0)
        ls.add_backup(1, 100.0, frozenset({(10, 11)}))
        ls.grant_extra(9, 200.0)  # extras fill the link completely
        # Extras are reclaimable, so activation remains possible.
        assert ls.can_activate_backup(1)

    def test_sequential_failure_activation_can_fail(self):
        """Multiplexing guarantees one failure; a second may not fit."""
        ls = make_link(capacity=100.0)
        ls.add_backup(1, 100.0, frozenset({(10, 11)}))
        ls.add_backup(2, 100.0, frozenset({(20, 21)}))  # multiplexed onto same 100
        ls.activate_backup(1)
        assert not ls.can_activate_backup(2)
        with pytest.raises(AdmissionError):
            ls.activate_backup(2)

    def test_release_activated(self):
        ls = make_link()
        ls.add_backup(1, 100.0, frozenset({(10, 11)}))
        ls.activate_backup(1)
        assert ls.release_activated(1) == 100.0
        assert ls.activated_total == 0.0

    def test_release_unknown_activated_rejected(self):
        with pytest.raises(ReservationError):
            make_link().release_activated(4)

    def test_activate_unknown_rejected(self):
        with pytest.raises(ReservationError):
            make_link().activate_backup(4)

    def test_failed_link_cannot_activate(self):
        ls = make_link()
        ls.add_backup(1, 100.0, frozenset({(10, 11)}))
        ls.failed = True
        assert not ls.can_activate_backup(1)


class TestInvariants:
    def test_clean_state_passes(self):
        ls = make_link()
        ls.add_primary(1, 100.0)
        ls.grant_extra(1, 50.0)
        ls.add_backup(2, 100.0, frozenset({(10, 11)}))
        ls.check_invariants()

    def test_cache_corruption_detected(self):
        ls = make_link()
        ls.add_primary(1, 100.0)
        ls._min_total = 999.0
        with pytest.raises(ReservationError):
            ls.check_invariants()

    def test_demand_corruption_detected(self):
        ls = make_link()
        ls.add_backup(1, 100.0, frozenset({(10, 11)}))
        ls.backup_demand[(10, 11)] = 55.0
        with pytest.raises(ReservationError):
            ls.check_invariants()

    def test_strict_reservation_toggle(self):
        """After activations, invariant 2 may be relaxed."""
        ls = make_link(capacity=100.0)
        ls.add_backup(1, 100.0, frozenset({(10, 11)}))
        ls.add_backup(2, 100.0, frozenset({(20, 21)}))
        ls.activate_backup(1)
        # activated(100) + reserved(100) > capacity: strict check fails...
        with pytest.raises(ReservationError):
            ls.check_invariants(strict_reservation=True)
        # ...but usage is fine.
        ls.check_invariants(strict_reservation=False)
