"""Unit tests for the units module, error hierarchy and public API."""

import pytest

import repro
from repro import errors, units


class TestUnits:
    def test_conversions(self):
        assert units.mbps(10) == 10_000.0
        assert units.kbps(50) == 50.0

    def test_paper_constants_consistent(self):
        assert units.PAPER_LINK_CAPACITY == units.mbps(10)
        assert units.PAPER_B_MIN == 100.0
        assert units.PAPER_B_MAX == 500.0
        span = units.PAPER_B_MAX - units.PAPER_B_MIN
        assert span % units.PAPER_INCREMENT_SMALL == 0
        assert span % units.PAPER_INCREMENT_LARGE == 0
        # Δ=50 -> 9 states; Δ=100 -> 5 states (paper §4)
        assert 1 + span / units.PAPER_INCREMENT_SMALL == 9
        assert 1 + span / units.PAPER_INCREMENT_LARGE == 5

    def test_failure_rates_span_paper_sweep(self):
        rates = units.PAPER_FAILURE_RATES
        assert rates[0] == 1e-7
        assert rates[-1] == 1e-2
        assert list(rates) == sorted(rates)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.TopologyError,
            errors.QoSSpecError,
            errors.RoutingError,
            errors.AdmissionError,
            errors.ReservationError,
            errors.SimulationError,
            errors.MarkovModelError,
            errors.EstimationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)
        with pytest.raises(errors.ReproError):
            raise exc("boom")

    def test_base_is_exception(self):
        assert issubclass(errors.ReproError, Exception)


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_subpackage_exports_resolve(self):
        import repro.analysis
        import repro.markov
        import repro.qos
        import repro.routing
        import repro.sim
        import repro.topology

        for module in (
            repro.analysis,
            repro.markov,
            repro.qos,
            repro.routing,
            repro.sim,
            repro.topology,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestEventImpactHelpers:
    def test_merge_change_keeps_first_before(self):
        from repro.channels.records import EventImpact, EventKind

        impact = EventImpact(kind=EventKind.ARRIVAL)
        impact.merge_change(1, before=5, after=0, direct=True)
        impact.merge_change(1, before=0, after=3, direct=True)
        assert impact.direct[1] == (5, 3)

    def test_merge_change_routes_by_directness(self):
        from repro.channels.records import EventImpact, EventKind

        impact = EventImpact(kind=EventKind.ARRIVAL)
        impact.merge_change(1, 2, 3, direct=False)
        assert impact.indirect_changed[1] == (2, 3)
        assert 1 not in impact.direct
