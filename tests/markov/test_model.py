"""Unit tests for the elastic-QoS Markov model."""

import numpy as np
import pytest

from repro.errors import MarkovModelError
from repro.markov.model import ElasticQoSMarkovModel
from repro.markov.parameters import (
    MarkovParameters,
    uniform_downward_matrix,
    uniform_upward_matrix,
)
from repro.qos.spec import ElasticQoS


def qos(n_levels=5):
    # b_min 100, increment 50: b_max = 100 + (n-1)*50
    return ElasticQoS(b_min=100.0, b_max=100.0 + (n_levels - 1) * 50.0, increment=50.0)


def params(n=5, **overrides):
    base = dict(
        num_levels=n,
        pf=0.4,
        ps=0.3,
        a=uniform_downward_matrix(n),
        b=uniform_upward_matrix(n),
        t=uniform_upward_matrix(n),
        arrival_rate=0.001,
        termination_rate=0.001,
        failure_rate=0.0,
    )
    base.update(overrides)
    return MarkovParameters(**base)


class TestConstruction:
    def test_level_mismatch_rejected(self):
        with pytest.raises(MarkovModelError):
            ElasticQoSMarkovModel(qos(5), params(n=4))

    def test_generator_is_valid(self):
        model = ElasticQoSMarkovModel(qos(), params())
        q = model.generator()
        assert q.shape == (5, 5)
        assert np.allclose(q.sum(axis=1), 0.0)

    def test_paper_transition_rates(self):
        """Off-diagonal rates must match the formula under Figure 1."""
        p = params(n=3, pf=0.5, ps=0.25, arrival_rate=2.0,
                   termination_rate=3.0, failure_rate=1.0)
        model = ElasticQoSMarkovModel(qos(3), p)
        q = model.generator()
        lam, mu, gamma = 2.0, 3.0, 1.0
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                if i > j:  # downward: Pf * A_ij * (lam + gamma)
                    expected = 0.5 * p.a[i, j] * (lam + gamma)
                else:  # upward: Ps * B_ij * lam + Pf * T_ij * mu
                    expected = 0.25 * p.b[i, j] * lam + 0.5 * p.t[i, j] * mu
                assert q[i, j] == pytest.approx(expected), (i, j)


class TestSolution:
    def test_pi_is_distribution(self):
        sol = ElasticQoSMarkovModel(qos(), params()).solve()
        assert sol.pi.sum() == pytest.approx(1.0)
        assert (sol.pi >= 0).all()

    def test_average_bandwidth_within_range(self):
        sol = ElasticQoSMarkovModel(qos(), params()).solve()
        assert 100.0 <= sol.average_bandwidth <= 300.0
        assert sol.average_bandwidth == pytest.approx(
            float(sol.pi @ sol.level_bandwidths)
        )

    def test_occupancy_accessor(self):
        sol = ElasticQoSMarkovModel(qos(), params()).solve()
        assert sol.occupancy(0) == pytest.approx(float(sol.pi[0]))

    def test_methods_agree(self):
        model = ElasticQoSMarkovModel(qos(), params())
        direct = model.average_bandwidth(method="direct")
        power = model.average_bandwidth(method="power")
        assert direct == pytest.approx(power, abs=1e-6)

    def test_pure_downward_pressure_pins_to_minimum(self):
        """With no upward transitions, all mass collapses to S0."""
        n = 4
        p = params(
            n=n,
            ps=0.0,
            b=np.eye(n),
            t=np.eye(n),
            a=uniform_downward_matrix(n),
        )
        sol = ElasticQoSMarkovModel(qos(n), p).solve()
        assert sol.pi[0] == pytest.approx(1.0)
        assert sol.average_bandwidth == pytest.approx(100.0)

    def test_pure_upward_pressure_pins_to_maximum(self):
        n = 4
        p = params(n=n, a=np.eye(n))
        sol = ElasticQoSMarkovModel(qos(n), p).solve()
        assert sol.pi[-1] == pytest.approx(1.0)
        assert sol.average_bandwidth == pytest.approx(250.0)

    def test_failure_rate_increases_downward_pressure(self):
        base = ElasticQoSMarkovModel(qos(), params()).average_bandwidth()
        stressed = ElasticQoSMarkovModel(
            qos(), params(failure_rate=0.01)
        ).average_bandwidth()
        assert stressed < base

    def test_single_level_chain(self):
        p = params(n=1, a=np.eye(1), b=np.eye(1), t=np.eye(1))
        sol = ElasticQoSMarkovModel(qos(1), p).solve()
        assert sol.pi == pytest.approx([1.0])
        assert sol.average_bandwidth == 100.0


class TestTransient:
    def test_starts_at_minimum_by_default(self):
        model = ElasticQoSMarkovModel(qos(), params())
        assert model.transient_average_bandwidth(0.0) == pytest.approx(100.0)

    def test_converges_to_steady_state(self):
        model = ElasticQoSMarkovModel(qos(), params())
        steady = model.average_bandwidth()
        # rates are ~1e-3, so equilibration needs ~1e4 time units
        assert model.transient_average_bandwidth(1e6) == pytest.approx(
            steady, rel=1e-3
        )

    def test_custom_initial_distribution(self):
        model = ElasticQoSMarkovModel(qos(), params())
        pi0 = np.zeros(5)
        pi0[-1] = 1.0
        assert model.transient_average_bandwidth(0.0, pi0) == pytest.approx(300.0)


class TestDescribe:
    def test_mentions_key_quantities(self):
        text = ElasticQoSMarkovModel(qos(), params()).describe()
        assert "Pf=" in text and "average bandwidth" in text and "N=5" in text
