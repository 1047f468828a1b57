"""Unit tests for Markov model parameter containers."""

import numpy as np
import pytest

from repro.errors import MarkovModelError
from repro.markov.parameters import (
    MarkovParameters,
    uniform_downward_matrix,
    uniform_upward_matrix,
)


def make_params(n=3, **overrides):
    base = dict(
        num_levels=n,
        pf=0.3,
        ps=0.2,
        a=uniform_downward_matrix(n),
        b=uniform_upward_matrix(n),
        t=uniform_upward_matrix(n),
        arrival_rate=0.001,
        termination_rate=0.001,
        failure_rate=0.0,
    )
    base.update(overrides)
    return MarkovParameters(**base)


class TestSyntheticMatrices:
    def test_downward_structure(self):
        a = uniform_downward_matrix(4)
        assert np.allclose(a.sum(axis=1), 1.0)
        assert np.allclose(np.triu(a, k=1), 0.0)
        assert a[2, 0] == pytest.approx(1.0 / 3.0)

    def test_upward_structure(self):
        b = uniform_upward_matrix(4)
        assert np.allclose(b.sum(axis=1), 1.0)
        assert np.allclose(np.tril(b, k=-1), 0.0)
        assert b[3, 3] == 1.0


class TestValidation:
    def test_valid(self):
        make_params()

    def test_bad_probabilities(self):
        with pytest.raises(MarkovModelError):
            make_params(pf=1.2)
        with pytest.raises(MarkovModelError):
            make_params(ps=-0.1)
        with pytest.raises(MarkovModelError):
            make_params(pf=0.7, ps=0.6)

    def test_bad_rates(self):
        with pytest.raises(MarkovModelError):
            make_params(arrival_rate=-1.0)
        with pytest.raises(MarkovModelError):
            make_params(failure_rate=-0.5)

    def test_non_stochastic_matrix_rejected(self):
        bad = np.full((3, 3), 0.5)
        with pytest.raises(MarkovModelError):
            make_params(a=bad)

    def test_negative_entries_rejected(self):
        bad = uniform_downward_matrix(3)
        bad[0, 0] = -0.5
        bad[0, 1] = 1.5
        with pytest.raises(MarkovModelError):
            make_params(a=bad)

    def test_wrong_shape_rejected(self):
        with pytest.raises(MarkovModelError):
            make_params(a=uniform_downward_matrix(4))

    def test_zero_levels_rejected(self):
        with pytest.raises(MarkovModelError):
            make_params(n=0)

    def test_optional_f_validated(self):
        make_params(f=np.eye(3))
        with pytest.raises(MarkovModelError):
            make_params(f=np.zeros((3, 3)))


class TestHelpers:
    def test_failure_matrix_defaults_to_a(self):
        params = make_params()
        assert params.failure_matrix is params.a
        with_f = make_params(f=np.eye(3))
        assert np.array_equal(with_f.failure_matrix, np.eye(3))

    def test_with_failure_rate_copies(self):
        params = make_params()
        swept = params.with_failure_rate(0.01)
        assert swept.failure_rate == 0.01
        assert params.failure_rate == 0.0
        assert np.array_equal(swept.a, params.a)
        swept.a[0, 0] = 99.0  # mutating the copy must not touch the original
        assert params.a[0, 0] != 99.0

    def test_observations_dict_copied(self):
        params = make_params()
        params.observations["a"] = 5
        swept = params.with_failure_rate(0.1)
        swept.observations["a"] = 7
        assert params.observations["a"] == 5
