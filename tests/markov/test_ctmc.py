"""Unit tests for the generic CTMC machinery (SHARPE substitution)."""

import numpy as np
import pytest

from repro.errors import MarkovModelError
from repro.markov.ctmc import (
    expected_value,
    is_irreducible,
    steady_state,
    transient,
    validate_generator,
)


def birth_death_generator(n, lam, mu):
    """Birth-death chain: analytic stationary pi_i ~ (lam/mu)^i."""
    q = np.zeros((n, n))
    for i in range(n):
        if i + 1 < n:
            q[i, i + 1] = lam
        if i > 0:
            q[i, i - 1] = mu
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def birth_death_pi(n, lam, mu):
    rho = lam / mu
    weights = np.array([rho**i for i in range(n)])
    return weights / weights.sum()


class TestValidation:
    def test_valid_generator(self):
        validate_generator(birth_death_generator(4, 1.0, 2.0))

    def test_non_square_rejected(self):
        with pytest.raises(MarkovModelError):
            validate_generator(np.zeros((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(MarkovModelError):
            validate_generator(np.zeros((0, 0)))

    def test_negative_offdiagonal_rejected(self):
        q = np.array([[-1.0, 1.0], [-0.5, 0.5]])
        with pytest.raises(MarkovModelError):
            validate_generator(q)

    def test_nonzero_rowsum_rejected(self):
        q = np.array([[-1.0, 2.0], [1.0, -1.0]])
        with pytest.raises(MarkovModelError):
            validate_generator(q)

    def test_positive_diagonal_rejected(self):
        q = np.array([[1.0, -1.0], [1.0, -1.0]])
        with pytest.raises(MarkovModelError):
            validate_generator(q)


class TestSteadyState:
    @pytest.mark.parametrize("method", ["direct", "lstsq", "power"])
    def test_birth_death_analytic(self, method):
        q = birth_death_generator(6, 1.0, 2.0)
        pi = steady_state(q, method=method)
        assert np.allclose(pi, birth_death_pi(6, 1.0, 2.0), atol=1e-8)

    @pytest.mark.parametrize("method", ["direct", "lstsq", "power"])
    def test_two_state_flip_flop(self, method):
        q = np.array([[-3.0, 3.0], [1.0, -1.0]])
        pi = steady_state(q, method=method)
        assert np.allclose(pi, [0.25, 0.75])

    def test_methods_agree_on_random_chain(self, rng):
        n = 7
        q = rng.random((n, n))
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        results = [steady_state(q, method=m) for m in ("direct", "lstsq", "power")]
        assert np.allclose(results[0], results[1], atol=1e-8)
        assert np.allclose(results[0], results[2], atol=1e-8)

    def test_single_state(self):
        assert steady_state(np.array([[0.0]])) == pytest.approx([1.0])

    def test_absorbing_state_gets_all_mass(self):
        # 0 -> 1 -> 2 (absorbing): pi = (0, 0, 1)
        q = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]])
        pi = steady_state(q)
        assert np.allclose(pi, [0.0, 0.0, 1.0], atol=1e-9)

    def test_unknown_method_rejected(self):
        with pytest.raises(MarkovModelError):
            steady_state(birth_death_generator(3, 1.0, 1.0), method="magic")

    def test_reducible_two_class_chain_rejected(self):
        # Two disconnected flip-flops: no unique stationary distribution.
        q = np.zeros((4, 4))
        q[0, 1] = q[1, 0] = 1.0
        q[2, 3] = q[3, 2] = 1.0
        np.fill_diagonal(q, -q.sum(axis=1))
        with pytest.raises(MarkovModelError):
            steady_state(q, method="direct")


class TestIrreducibility:
    def test_birth_death_irreducible(self):
        assert is_irreducible(birth_death_generator(5, 1.0, 1.0))

    def test_disconnected_not_irreducible(self):
        q = np.zeros((4, 4))
        q[0, 1] = q[1, 0] = 1.0
        q[2, 3] = q[3, 2] = 1.0
        np.fill_diagonal(q, -q.sum(axis=1))
        assert not is_irreducible(q)

    def test_single_state_irreducible(self):
        assert is_irreducible(np.array([[0.0]]))


class TestTransient:
    def test_t_zero_is_initial(self):
        q = birth_death_generator(4, 1.0, 2.0)
        pi0 = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(transient(q, pi0, 0.0), pi0)

    def test_long_horizon_reaches_steady_state(self):
        q = birth_death_generator(4, 1.0, 2.0)
        pi0 = np.array([1.0, 0.0, 0.0, 0.0])
        pi_inf = steady_state(q)
        assert np.allclose(transient(q, pi0, 200.0), pi_inf, atol=1e-6)

    def test_matches_expm(self):
        from scipy.linalg import expm

        q = birth_death_generator(5, 1.3, 0.7)
        pi0 = np.array([0.2, 0.2, 0.2, 0.2, 0.2])
        for t in (0.1, 1.0, 5.0):
            expected = pi0 @ expm(q * t)
            assert np.allclose(transient(q, pi0, t), expected, atol=1e-9)

    def test_distribution_stays_normalised(self):
        q = birth_death_generator(4, 2.0, 1.0)
        pi0 = np.array([0.0, 0.0, 0.0, 1.0])
        pi_t = transient(q, pi0, 3.0)
        assert pi_t.sum() == pytest.approx(1.0)
        assert (pi_t >= 0).all()

    def test_invalid_inputs(self):
        q = birth_death_generator(3, 1.0, 1.0)
        with pytest.raises(MarkovModelError):
            transient(q, np.array([1.0, 0.0]), 1.0)  # wrong shape
        with pytest.raises(MarkovModelError):
            transient(q, np.array([0.5, 0.2, 0.2]), 1.0)  # not normalised
        with pytest.raises(MarkovModelError):
            transient(q, np.array([1.0, 0.0, 0.0]), -1.0)  # negative time

    def test_zero_generator_is_static(self):
        q = np.zeros((3, 3))
        pi0 = np.array([0.3, 0.3, 0.4])
        assert np.allclose(transient(q, pi0, 10.0), pi0)


class TestDerivedQuantities:
    def test_expected_value(self):
        pi = np.array([0.25, 0.75])
        values = np.array([100.0, 200.0])
        assert expected_value(pi, values) == 175.0

    def test_expected_value_shape_mismatch(self):
        with pytest.raises(MarkovModelError):
            expected_value(np.array([1.0]), np.array([1.0, 2.0]))
