"""Parameter container for the elastic-QoS Markov model.

Section 3.3 of the paper: the rates (λ, μ, γ) come from the application
and network providers, while the chaining probabilities (Pf, Ps) and the
conditional transition matrices (A, B, T) "are obtained through detailed
simulations".  :class:`MarkovParameters` carries all of them, validates
their stochastic structure, and records how many observations each
estimate is based on (so experiments can report confidence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import MarkovModelError

#: Validation tolerance for row-stochasticity.
_TOL: float = 1e-8


def _validate_stochastic(name: str, matrix: np.ndarray, n: int) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (n, n):
        raise MarkovModelError(f"{name} must be {n}x{n}, got {matrix.shape}")
    if (matrix < -_TOL).any():
        raise MarkovModelError(f"{name} has negative entries")
    row_sums = matrix.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-6:
        raise MarkovModelError(
            f"{name} rows must sum to one (max deviation "
            f"{np.abs(row_sums - 1.0).max():.3e})"
        )
    return matrix


@dataclass
class MarkovParameters:
    """All inputs of the elastic-QoS Markov chain.

    Attributes:
        num_levels: Number of states N (bandwidth levels).
        pf: Probability that an existing channel shares at least one
            link with the event channel ("directly chained").
        ps: Probability that an existing channel is indirectly chained.
        a: Row-stochastic N x N matrix; ``a[i, j]`` is the probability a
            directly-chained channel moves from level i to level j upon
            an *arrival* (mass concentrates at or below the diagonal).
        b: Same for *indirectly*-chained channels upon an arrival
            (mass at or above the diagonal).
        t: Same for directly-chained channels upon a *termination*
            (mass at or above the diagonal).
        f: Optional dedicated matrix for *failure* events; the paper
            reuses ``a`` for failures (rate ``Pf A (λ+γ)``), so ``None``
            means "use ``a``" and a measured matrix is an extension.
        arrival_rate: λ.
        termination_rate: μ (the paper sets μ = λ for steady state).
        failure_rate: γ — the rate at which failures perturb the tagged
            channel's network (network-wide; see DESIGN.md §5).
        observations: Optional per-matrix observation counts
            (e.g. ``{"a": 12345, "b": 678, ...}``) for reporting.
    """

    num_levels: int
    pf: float
    ps: float
    a: np.ndarray
    b: np.ndarray
    t: np.ndarray
    arrival_rate: float
    termination_rate: float
    failure_rate: float = 0.0
    f: Optional[np.ndarray] = None
    observations: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.num_levels
        if n < 1:
            raise MarkovModelError(f"need at least one level, got {n}")
        for prob, name in ((self.pf, "pf"), (self.ps, "ps")):
            if not 0.0 <= prob <= 1.0:
                raise MarkovModelError(f"{name} must be a probability, got {prob}")
        if self.pf + self.ps > 1.0 + _TOL:
            raise MarkovModelError(
                f"pf + ps must not exceed 1, got {self.pf} + {self.ps}"
            )
        for rate, name in (
            (self.arrival_rate, "arrival_rate"),
            (self.termination_rate, "termination_rate"),
            (self.failure_rate, "failure_rate"),
        ):
            if rate < 0:
                raise MarkovModelError(f"{name} must be non-negative, got {rate}")
        self.a = _validate_stochastic("A", self.a, n)
        self.b = _validate_stochastic("B", self.b, n)
        self.t = _validate_stochastic("T", self.t, n)
        if self.f is not None:
            self.f = _validate_stochastic("F", self.f, n)

    @property
    def failure_matrix(self) -> np.ndarray:
        """The matrix governing failure transitions (``a`` per the paper)."""
        return self.a if self.f is None else self.f

    def with_failure_rate(self, gamma: float) -> "MarkovParameters":
        """Copy of these parameters with a different failure rate.

        Figure 4 sweeps γ while everything else is held fixed; this
        helper keeps that sweep cheap (no re-estimation needed since the
        chaining probabilities are topology/load properties).
        """
        return MarkovParameters(
            num_levels=self.num_levels,
            pf=self.pf,
            ps=self.ps,
            a=self.a.copy(),
            b=self.b.copy(),
            t=self.t.copy(),
            arrival_rate=self.arrival_rate,
            termination_rate=self.termination_rate,
            failure_rate=gamma,
            f=None if self.f is None else self.f.copy(),
            observations=dict(self.observations),
        )


def uniform_downward_matrix(n: int) -> np.ndarray:
    """Synthetic A: from level i, drop uniformly to any level j <= i.

    Used by tests and by the quickstart example to build a model without
    running a simulation first.
    """
    a = np.zeros((n, n))
    for i in range(n):
        a[i, : i + 1] = 1.0 / (i + 1)
    return a


def uniform_upward_matrix(n: int) -> np.ndarray:
    """Synthetic B/T: from level i, rise uniformly to any level j >= i."""
    b = np.zeros((n, n))
    for i in range(n):
        b[i, i:] = 1.0 / (n - i)
    return b
