"""Markov modelling: generic CTMC solvers + the paper's elastic-QoS model."""

from __future__ import annotations

from repro.markov.ctmc import (
    expected_value,
    is_irreducible,
    steady_state,
    transient,
    validate_generator,
)
from repro.markov.first_passage import (
    degradation_time,
    expected_time_above,
    mean_first_passage_times,
    reward_rate,
)
from repro.markov.model import ElasticQoSMarkovModel, ModelSolution
from repro.markov.sensitivity import (
    SCALAR_PARAMETERS,
    Sensitivity,
    local_sensitivities,
    sweep_parameter,
)
from repro.markov.parameters import (
    MarkovParameters,
    uniform_downward_matrix,
    uniform_upward_matrix,
)

__all__ = [
    "expected_value",
    "is_irreducible",
    "steady_state",
    "transient",
    "validate_generator",
    "degradation_time",
    "expected_time_above",
    "mean_first_passage_times",
    "reward_rate",
    "ElasticQoSMarkovModel",
    "ModelSolution",
    "SCALAR_PARAMETERS",
    "Sensitivity",
    "local_sensitivities",
    "sweep_parameter",
    "MarkovParameters",
    "uniform_downward_matrix",
    "uniform_upward_matrix",
]
