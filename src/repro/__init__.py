"""repro — reproduction of Kim & Shin, "Performance Evaluation of
Dependable Real-Time Communication with Elastic QoS" (DSN 2001).

The library provides, from the bottom up:

* :mod:`repro.topology` — Waxman and transit-stub topology generators
  (GT-ITM substitution) plus structural metrics;
* :mod:`repro.qos` — traffic specs and the min-max elastic QoS model;
* :mod:`repro.network` — per-link reservation accounting with backup
  multiplexing (overbooking against single link failures);
* :mod:`repro.routing` — admission-aware shortest-path, k-shortest,
  link-disjoint backup routing, and bounded flooding;
* :mod:`repro.elastic` — adaptation policies and localized
  water-filling redistribution of spare bandwidth;
* :mod:`repro.channels` — the network manager orchestrating
  DR-connection establishment, teardown and failure recovery;
* :mod:`repro.sim` — a deterministic discrete-event simulator with
  transition-probability estimation;
* :mod:`repro.markov` — generic CTMC solvers (SHARPE substitution) and
  the paper's N-state elastic-QoS Markov model;
* :mod:`repro.baselines` — single-value QoS and no-backup baselines;
* :mod:`repro.analysis` — runners regenerating every table and figure.

Quickstart::

    import numpy as np
    from repro import (
        ElasticQoSMarkovModel, ElasticQoSSimulator, SimulationConfig,
        paper_connection_qos, paper_random_network,
    )

    rng = np.random.default_rng(1)
    net = paper_random_network(capacity=10_000.0, rng=rng, n=100, target_edges=354)
    config = SimulationConfig(qos=paper_connection_qos(), offered_connections=1500)
    result = ElasticQoSSimulator(net, config, seed=1).run()
    model = ElasticQoSMarkovModel(config.qos.performance, result.params)
    print(result.average_bandwidth, model.average_bandwidth())
"""

from __future__ import annotations

from repro.analysis import (
    RunSettings,
    ideal_average_bandwidth,
    paper_connection_qos,
    run_figure2,
    run_figure3,
    run_figure4,
    run_table1,
)
from repro.baselines import no_backup_contract, single_value_contract
from repro.channels import ConnectionState, DRConnection, make_manager
from repro.elastic import AdaptationPolicy, EqualShare, MaxUtility, UtilityProportional
from repro.errors import ReproError
from repro.markov import ElasticQoSMarkovModel, MarkovParameters, steady_state
from repro.qos import ConnectionQoS, DependabilityQoS, ElasticQoS, TrafficSpec
from repro.sim import (
    ElasticQoSSimulator,
    EventScheduler,
    SimulationConfig,
    SimulationResult,
    WorkloadConfig,
)
from repro.topology import (
    Network,
    TransitStubParams,
    WaxmanParams,
    paper_random_network,
    transit_stub_network,
    waxman_network,
)

__version__ = "1.0.0"

__all__ = [
    "RunSettings",
    "ideal_average_bandwidth",
    "paper_connection_qos",
    "run_figure2",
    "run_figure3",
    "run_figure4",
    "run_table1",
    "no_backup_contract",
    "single_value_contract",
    "ConnectionState",
    "DRConnection",
    "make_manager",
    "AdaptationPolicy",
    "EqualShare",
    "MaxUtility",
    "UtilityProportional",
    "ReproError",
    "ElasticQoSMarkovModel",
    "MarkovParameters",
    "steady_state",
    "ConnectionQoS",
    "DependabilityQoS",
    "ElasticQoS",
    "TrafficSpec",
    "ElasticQoSSimulator",
    "EventScheduler",
    "SimulationConfig",
    "SimulationResult",
    "WorkloadConfig",
    "Network",
    "TransitStubParams",
    "WaxmanParams",
    "paper_random_network",
    "transit_stub_network",
    "waxman_network",
    "__version__",
]
