"""Micro-benchmarks of the hot core operations.

These are the operations the end-to-end simulations hammer — connection
establishment (route + reclaim + reserve + redistribute), termination,
failure handling, chain solving, and parameter estimation per event.
They serve as performance regression guards: the localized
redistribution design (DESIGN.md §5) is what keeps thousand-connection
simulations tractable, and these numbers would shout if that property
regressed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import paper_connection_qos
from repro.channels import make_manager
from repro.markov.model import ElasticQoSMarkovModel
from repro.markov.parameters import (
    MarkovParameters,
    uniform_downward_matrix,
    uniform_upward_matrix,
)
from repro.topology.waxman import paper_random_network
from repro.units import PAPER_LINK_CAPACITY


def loaded_manager(n_connections: int, seed: int = 11):
    """A manager pre-loaded with ``n_connections`` on a 60-node network."""
    rng = np.random.default_rng(seed)
    net = paper_random_network(PAPER_LINK_CAPACITY, rng, n=60, target_edges=130)
    manager = make_manager(net)
    qos = paper_connection_qos()
    nodes = np.array(net.nodes())
    pair_rng = np.random.default_rng(seed + 1)
    while manager.num_live < n_connections:
        src, dst = pair_rng.choice(nodes, size=2, replace=False)
        manager.request_connection(int(src), int(dst), qos)
    return net, manager, qos, pair_rng, nodes


@pytest.fixture
def loaded():
    # Function-scoped: the failure/termination benchmarks mutate the
    # manager heavily, so each benchmark gets a fresh population.
    return loaded_manager(600)


def test_request_connection(benchmark, loaded):
    net, manager, qos, pair_rng, nodes = loaded

    def establish_and_remove():
        src, dst = pair_rng.choice(nodes, size=2, replace=False)
        conn, _ = manager.request_connection(int(src), int(dst), qos)
        if conn is not None:
            manager.terminate_connection(conn.conn_id)

    benchmark(establish_and_remove)


def test_failure_and_repair(benchmark, loaded):
    net, manager, qos, pair_rng, nodes = loaded
    links = net.link_ids()
    state = {"i": 0}

    def fail_and_repair():
        lid = links[state["i"] % len(links)]
        state["i"] += 1
        manager.fail_link(lid)
        manager.repair_link(lid)

    benchmark(fail_and_repair)


def test_average_bandwidth_query(benchmark, loaded):
    _net, manager, *_ = loaded
    result = benchmark(manager.average_live_bandwidth)
    assert 100.0 <= result <= 500.0 + 1e-6


def test_chain_solve(benchmark):
    from repro.qos.spec import ElasticQoS

    qos = ElasticQoS(b_min=100.0, b_max=500.0, increment=50.0)
    params = MarkovParameters(
        num_levels=9,
        pf=0.2,
        ps=0.4,
        a=uniform_downward_matrix(9),
        b=uniform_upward_matrix(9),
        t=uniform_upward_matrix(9),
        arrival_rate=0.001,
        termination_rate=0.001,
    )
    model = ElasticQoSMarkovModel(qos, params)
    bw = benchmark(model.average_bandwidth)
    assert 100.0 <= bw <= 500.0
