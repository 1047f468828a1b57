"""Property-based tests (hypothesis) for the library's core invariants.

These encode DESIGN.md §6: capacity invariants under arbitrary event
sequences, water-filling maximality, multiplexing safety, CTMC solver
agreement, and quantisation round-trips.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.channels.records import ConnectionState
from repro.markov.ctmc import steady_state
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.reference import ReferenceManager, is_maximal
from repro.sim.engine import EventScheduler
from repro.topology.regular import complete_network
from repro.units import EPSILON

#: Shared hypothesis settings: the manager-driven properties run whole
#: event sequences per example, so keep example counts moderate.
SEQ_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# ElasticQoS quantisation
# ----------------------------------------------------------------------
@given(
    b_min=st.floats(min_value=1.0, max_value=1e4),
    steps=st.integers(min_value=0, max_value=64),
    increment=st.floats(min_value=0.5, max_value=1e3),
)
def test_level_roundtrip(b_min, steps, increment):
    qos = ElasticQoS(
        b_min=b_min, b_max=b_min + steps * increment, increment=increment
    )
    assert qos.num_levels == steps + 1
    for level in range(qos.num_levels):
        bw = qos.level_bandwidth(level)
        assert qos.level_of(bw) == level
        assert b_min - 1e-9 <= bw <= qos.b_max + 1e-9


# ----------------------------------------------------------------------
# CTMC solvers
# ----------------------------------------------------------------------
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_ctmc_solvers_agree_on_random_irreducible_chains(n, seed):
    rng = np.random.default_rng(seed)
    q = rng.random((n, n)) + 0.01  # strictly positive off-diagonals
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    pis = [steady_state(q, method=m) for m in ("direct", "lstsq", "power")]
    for pi in pis:
        assert pi.sum() == pytest.approx(1.0)
        assert (pi >= -1e-12).all()
        assert np.abs(pi @ q).max() < 1e-8
    assert np.allclose(pis[0], pis[1], atol=1e-8)
    assert np.allclose(pis[0], pis[2], atol=1e-8)


# ----------------------------------------------------------------------
# Event engine ordering
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_engine_fires_in_nondecreasing_time_order(times):
    sched = EventScheduler()
    fired = []
    for t in times:
        sched.schedule_at(t, lambda t=t: fired.append(t))
    sched.run()
    assert fired == sorted(times)
    assert len(fired) == len(times)


# ----------------------------------------------------------------------
# Manager event sequences
# ----------------------------------------------------------------------
def _contract(elastic: bool, backups: int) -> ConnectionQoS:
    if elastic:
        perf = ElasticQoS(b_min=100.0, b_max=500.0, increment=50.0)
    else:
        perf = ElasticQoS(b_min=100.0, b_max=100.0, increment=100.0)
    return ConnectionQoS(
        performance=perf, dependability=DependabilityQoS(num_backups=backups)
    )


op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["arrive", "terminate", "fail", "repair"]),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),  # elastic?
        st.booleans(),  # with backup?
    ),
    min_size=1,
    max_size=40,
)


def _apply_ops(manager: ReferenceManager, net, ops):
    """Drive the manager through an arbitrary op sequence."""
    nodes = net.nodes()
    links = net.link_ids()
    for op, choice, elastic, backup in ops:
        if op == "arrive":
            src = nodes[choice % len(nodes)]
            dst = nodes[(choice // 7 + 1 + src) % len(nodes)]
            if src == dst:
                dst = nodes[(dst + 1) % len(nodes)]
            manager.request_connection(src, dst, _contract(elastic, int(backup)))
        elif op == "terminate":
            live = manager.live_connection_ids()
            if live:
                manager.terminate_connection(live[choice % len(live)])
        elif op == "fail":
            alive = [l for l in links if not manager.state.is_failed(l)]
            if len(alive) > len(links) - 2:  # keep at most 2 links down
                manager.fail_link(alive[choice % len(alive)])
        elif op == "repair":
            failed = sorted(manager.state.failed_links)
            if failed:
                manager.repair_link(failed[choice % len(failed)])


@given(ops=op_strategy)
@SEQ_SETTINGS
def test_invariants_hold_under_arbitrary_event_sequences(ops):
    net = complete_network(6, 1000.0)
    manager = ReferenceManager(net)
    _apply_ops(manager, net, ops)
    manager.check_invariants()
    # Usage never exceeds capacity on any link, failures or not.
    for ls in manager.state.links():
        assert ls.used <= ls.capacity + EPSILON


@given(ops=op_strategy)
@SEQ_SETTINGS
def test_levels_stay_quantised_and_in_range(ops):
    net = complete_network(6, 1000.0)
    manager = ReferenceManager(net)
    _apply_ops(manager, net, ops)
    for conn in manager.connections.values():
        qos = conn.qos.performance
        assert 0 <= conn.level <= qos.max_level
        bw = conn.bandwidth
        assert qos.b_min - 1e-9 <= bw <= qos.b_max + 1e-9
        # quantised: offset is an integral multiple of the increment
        steps = (bw - qos.b_min) / qos.increment
        assert abs(steps - round(steps)) < 1e-9


@given(ops=op_strategy)
@SEQ_SETTINGS
def test_allocation_is_maximal_after_every_sequence(ops):
    net = complete_network(6, 1000.0)
    manager = ReferenceManager(net)
    _apply_ops(manager, net, ops)
    participants = {
        cid: conn
        for cid, conn in manager.connections.items()
        if conn.is_elastic_participant
    }
    assert is_maximal(manager.state, manager.connections, participants.keys())


@given(ops=op_strategy)
@SEQ_SETTINGS
def test_backup_multiplexing_safety(ops):
    """For every link and every single failure, the backups that failure
    would activate fit inside the link's backup reservation."""
    net = complete_network(6, 1000.0)
    manager = ReferenceManager(net)
    # Exclude failures: the multiplexing guarantee is a pre-failure one.
    ops = [op for op in ops if op[0] not in ("fail", "repair")]
    if not ops:
        return
    _apply_ops(manager, net, ops)
    for ls in manager.state.links():
        for f, demand in ls.backup_demand.items():
            assert demand <= ls.backup_reserved + EPSILON
        # and the reservation is honourable:
        assert (
            ls.primary_min_total + ls.backup_reserved + ls.activated_total
            <= ls.capacity + EPSILON
        )


@given(ops=op_strategy)
@SEQ_SETTINGS
def test_backup_disjointness_on_rich_topology(ops):
    """On a complete graph a link-disjoint backup always exists, so every
    admitted connection's backup must be fully disjoint."""
    net = complete_network(6, 1000.0)
    manager = ReferenceManager(net)
    _apply_ops(manager, net, ops)
    for conn in manager.connections.values():
        if conn.state is ConnectionState.ACTIVE and conn.backup_links:
            assert conn.backup_overlap == 0
            assert not set(conn.primary_links) & set(conn.backup_links)
