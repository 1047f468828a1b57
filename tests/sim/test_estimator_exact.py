"""Exact end-to-end estimator verification on a hand-computed scenario.

Drives the real manager through a deterministic event sequence on a
dumbbell topology where every level transition can be worked out by
hand, then checks the estimator's matrices entry by entry.  This is the
strongest guard against sign/orientation errors in the A/B/T pipeline.
"""

import numpy as np
import pytest

from repro.channels import make_manager
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.reference import ReferenceManager
from repro.sim.estimation import TransitionEstimator
from repro.topology.regular import dumbbell_network


def contract():
    # 5 levels: 100, 150, 200, 250, 300.
    return ConnectionQoS(
        performance=ElasticQoS(b_min=100.0, b_max=300.0, increment=50.0),
        dependability=DependabilityQoS(num_backups=0),
    )


@pytest.fixture
def setting():
    """Dumbbell with a 500 Kb/s bottleneck; leaves 1-3 left, 5-7 right."""
    net = dumbbell_network(3, 1000.0, bottleneck_capacity=500.0)
    manager = make_manager(net)
    estimator = TransitionEstimator(
        num_levels=5, arrival_rate=1.0, termination_rate=1.0, sample_interval=1
    )
    return net, manager, estimator


class TestHandComputedScenario:
    def test_arrival_and_termination_matrices(self, setting):
        net, manager, estimator = setting
        # Connection A crosses the bottleneck: pool 400 -> A rises to max (level 4).
        conn_a, _ = manager.request_connection(1, 5, contract())
        assert conn_a.level == 4

        # Connection B also crosses: A is directly chained, drops to 0,
        # then the 300-pool is split 3/3 (levels 3 and 3).
        pre_live = manager.num_live
        conn_b, impact_b = manager.request_connection(2, 6, contract())
        assert impact_b.direct == {conn_a.conn_id: (4, 3)}
        estimator.observe(impact_b, manager, pre_event_live=pre_live)

        # A: exactly one observation, 4 -> 3.
        assert estimator.a_counts.sum() == 1
        assert estimator.a_counts[4, 3] == 1
        # Pf sample: 1 direct channel / 1 pre-existing = 1.0.
        assert estimator.pf == pytest.approx(1.0)
        # Sampled arrival with no third channel: Ps = 0.
        assert estimator.ps == 0.0

        # Terminate B: A is directly chained and rises 3 -> 4.
        pre_live = manager.num_live
        impact_t = manager.terminate_connection(conn_b.conn_id)
        assert impact_t.direct == {conn_a.conn_id: (3, 4)}
        estimator.observe(impact_t, manager, pre_event_live=pre_live)
        assert estimator.t_counts.sum() == 1
        assert estimator.t_counts[3, 4] == 1

        params = estimator.estimate()
        assert params.a[4, 3] == 1.0
        assert params.t[3, 4] == 1.0
        # Unobserved rows became uniform (irreducibility prior).
        assert np.allclose(params.a[0], 0.2)

    def test_indirect_chaining_recorded_in_b(self, setting):
        net, manager, estimator = setting
        # A: leaf1 -> hub0 (left star only, links {(0,1)}).
        conn_a, _ = manager.request_connection(1, 0, contract())
        assert conn_a.level == 4  # 900 spare on its single link
        # C: crosses bottleneck via leaf1? No: use leaf3 -> leaf7 so C
        # shares no link with A yet; then B: leaf1 -> leaf5 shares (0,1)
        # with A and the bottleneck with C.
        conn_c, _ = manager.request_connection(3, 7, contract())
        assert conn_c.level == 4  # bottleneck pool 400
        pre_live = manager.num_live
        conn_b, impact_b = manager.request_connection(1, 5, impact_contract := contract())
        # B's path: 1-0-4-5. Direct: A (shares (0,1)) and C (shares (0,4)).
        assert set(impact_b.direct) == {conn_a.conn_id, conn_c.conn_id}
        estimator.observe(impact_b, manager, pre_event_live=pre_live)
        # No third channel exists outside the direct set: Ps sample = 0,
        # and B-matrix observations only come from indirect channels.
        assert estimator.b_counts.sum() == 0

        # Now terminate B and re-admit it while a bystander D exists that
        # overlaps A only (D: leaf2 -> hub0 shares link (0,2)? no - D must
        # share a link with a direct channel but not with B).
        manager.terminate_connection(conn_b.conn_id)
        conn_d, _ = manager.request_connection(2, 0, contract())  # link (0,2)
        # D shares node 0 but no link with B's path (1-0-4-5)? B uses
        # links (0,1),(0,4),(4,5); D uses (0,2): disjoint -> D indirect
        # via A? A uses (0,1) and D uses (0,2): they do NOT overlap.
        # Build the overlap through C instead: E crosses the bottleneck
        # from leaf3 side: E: 3 -> 0 uses (0,3): still no overlap with C.
        # Instead make D share a link with C: D2: leaf7 -> hub4 ((4,7)).
        conn_d2, _ = manager.request_connection(7, 4, contract())
        pre_live = manager.num_live
        conn_b2, impact_b2 = manager.request_connection(1, 5, contract())
        # Direct with B2: A ((0,1)), C ((0,4) bottleneck? C's path is
        # 3-0-4-7: shares (0,4)), D2 shares (4,5)? D2 uses (4,7) only ->
        # not direct. D ((0,2)) not direct.
        assert conn_a.conn_id in impact_b2.direct
        assert conn_c.conn_id in impact_b2.direct
        assert conn_d2.conn_id not in impact_b2.direct
        estimator2 = TransitionEstimator(
            num_levels=5, arrival_rate=1.0, termination_rate=1.0, sample_interval=1
        )
        estimator2.observe(impact_b2, manager, pre_event_live=pre_live)
        # D2 shares (4,7) with C (direct channel) -> indirectly chained.
        # D ((0,2)) shares a link with A? A uses (0,1) only -> D is NOT
        # indirect; it overlaps nobody.
        assert estimator2.ps == pytest.approx(1 / 4)
        assert estimator2.b_counts.sum() == 1

    def test_failure_counts_into_f(self, setting):
        net, manager, estimator = setting
        conn_a, _ = manager.request_connection(1, 5, contract())
        pre_live = manager.num_live
        impact = manager.fail_link((0, 4))  # bottleneck: kills A (no backup)
        estimator.observe(impact, manager, pre_event_live=pre_live)
        assert estimator.f_counts[4, 0] == 1
        params = estimator.estimate(use_failure_matrix=True)
        assert params.f is not None
        assert params.f[4, 0] == 1.0


# ----------------------------------------------------------------------
# Both cores, link failures on: counts pinned, walk checked on handles
# ----------------------------------------------------------------------
import random

from repro.channels.records import EventKind
from repro.topology.regular import grid_network

#: Recorded at the parent of the change that moved the estimator's walk
#: onto manager handles (seed 11, 600 events, both cores agreed there).
PINNED = {
    "a": [
        [267.0, 3.0, 0.0, 0.0, 0.0],
        [67.0, 440.0, 7.0, 0.0, 0.0],
        [1.0, 123.0, 105.0, 1.0, 0.0],
        [1.0, 12.0, 61.0, 46.0, 2.0],
        [0.0, 6.0, 37.0, 54.0, 226.0],
    ],
    "b": [
        [185.0, 3.0, 0.0, 0.0, 0.0],
        [0.0, 367.0, 2.0, 0.0, 1.0],
        [0.0, 0.0, 137.0, 4.0, 0.0],
        [0.0, 0.0, 0.0, 61.0, 5.0],
        [0.0, 0.0, 0.0, 0.0, 192.0],
    ],
    "t": [
        [131.0, 46.0, 3.0, 0.0, 0.0],
        [0.0, 215.0, 66.0, 14.0, 3.0],
        [0.0, 0.0, 54.0, 23.0, 15.0],
        [0.0, 0.0, 0.0, 20.0, 19.0],
        [0.0, 0.0, 0.0, 0.0, 99.0],
    ],
    "f": [
        [94.0, 17.0, 6.0, 0.0, 0.0],
        [55.0, 80.0, 26.0, 2.0, 1.0],
        [26.0, 20.0, 20.0, 7.0, 7.0],
        [12.0, 6.0, 14.0, 12.0, 5.0],
        [31.0, 3.0, 2.0, 10.0, 74.0],
    ],
    "pf": 0.1843268059135826,
    "ps": 0.22650747175517816,
}


def protected_contract():
    return ConnectionQoS(
        performance=ElasticQoS(b_min=100.0, b_max=300.0, increment=50.0),
        dependability=DependabilityQoS(),
    )


def reference_sharing(manager: ReferenceManager, conn_ids):
    """The walk the estimator used to do, over the reference's own dicts."""
    sharing = set()
    for cid in conn_ids:
        conn = manager.connections.get(cid)
        if conn is None:
            continue  # dropped during the event
        for lid in conn.primary_links:
            sharing.update(manager.channels_on_link.get(lid, ()))
    return sharing


def drive(factory, seed: int = 11, events: int = 600):
    """Seeded churn with link failures; every impact goes to the estimator.

    Returns the estimator and, per failure event, what
    ``ids_sharing_links`` answered for the event's direct channels —
    some of which the failure dropped or moved onto their backups.
    """
    net = grid_network(4, 4, capacity=1000.0)
    manager = factory(net)
    estimator = TransitionEstimator(
        num_levels=5, arrival_rate=1.0, termination_rate=1.0, failure_rate=0.1,
        sample_interval=2,
    )
    rng = random.Random(seed)
    nodes = net.nodes()
    live: list = []
    walks = []
    for _ in range(events):
        pre_live = manager.num_live
        roll = rng.random()
        if roll < 0.5 or not live:
            s, d = rng.sample(nodes, 2)
            conn, impact = manager.request_connection(s, d, protected_contract())
            if conn is not None:
                live.append(conn.conn_id)
        elif roll < 0.8:
            cid = live.pop(rng.randrange(len(live)))
            if not manager.is_live(cid):
                continue  # dropped by an earlier failure
            impact = manager.terminate_connection(cid)
        elif roll < 0.9:
            alive = manager.state.alive_link_list()
            if len(alive) <= net.num_links - 3:
                continue
            impact = manager.fail_link(alive[rng.randrange(len(alive))])
        else:
            failed = manager.state.failed_link_list()
            if not failed:
                continue
            impact = manager.repair_link(failed[rng.randrange(len(failed))])
        estimator.observe(impact, manager, pre_live)
        if impact.kind is EventKind.FAILURE:
            sharing = manager.ids_sharing_links(impact.direct)
            if isinstance(manager, ReferenceManager):
                # The array core is held to the reference's answers by
                # ``test_walk_over_dropped_and_failed_over``.
                assert sharing == reference_sharing(manager, impact.direct)
            walks.append((sorted(impact.dropped), sorted(impact.activated), sorted(sharing)))
    return estimator, walks


class TestBothCoresWithFailures:
    def test_counts_equal_across_cores_and_pinned(self):
        obj, _ = drive(ReferenceManager)
        arr, _ = drive(make_manager)
        for est in (obj, arr):
            assert est.a_counts.tolist() == PINNED["a"]
            assert est.b_counts.tolist() == PINNED["b"]
            assert est.t_counts.tolist() == PINNED["t"]
            assert est.f_counts.tolist() == PINNED["f"]
            assert est.pf == PINNED["pf"]
            assert est.ps == PINNED["ps"]

    def test_walk_over_dropped_and_failed_over(self):
        _, walks_obj = drive(ReferenceManager)
        _, walks_arr = drive(make_manager)
        assert walks_obj == walks_arr
        # The scenario really contains both hazards: direct channels
        # that are gone after the event, and ones now on their backup
        # (live, but no longer in the per-link primary index).
        assert any(dropped for dropped, _, _ in walks_obj)
        assert any(activated and sharing for _, activated, sharing in walks_obj)
