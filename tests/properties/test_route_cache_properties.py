"""Cached routing must be observationally identical to uncached routing.

The route cache (repro.routing.cache) promises that enabling it never
changes a single route, acceptance decision, or bandwidth number — it
only changes how fast the answers arrive.  These properties drive the
production manager (cached) and the reference (which searches every
route afresh) through the same randomized workload of arrivals,
terminations, link failures and repairs on random Waxman topologies,
and require the observable state to stay bitwise identical throughout.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels import make_manager
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.reference import ReferenceManager
from repro.topology.waxman import WaxmanParams, waxman_network

PROPERTY_SETTINGS = settings(max_examples=12, deadline=None)

QOS = ConnectionQoS(
    performance=ElasticQoS(b_min=100.0, b_max=500.0, increment=50.0),
    dependability=DependabilityQoS(),
)
QOS_UNPROTECTED = ConnectionQoS(
    performance=ElasticQoS(b_min=100.0, b_max=500.0, increment=50.0),
    dependability=DependabilityQoS(num_backups=0),
)


def twin_managers(seed: int, n: int = 12):
    rng = np.random.default_rng(seed)
    net = waxman_network(n, WaxmanParams(alpha=0.5, beta=0.4), 2000.0, rng)
    return net, make_manager(net), ReferenceManager(net)


def assert_twins_agree(cached, plain: ReferenceManager) -> None:
    assert sorted(cached.connections) == sorted(plain.connections)
    for cid, conn in cached.connections.items():
        other = plain.connections[cid]
        assert conn.primary_path == other.primary_path
        assert conn.backup_path == other.backup_path
        assert conn.level == other.level
        assert conn.state == other.state
    assert cached.average_live_bandwidth() == plain.average_live_bandwidth()


@given(seed=st.integers(min_value=0, max_value=10_000))
@PROPERTY_SETTINGS
def test_cached_equals_uncached_under_load(seed):
    """Arrivals and terminations: identical accepts, routes and levels."""
    net, cached, plain = twin_managers(seed)
    rng = np.random.default_rng(seed + 1)
    nodes = np.array(net.nodes())
    live: list[int] = []
    for step in range(60):
        if live and rng.random() < 0.3:
            cid = live.pop(int(rng.integers(len(live))))
            cached.terminate_connection(cid)
            plain.terminate_connection(cid)
        else:
            src, dst = rng.choice(nodes, size=2, replace=False)
            qos = QOS if rng.random() < 0.7 else QOS_UNPROTECTED
            conn_a, _ = cached.request_connection(int(src), int(dst), qos)
            conn_b, _ = plain.request_connection(int(src), int(dst), qos)
            assert (conn_a is None) == (conn_b is None)
            if conn_a is not None:
                assert conn_a.conn_id == conn_b.conn_id
                live.append(conn_a.conn_id)
    assert_twins_agree(cached, plain)
    cached.check_invariants()


@given(seed=st.integers(min_value=0, max_value=10_000))
@PROPERTY_SETTINGS
def test_cached_equals_uncached_through_failures(seed):
    """Fail/repair sequences: invalidation must never leak stale routes."""
    net, cached, plain = twin_managers(seed)
    rng = np.random.default_rng(seed + 2)
    nodes = np.array(net.nodes())
    links = net.link_ids()
    failed: list = []
    for step in range(50):
        roll = rng.random()
        if roll < 0.2 and failed:
            lid = failed.pop(int(rng.integers(len(failed))))
            cached.repair_link(lid)
            plain.repair_link(lid)
        elif roll < 0.4:
            lid = links[int(rng.integers(len(links)))]
            if not cached.state.is_failed(lid):
                failed.append(lid)
                cached.fail_link(lid)
                plain.fail_link(lid)
        else:
            src, dst = rng.choice(nodes, size=2, replace=False)
            conn_a, _ = cached.request_connection(int(src), int(dst), QOS)
            conn_b, _ = plain.request_connection(int(src), int(dst), QOS)
            assert (conn_a is None) == (conn_b is None)
            if conn_a is not None:
                assert conn_a.primary_path == conn_b.primary_path
                assert conn_a.backup_path == conn_b.backup_path
    assert_twins_agree(cached, plain)
    assert cached.state.failed_links == plain.state.failed_links


# ----------------------------------------------------------------------
# Array core: entries that outlive failures (ArrayRouteCache)
# ----------------------------------------------------------------------
#
# The array cache keeps its all-alive searches for life and consults a
# per-generation detour only for pairs a failure touches.  Its oracle
# here is the definition it must reproduce — enumerate the *live*
# topology from scratch at every query and probe the first
# ``probe_limit`` candidates — plus the filtered searches the manager
# falls back to.  Each property is also run against a mutant that skips
# the failed-link check, and must catch it.

import random
from itertools import islice

from repro.network.link_table import LinkTable
from repro.routing.cache import NO_ROUTE, ArrayRouteCache
from repro.routing.disjoint import disjoint_path, maximally_disjoint_path
from repro.routing.ksp import paths_iter_rows
from repro.routing.shortest import bfs_path_rows
from repro.topology.graph import link_id
from repro.units import EPSILON

SURVIVOR_SETTINGS = settings(max_examples=40, deadline=None)
MUTANT_SEEDS = range(25)


def _protected(b_min: float) -> ConnectionQoS:
    return ConnectionQoS(
        performance=ElasticQoS(b_min=b_min, b_max=b_min + 200.0, increment=50.0),
        dependability=DependabilityQoS(),
    )


def _churn_step(m, net, rng: random.Random, live: list) -> None:
    """One event: arrival, termination, fail, repair or ``set_capacity``."""
    t, state = m.links, m.state
    roll = rng.random()
    if roll < 0.45:
        s, d = rng.sample(net.nodes(), 2)
        conn, _ = m.request_connection(s, d, _protected(rng.choice((50.0, 100.0, 150.0))))
        if conn is not None:
            live.append(conn.conn_id)
    elif roll < 0.6:
        if live:
            cid = live.pop(rng.randrange(len(live)))
            if cid in m.connections:  # may have died with a link
                m.terminate_connection(cid)
    elif roll < 0.75:
        alive = state.alive_link_list()
        if len(alive) > net.num_links - 3:
            m.fail_link(alive[rng.randrange(len(alive))])
    elif roll < 0.88:
        failed = state.failed_link_list()
        if failed:
            m.repair_link(failed[rng.randrange(len(failed))])
    else:
        li = rng.randrange(len(t))
        floor_cap = float(
            t.primary_min[li]
            + t.activated[li]
            + max(float(t.primary_extra[li]), float(t.backup_reserved[li]))
        )
        t.set_capacity(li, floor_cap + rng.choice((10.0, 60.0, 300.0)))


def _array_manager(seed: int):
    # Small Waxman graphs have pendant nodes and bridges (pairs with no
    # disjoint path) next to well-connected cores; tight links make
    # arrivals probe past the first candidate.
    net = waxman_network(
        12, WaxmanParams(alpha=0.5, beta=0.4), 450.0, np.random.default_rng(seed)
    )
    return net, make_manager(net)


def _rebuilt_primary(rows, t, s, d, b_min, probe_limit):
    """What a cache built now, on the live topology, would answer."""
    alive = lambda lid, li: not t.failed[li]  # noqa: E731
    probed = list(islice(paths_iter_rows(rows, s, d, alive), probe_limit))
    for path in probed:
        lis = [t.index[link_id(a, b)] for a, b in zip(path, path[1:])]
        if all(b_min <= t.headroom[li] + EPSILON for li in lis):
            return path
    return None if len(probed) == probe_limit else NO_ROUTE


def check_survivor_equals_rebuilt(seed: int) -> None:
    net, m = _array_manager(seed)
    rng = random.Random(seed)
    t, state, rows = m.links, m.state, m.state.adjacency_rows()
    survivor = ArrayRouteCache(net, t, rows)
    hits = fallbacks = 0
    live: list = []
    for _ in range(45):
        _churn_step(m, net, rng, live)
        for _ in range(3):
            s, d = rng.sample(net.nodes(), 2)
            b_min = rng.choice((50.0, 100.0, 150.0))
            found = survivor.primary_plan(s, d, b_min, state.generation)
            expected = _rebuilt_primary(rows, t, s, d, b_min, survivor.probe_limit)
            if expected is None:
                fallbacks += 1
            elif expected is not NO_ROUTE:
                hits += 1
            if expected is None or expected is NO_ROUTE:
                assert found is expected
                continue
            assert found is not None and found is not NO_ROUTE
            assert found.path == expected
            backup = survivor.raw_disjoint_backup(
                s, d, tuple(found.path), found.link_set, state.generation
            )
            avoid = found.link_set
            reference = bfs_path_rows(
                rows, s, d, lambda lid, li: lid not in avoid and not t.failed[li]
            )
            assert (backup.path if backup is not None else None) == reference
            assert backup is None or backup.overlap == 0
    assert (survivor.hits, survivor.fallbacks) == (hits, fallbacks)


def check_partial_memo_equals_filtered_search(seed: int) -> None:
    net, m = _array_manager(seed)
    rng = random.Random(seed)
    t, state, cache = m.links, m.state, m.route_cache
    live: list = []
    for _ in range(45):
        _churn_step(m, net, rng, live)
        for _ in range(3):
            s, d = rng.sample(net.nodes(), 2)
            b_min = rng.choice((50.0, 100.0, 150.0))
            plan = cache.primary_plan(s, d, b_min, state.generation)
            if plan is None or plan is NO_ROUTE:
                continue
            conflict = plan.link_set

            def backup_ok(link) -> bool:
                return t.can_admit_backup(t.index[link.id], b_min, conflict)

            path, bplan = m._centralized_backup(plan, b_min, _protected(b_min))
            # Whatever came back — a memoised candidate or a search —
            # is the answer of the filtered two-stage search.
            found = disjoint_path(net, s, d, conflict, backup_ok)
            assert path == (found[0] if found is not None else None)
            memo = cache.raw_partial_backup(tuple(plan.path), conflict)
            assert memo is not None  # the primary itself connects the pair
            if bplan is not None and bplan.overlap:
                assert bplan is memo
                assert maximally_disjoint_path(net, s, d, conflict, backup_ok) == (
                    path,
                    bplan.overlap,
                )
            elif not all(t.can_admit_backup(li, b_min, conflict) for li in memo.idx):
                # Crosses a failed or backup-full link: not returned.
                assert bplan is not memo


@given(seed=st.integers(min_value=0, max_value=10_000))
@SURVIVOR_SETTINGS
def test_surviving_cache_equals_rebuilt_cache(seed):
    """Routes, ``hits`` and ``fallbacks`` as if rebuilt at every query."""
    check_survivor_equals_rebuilt(seed)


@given(seed=st.integers(min_value=0, max_value=10_000))
@SURVIVOR_SETTINGS
def test_partial_memo_equals_filtered_search(seed):
    """The memoised maximally-disjoint answer is the filtered one or unused."""
    check_partial_memo_equals_filtered_search(seed)


def _caught(check) -> bool:
    for seed in MUTANT_SEEDS:
        try:
            check(seed)
        except AssertionError:
            return True
    return False


def test_mutant_cache_blind_to_failures_caught(monkeypatch):
    """Mutant: the cache never learns which links are down."""
    real = ArrayRouteCache._new_generation

    def blind(self, generation):
        real(self, generation)
        self._failed_idx = frozenset()

    monkeypatch.setattr(ArrayRouteCache, "_new_generation", blind)
    assert _caught(check_survivor_equals_rebuilt)


def test_mutant_recheck_blind_to_failures_caught(monkeypatch):
    """Mutant: the backup re-check forgets that failed links admit nothing."""

    def blind_bulk(self, idx, b_min, primary_links):
        # ``can_admit_backup`` with the failed test cut out.
        for li in idx:
            reserved = self.backup_reserved[li]
            growth = self.backup_reserved_with(li, b_min, primary_links) - reserved
            if growth > self.headroom[li] + 1e-6:
                return False
        return True

    monkeypatch.setattr(LinkTable, "can_admit_backup_bulk", blind_bulk)
    assert _caught(check_partial_memo_equals_filtered_search)
