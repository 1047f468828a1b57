"""Unit tests for the candidate-route memo (:class:`ArrayRouteCache`)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels import make_manager
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.routing.cache import NO_ROUTE, ArrayRouteCache
from repro.routing.shortest import bfs_path_rows
from repro.topology.graph import Network
from repro.topology.regular import grid_network
from repro.units import EPSILON

#: A demand no 1000 Kb/s test link admits, and one every idle link does.
HUGE = 10_000.0
SMALL = 100.0


def make_cache(net, **kwargs):
    """A manager's state plus a separate cache over its link table."""
    manager = make_manager(net)
    state = manager.state
    return state, ArrayRouteCache(net, manager.links, state.adjacency_rows(), **kwargs)


def lookup(state, cache, source, destination, b_min=SMALL):
    return cache.primary_plan(source, destination, b_min, state.generation)


class TestPrimaryRoute:
    def test_hit_matches_filtered_bfs(self, grid33):
        state, cache = make_cache(grid33)
        found = lookup(state, cache, 0, 8)
        assert found is not None and found is not NO_ROUTE
        path, links = found.path, found.links
        reference = bfs_path_rows(
            state.adjacency_rows(), 0, 8, lambda lid, li: not state.is_failed(lid)
        )
        assert path == reference
        assert links == [tuple(sorted(p)) for p in zip(path, path[1:])]
        assert cache.hits == 1

    def test_repeat_lookup_reuses_entry(self, grid33):
        state, cache = make_cache(grid33)
        first = lookup(state, cache, 0, 8)
        second = lookup(state, cache, 0, 8)
        assert first is second
        assert len(cache) == 1
        assert cache.hits == 2

    def test_returned_candidate_is_a_copy(self, ring6):
        # Plans are shared; the record a manager returns copies its lists.
        manager = make_manager(ring6)
        conn, _ = manager.request_connection(0, 3, _bare_qos(SMALL))
        conn.primary_path.append(99)
        conn.primary_links.clear()
        plan = manager.route_cache.primary_plan(0, 3, SMALL, manager.state.generation)
        assert 99 not in plan.path
        assert plan.links

    def test_admission_skips_to_second_candidate(self, ring6):
        state, cache = make_cache(ring6)
        # Fill the clockwise arc's first link: the counter-clockwise
        # route must be returned, exactly like a filtered BFS would.
        cache.links.add_primary_min(cache.links.indices_of([(0, 1)]), 950.0)
        assert lookup(state, cache, 0, 3).path == [0, 5, 4, 3]

    def test_probe_limit_fallback(self, grid33):
        state, cache = make_cache(grid33, probe_limit=2)
        # Nothing admits: with more than two raw candidates available the
        # cache must give up (None), not claim NO_ROUTE.
        assert lookup(state, cache, 0, 8, HUGE) is None
        assert cache.fallbacks == 1

    def test_exhaustion_proves_no_route(self, ring6):
        state, cache = make_cache(ring6, probe_limit=8)
        # Only two simple routes exist between opposite ring nodes; with
        # both rejected and the probe budget larger, exhaustion is proof.
        assert lookup(state, cache, 0, 3, HUGE) is NO_ROUTE

    def test_disconnected_pair_is_no_route(self):
        net = Network()
        net.add_link(0, 1, 100.0)
        net.add_link(2, 3, 100.0)
        state, cache = make_cache(net)
        assert lookup(state, cache, 0, 3, 50.0) is NO_ROUTE

    def test_probe_limit_must_be_positive(self, ring6):
        with pytest.raises(ValueError):
            make_cache(ring6, probe_limit=0)


class TestGenerationInvalidation:
    def test_failure_invalidates_candidates(self, ring6):
        state, cache = make_cache(ring6)
        assert lookup(state, cache, 0, 3).path == [0, 1, 2, 3]
        state.fail_link((1, 2))
        assert lookup(state, cache, 0, 3).path == [0, 5, 4, 3]

    def test_repair_invalidates_again(self, ring6):
        state, cache = make_cache(ring6)
        state.fail_link((1, 2))
        assert lookup(state, cache, 0, 3).path == [0, 5, 4, 3]
        state.repair_link((1, 2))
        assert lookup(state, cache, 0, 3).path == [0, 1, 2, 3]

    def test_generation_counter_bumps(self, ring6):
        state, _cache = make_cache(ring6)
        g0 = state.generation
        state.fail_link((0, 1))
        state.repair_link((0, 1))
        assert state.generation == g0 + 2

    def test_clear_drops_entries(self, ring6):
        state, cache = make_cache(ring6)
        lookup(state, cache, 0, 3)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0


def _avoid(primary):
    return frozenset(tuple(sorted(p)) for p in zip(primary, primary[1:]))


class TestRawDisjointBackup:
    def test_finds_disjoint_arc(self, ring6):
        state, cache = make_cache(ring6)
        primary = (0, 1, 2, 3)
        avoid = _avoid(primary)
        plan = cache.raw_disjoint_backup(0, 3, primary, avoid, state.generation)
        assert plan is not None
        assert plan.path == [0, 5, 4, 3]
        assert not (set(plan.links) & avoid)
        assert len(plan.idx) == len(plan.links)
        assert plan.overlap == 0

    def test_memoized_per_primary(self, ring6):
        state, cache = make_cache(ring6)
        primary = (0, 1, 2, 3)
        avoid = _avoid(primary)
        first = cache.raw_disjoint_backup(0, 3, primary, avoid, state.generation)
        second = cache.raw_disjoint_backup(0, 3, primary, avoid, state.generation)
        assert first is second  # the shared candidate, not a recompute

    def test_none_when_no_disjoint_exists(self, line5):
        state, cache = make_cache(line5)
        primary = (0, 1, 2, 3, 4)
        assert cache.raw_disjoint_backup(0, 4, primary, _avoid(primary), state.generation) is None

    def test_failure_invalidates_backups(self, complete5):
        state, cache = make_cache(complete5)
        primary = (0, 4)
        avoid = frozenset({(0, 4)})
        before = cache.raw_disjoint_backup(0, 4, primary, avoid, state.generation)
        assert before is not None
        state.fail_link(tuple(sorted(before.path[:2])))  # kill its first hop
        after = cache.raw_disjoint_backup(0, 4, primary, avoid, state.generation)
        assert after is not None
        assert after.path != before.path


class TestManagerIntegration:
    def test_cache_enabled_by_default(self, ring6):
        manager = make_manager(ring6)
        assert manager.route_cache is not None

    def test_probe_zero_disables_cache(self, ring6, contract):
        manager = make_manager(ring6, route_cache_probe=0)
        assert manager.route_cache is None
        conn, _ = manager.request_connection(0, 3, contract)
        assert conn is not None  # uncached path still routes

    def test_cached_and_uncached_agree(self, grid33, contract):
        cached = make_manager(grid33)
        plain = make_manager(grid33, route_cache_probe=0)
        pairs = [(0, 8), (2, 6), (0, 8), (1, 7), (3, 5), (0, 8)]
        for src, dst in pairs:
            a, _ = cached.request_connection(src, dst, contract)
            b, _ = plain.request_connection(src, dst, contract)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.primary_path == b.primary_path
                assert a.backup_path == b.backup_path
        assert cached.average_live_bandwidth() == plain.average_live_bandwidth()


# ----------------------------------------------------------------------
# Precompiled RoutePlan cache (array core)
# ----------------------------------------------------------------------
def _bare_qos(b_min: float) -> ConnectionQoS:
    return ConnectionQoS(
        performance=ElasticQoS(b_min=b_min, b_max=b_min + 100.0, increment=100.0),
        dependability=DependabilityQoS(num_backups=0),
    )


class TestArrayPlanInvalidation:
    """All-alive plans outlive failures; only the detour is per generation."""

    def test_plan_shared_within_generation(self, ring6):
        m = make_manager(ring6)
        cache, state = m.route_cache, m.state
        plan = cache.primary_plan(0, 3, 100.0, state.generation)
        assert plan.path == [0, 1, 2, 3]
        assert cache.primary_plan(0, 3, 100.0, state.generation) is plan

    def test_repair_restores_the_same_plan(self, ring6):
        m = make_manager(ring6)
        cache, state = m.route_cache, m.state
        plan = cache.primary_plan(0, 3, 100.0, state.generation)
        assert plan.path == [0, 1, 2, 3]
        # A pair whose candidates avoid the failed link: 4 -> 5 has the
        # direct link and the long way round through (1, 2); only the
        # first is ever probed.
        bystander = cache.primary_plan(4, 5, 100.0, state.generation)
        assert bystander.path == [4, 5]
        m.fail_link((1, 2))
        detour = cache.primary_plan(0, 3, 100.0, state.generation)
        assert detour.path == [0, 5, 4, 3]
        assert cache.primary_plan(0, 3, 100.0, state.generation) is detour
        assert cache.primary_plan(4, 5, 100.0, state.generation) is bystander
        m.repair_link((1, 2))
        back = cache.primary_plan(0, 3, 100.0, state.generation)
        assert back.path == [0, 1, 2, 3]
        # The all-alive entry was never discarded: the repair brings
        # back the very plan object, and the detour is gone with its
        # generation.
        assert back is plan
        assert cache.primary_plan(4, 5, 100.0, state.generation) is bystander
        m.fail_link((1, 2))
        again = cache.primary_plan(0, 3, 100.0, state.generation)
        assert again.path == [0, 5, 4, 3]
        assert again is not detour

    def test_len_and_clear_cover_every_map(self, ring6):
        # ``ServiceEngine.close()`` relies on ``clear()`` to make a held
        # engine cheap: no map the cache holds may survive it.
        m = make_manager(ring6)
        cache, state = m.route_cache, m.state
        plan = cache.primary_plan(0, 3, 100.0, state.generation)
        assert len(cache) == 1  # the all-alive entry
        cache.raw_partial_backup(tuple(plan.path), plan.link_set)
        assert len(cache) == 2  # + the maximally-disjoint memo
        m.fail_link((1, 2))
        cache.primary_plan(0, 3, 100.0, state.generation)
        assert len(cache) == 3  # + the detour
        cache.clear()
        assert len(cache) == 0
        assert cache.primary_plan(0, 3, 100.0, state.generation).path == [0, 5, 4, 3]

    def test_set_capacity_respects_generation_bump(self, ring6):
        m = make_manager(ring6)
        t, cache, state = m.links, m.route_cache, m.state
        li = t.index_of((0, 1))
        assert cache.primary_plan(0, 3, 100.0, state.generation).path == [0, 1, 2, 3]
        # Degrade the first-hop link below the demand; the owner's
        # contract is to bump the generation after a capacity mutation.
        t.set_capacity(li, 60.0)
        state.generation += 1
        warm = cache.primary_plan(0, 3, 100.0, state.generation)
        cold = ArrayRouteCache(ring6, t, state.adjacency_rows()).primary_plan(
            0, 3, 100.0, state.generation
        )
        assert warm.path == cold.path == [0, 5, 4, 3]
        # A smaller request still fits through the degraded link.
        assert cache.primary_plan(0, 3, 50.0, state.generation).path == [0, 1, 2, 3]
        # Restore: the next generation admits the direct arc again.
        t.set_capacity(li, 1000.0)
        state.generation += 1
        assert cache.primary_plan(0, 3, 100.0, state.generation).path == [0, 1, 2, 3]

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cached_admission_bitwise_equals_cold_path(self, seed):
        """Property: a warm cache answers exactly like a cold one.

        Drives one array manager through churn, failures, repairs and
        capacity mutations, and after every event compares the warm
        cache's ``primary_plan`` against (a) a freshly built cache and
        (b) the BFS filtered by the primary admission rule (alive, and
        ``b_min`` fits the headroom) — the cold path the manager falls
        back to.
        """
        rng = random.Random(seed)
        net = grid_network(3, 3, capacity=300.0)
        m = make_manager(net)
        t, state, cache = m.links, m.state, m.route_cache
        nodes = net.nodes()
        live: list[int] = []
        for _ in range(40):
            r = rng.random()
            if r < 0.45:
                s, d = rng.sample(nodes, 2)
                conn, _ = m.request_connection(s, d, _bare_qos(rng.choice((50.0, 100.0))))
                if conn is not None:
                    live.append(conn.conn_id)
            elif r < 0.6:
                if live:
                    cid = live.pop(rng.randrange(len(live)))
                    if cid in m.connections:  # may have died with a link
                        m.terminate_connection(cid)
            elif r < 0.7:
                alive = state.alive_link_list()
                if len(alive) > net.num_links - 2:
                    m.fail_link(alive[rng.randrange(len(alive))])
            elif r < 0.8:
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
                state.generation += 1

            s, d = rng.sample(nodes, 2)
            b_min = rng.choice((50.0, 100.0, 150.0))
            gen = state.generation
            warm = cache.primary_plan(s, d, b_min, gen)
            cold = ArrayRouteCache(net, t, state.adjacency_rows()).primary_plan(
                s, d, b_min, gen
            )
            if warm is NO_ROUTE or warm is None:
                assert cold is warm
            else:
                assert cold is not None and cold is not NO_ROUTE
                assert warm.path == cold.path
                assert warm.idx_list == cold.idx_list
            reference = bfs_path_rows(
                state.adjacency_rows(),
                s,
                d,
                lambda lid, li_: not t.failed[li_] and b_min <= t.headroom[li_] + EPSILON,
            )
            if warm is NO_ROUTE:
                assert reference is None
            elif warm is not None:
                assert warm.path == reference
