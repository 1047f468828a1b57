"""Unit tests for the reference water-fill (:func:`repro.reference.fill`)."""

from dataclasses import dataclass
from typing import List


from repro.elastic.policies import EqualShare, MaxUtility, UtilityProportional
from repro.qos.spec import ElasticQoS
from repro.reference import State, candidate_ids, drop_to_minimum, is_maximal
from repro.reference import fill as redistribute
from repro.topology.graph import LinkId
from repro.topology.regular import line_network


@dataclass
class FakeChannel:
    """Minimal ElasticParticipant for engine tests."""

    conn_id: int
    primary_links: List[LinkId]
    qos: ElasticQoS
    level: int = 0

    @property
    def elastic_qos(self) -> ElasticQoS:
        return self.qos


def qos(utility=1.0):
    return ElasticQoS(b_min=100.0, b_max=500.0, increment=50.0, utility=utility)


def setup_state(capacity=1000.0, n=5):
    return State(line_network(n, capacity))


def add_channel(state, channels, cid, links, utility=1.0):
    chan = FakeChannel(conn_id=cid, primary_links=list(links), qos=qos(utility))
    state.reserve_primary_path(cid, chan.primary_links, chan.qos.b_min)
    channels[cid] = chan
    return chan


class TestRedistributeBasics:
    def test_single_channel_fills_to_max(self):
        state = setup_state()
        channels = {}
        add_channel(state, channels, 1, [(0, 1), (1, 2)])
        granted = redistribute(state, channels, {1}, EqualShare())
        assert granted == {1: 8}
        assert channels[1].level == 8
        assert state.link((0, 1)).primary_extra[1] == 400.0

    def test_bottleneck_limits_level(self):
        state = State(line_network(3, 1000.0))
        channels = {}
        add_channel(state, channels, 1, [(0, 1), (1, 2)])
        # Saturate (1,2) with another channel's minimum reservations.
        state.reserve_primary_path(9, [(1, 2)], 750.0)
        granted = redistribute(state, channels, {1}, EqualShare())
        # spare on (1,2) is 1000-100-750 = 150 -> 3 increments of 50
        assert granted == {1: 3}
        assert channels[1].level == 3

    def test_empty_candidates_no_op(self):
        state = setup_state()
        channels = {}
        assert redistribute(state, channels, set(), EqualShare()) == {}

    def test_result_is_maximal(self):
        state = setup_state()
        channels = {}
        add_channel(state, channels, 1, [(0, 1), (1, 2)])
        add_channel(state, channels, 2, [(1, 2), (2, 3)])
        redistribute(state, channels, {1, 2}, EqualShare())
        assert is_maximal(state, channels, channels.keys())

    def test_channel_at_max_untouched(self):
        state = setup_state()
        channels = {}
        chan = add_channel(state, channels, 1, [(0, 1)])
        redistribute(state, channels, {1}, EqualShare())
        assert chan.level == 8
        granted = redistribute(state, channels, {1}, EqualShare())
        assert granted == {}


class TestFairness:
    def test_equal_share_splits_evenly(self):
        """Two channels share one 500-capacity bottleneck fairly."""
        state = State(line_network(2, 500.0))
        channels = {}
        add_channel(state, channels, 1, [(0, 1)])
        add_channel(state, channels, 2, [(0, 1)])
        redistribute(state, channels, {1, 2}, EqualShare())
        # pool: 500 - 200 = 300 -> 6 increments, 3 each
        assert channels[1].level == 3
        assert channels[2].level == 3

    def test_max_utility_monopolises(self):
        state = State(line_network(2, 500.0))
        channels = {}
        add_channel(state, channels, 1, [(0, 1)], utility=1.0)
        add_channel(state, channels, 2, [(0, 1)], utility=5.0)
        redistribute(state, channels, {1, 2}, MaxUtility())
        # 6 increments available; the utility-5 channel takes 6 but its
        # range caps at 8: it gets 6, the other 0.
        assert channels[2].level == 6
        assert channels[1].level == 0

    def test_utility_proportional_splits_by_coefficient(self):
        state = State(line_network(2, 500.0))
        channels = {}
        add_channel(state, channels, 1, [(0, 1)], utility=1.0)
        add_channel(state, channels, 2, [(0, 1)], utility=2.0)
        redistribute(state, channels, {1, 2}, UtilityProportional())
        # 6 increments in ratio 1:2 -> 2 and 4
        assert channels[1].level == 2
        assert channels[2].level == 4


class TestDropToMinimum:
    def test_returns_previous_level_and_links(self):
        state = setup_state()
        channels = {}
        chan = add_channel(state, channels, 1, [(0, 1), (1, 2)])
        redistribute(state, channels, {1}, EqualShare())
        prev, affected = drop_to_minimum(state, chan)
        assert prev == 8
        assert set(affected) == {(0, 1), (1, 2)}
        assert chan.level == 0
        assert state.link((0, 1)).primary_extra[1] == 0.0

    def test_no_op_at_minimum(self):
        state = setup_state()
        channels = {}
        chan = add_channel(state, channels, 1, [(0, 1)])
        prev, affected = drop_to_minimum(state, chan)
        assert prev == 0
        assert affected == []


class TestCandidateIds:
    def test_union_over_links(self):
        on_link = {(0, 1): {1, 2}, (1, 2): {2, 3}}
        assert candidate_ids(on_link, [(0, 1), (1, 2)]) == {1, 2, 3}
        assert candidate_ids(on_link, [(5, 6)]) == set()


class TestLocality:
    def test_far_channel_not_needed(self):
        """A channel whose links saw no spare change cannot rise, so
        redistribution restricted to the affected region is lossless."""
        state = setup_state(capacity=1000.0, n=5)
        channels = {}
        add_channel(state, channels, 1, [(0, 1)])
        add_channel(state, channels, 2, [(3, 4)])
        # Fill both to maximality.
        redistribute(state, channels, channels.keys(), EqualShare())
        assert is_maximal(state, channels, channels.keys())
        # Free capacity only on (0,1) by dropping channel 1.
        drop_to_minimum(state, channels[1])
        redistribute(state, channels, {1}, EqualShare())
        # Global maximality holds even though channel 2 was not a candidate.
        assert is_maximal(state, channels, channels.keys())


class TestScalarCacheKeying:
    """Grants depend on a contract's *value*, never on which object
    carries it (the hazard of an ``id()``-keyed cache):
    grants, levels and per-link extras are identical whether contracts
    are aliased, duplicated, or mixed."""

    def _run(self, make_qos):
        state = State(line_network(4, 700.0))
        channels = {}
        routes = [[(0, 1), (1, 2)], [(1, 2), (2, 3)], [(0, 1)]]
        for cid, links in enumerate(routes):
            chan = FakeChannel(conn_id=cid, primary_links=list(links),
                               qos=make_qos(cid))
            state.reserve_primary_path(cid, chan.primary_links, chan.qos.b_min)
            channels[cid] = chan
        granted = redistribute(state, channels, sorted(channels), EqualShare())
        return state, channels, granted

    def _snapshot(self, state, channels, granted):
        levels = {cid: chan.level for cid, chan in channels.items()}
        extras = {
            lid: dict(state.link(lid).primary_extra)
            for lid in state.topology.link_ids()
        }
        return granted, levels, extras

    def test_distinct_equal_contracts_match_shared_contract(self):
        shared = qos()
        aliased = self._snapshot(*self._run(lambda cid: shared))
        # Equal value, a brand-new contract object per channel.
        distinct = self._snapshot(*self._run(lambda cid: qos()))
        assert aliased == distinct

    def test_mixed_contracts_never_alias(self):
        """Channels with *different* contracts each use their own scalars
        even when the contract objects are allocated back-to-back (the
        aliasing an ``id()`` key risks once an object is collected)."""
        contracts = {
            0: ElasticQoS(b_min=100.0, b_max=500.0, increment=50.0),
            1: ElasticQoS(b_min=100.0, b_max=300.0, increment=100.0),
            2: ElasticQoS(b_min=100.0, b_max=500.0, increment=50.0),
        }
        state, channels, granted = self._run(lambda cid: contracts[cid])
        _, levels, _ = self._snapshot(state, channels, granted)
        # Channel 1's coarser contract caps it at (300-100)/100 = 2 levels.
        assert levels[1] <= 2
        assert is_maximal(state, channels, channels.keys())

    def test_grants_bitwise_pinned(self):
        """Exact output pinned so a change that alters the fill shows up
        as a diff, not a silent drift."""
        granted, levels, extras = self._snapshot(*self._run(lambda cid: qos()))
        assert granted == {0: 5, 1: 5, 2: 5}
        assert levels == {0: 5, 1: 5, 2: 5}
        assert extras == {
            (0, 1): {0: 250.0, 2: 250.0},
            (1, 2): {0: 250.0, 1: 250.0},
            (2, 3): {1: 250.0},
        }


class GenericEqualShare(EqualShare):
    """Same priority rule but a different type."""

    name = "equal-share-generic"


class TestEqualShareFastPath:
    """The fill depends on the policy's priority only, not its type (the
    production core's equal-share wave fill is built on that)."""

    def _contended_setup(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        # Tight capacity so saturation interleaves channels mid-fill.
        state = setup_state(capacity=float(rng.integers(300, 900)), n=6)
        channels = {}
        for cid in range(int(rng.integers(2, 7))):
            lo = int(rng.integers(0, 4))
            hi = int(rng.integers(lo + 1, 6))
            links = [(i, i + 1) for i in range(lo, hi)]
            try:
                add_channel(state, channels, cid, links)
            except Exception:
                continue  # admission full: a smaller population still contends
        # Stagger starting levels so waves begin from a mixed state.
        for cid, chan in channels.items():
            start = int(rng.integers(0, 3))
            for _ in range(start):
                ok = all(
                    state.link(lid).spare_for_extras >= chan.qos.increment
                    for lid in chan.primary_links
                )
                if not ok:
                    break
                for lid in chan.primary_links:
                    state.link(lid).grant_extra(cid, chan.qos.increment)
                chan.level += 1
        return state, channels

    def _snapshot(self, state, channels):
        levels = {cid: chan.level for cid, chan in channels.items()}
        extras = {
            lid: dict(state.link(lid).primary_extra) for lid in state.topology.link_ids()
        }
        return levels, extras

    def test_wave_matches_generic_heap(self):
        for seed in range(40):
            state_a, chans_a = self._contended_setup(seed)
            state_b, chans_b = self._contended_setup(seed)
            assert self._snapshot(state_a, chans_a) == self._snapshot(state_b, chans_b)
            granted_a = redistribute(state_a, chans_a, set(chans_a), EqualShare())
            granted_b = redistribute(state_b, chans_b, set(chans_b), GenericEqualShare())
            assert granted_a == granted_b
            assert self._snapshot(state_a, chans_a) == self._snapshot(state_b, chans_b)
            assert is_maximal(state_a, chans_a, chans_a.keys())
