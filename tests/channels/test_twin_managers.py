"""Twin-manager equivalence: the array core vs the reference, bit for bit.

The struct-of-arrays :class:`ArrayNetworkManager` (what
:func:`make_manager` builds) claims *bitwise* equivalence with the
plain :class:`~repro.reference.ReferenceManager`: driven
through an identical event sequence, every route, grant, drop, impact
record, statistic and per-link float must match exactly (``==`` on
floats, not ``approx``).  These tests drive both cores in lock-step —
through scripted campaigns, through every fault injector, and through
hypothesis-generated event sequences — and diff complete state
snapshots along the way.

Bandwidths are drawn from the paper's dyadic grid (multiples of
50 Kb/s), where every sum is exact, and — in the property tests — also
from an off-grid contract set, where only the float *order* keeps the
cores equal; see the module docstring of :mod:`repro.elastic.array_fill`.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import paper_connection_qos
from repro.channels import ArrayNetworkManager, make_manager
from repro.channels.digest import manager_state_digest, manager_state_summary
from repro.elastic.policies import MaxUtility, UtilityProportional
from repro.faults.injectors import FaultConfig, build_injector
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.reference import ReferenceManager
from repro.service.wal import parse_topology_arg
from repro.sim import simulator
from repro.sim.workload import Workload, WorkloadConfig
from repro.topology.regular import grid_network

#: Manager factory per core name (test ids keep the core names).
FACTORIES = {"array": make_manager, "reference": ReferenceManager}

#: Contract sets ``(B_min choices, Δ choices)``: the paper's dyadic grid,
#: and one whose bandwidths are not exact binary fractions.
DYADIC = ((50.0, 100.0, 150.0), (50.0, 100.0))
OFF_GRID = ((33.3, 100.1), (12.3, 7.7))


def _make_qos(rng: random.Random, contracts=DYADIC) -> ConnectionQoS:
    b_mins, increments = contracts
    b_min = rng.choice(b_mins)
    inc = rng.choice(increments)
    levels = rng.randrange(1, 5)
    return ConnectionQoS(
        performance=ElasticQoS(
            b_min=b_min,
            b_max=b_min + inc * (levels - 1) if levels > 1 else b_min + inc,
            increment=inc,
            utility=float(rng.randrange(1, 4)),
        ),
        dependability=DependabilityQoS(num_backups=rng.choice((0, 1))),
    )


def _snapshot(m: ReferenceManager | ArrayNetworkManager):
    """Complete observable state: the hex-exact digest summary."""
    return manager_state_summary(m)


def _impact_key(impact):
    return (
        impact.kind.name,
        impact.conn_id,
        impact.accepted,
        dict(impact.direct),
        dict(impact.indirect_changed),
        tuple(impact.dropped),
        tuple(impact.activated),
        tuple(impact.lost_backup),
        tuple(impact.activation_faults),
        tuple(sorted(impact.failed_links)) if impact.failed_links else (),
    )


def _assert_equal_state(mo, ma, where: str, exact_mean: bool = True) -> None:
    so, sa = _snapshot(mo), _snapshot(ma)
    if not exact_mean:
        # The one inexact field off the dyadic grid: the array core sums
        # live bandwidths pairwise, the reference sequentially (see
        # ``ConnectionTable.average_live_bandwidth``; ROADMAP item 12).
        mean_o = float.fromhex(so.pop("average_live_bandwidth"))
        mean_a = float.fromhex(sa.pop("average_live_bandwidth"))
        assert math.isclose(mean_o, mean_a, rel_tol=1e-12), where
    for part in ("connections", "links", "stats"):
        po, pa = so[part], sa[part]
        diffs = {k: (po[k], pa.get(k)) for k in po if po[k] != pa.get(k)}
        assert not diffs and po == pa, f"{where}: {part} diverged: {diffs}"
    assert so == sa, where
    live = mo.live_connection_ids()
    assert live == ma.live_connection_ids(), where
    for cid in live:
        # Every record field, including the ones the summary leaves out.
        assert mo.connection(cid) == ma.connection(cid), f"{where}: connection {cid}"
    links = sorted(mo.topology.link_ids())
    sampler = random.Random(len(live))
    for k in (1, 2, 5):
        # A link id the topology does not know carries no channel on either core.
        lids = sampler.sample(links, k) + [(-1, -2)]
        assert mo.ids_on_links(lids) == ma.ids_on_links(lids), f"{where}: {lids}"


class TwinDriver:
    """Drives a reference/array manager pair through one decision stream."""

    def __init__(self, seed: int, contracts=DYADIC, **manager_kwargs) -> None:
        self.contracts = contracts
        self.net = grid_network(4, 4, capacity=1000.0)
        self.mo = ReferenceManager(self.net, **manager_kwargs)
        self.ma = make_manager(self.net, **manager_kwargs)
        self.rng = random.Random(seed)
        self.nodes = self.net.nodes()
        self.live: list[int] = []

    def arrive(self) -> None:
        s, d = self.rng.sample(self.nodes, 2)
        qos = _make_qos(self.rng, self.contracts)
        co, io_ = self.mo.request_connection(s, d, qos)
        ca, ia = self.ma.request_connection(s, d, qos)
        assert (co is None) == (ca is None)
        assert _impact_key(io_) == _impact_key(ia)
        if co is not None:
            assert co == ca  # every field of the arrival's record
            self.live.append(co.conn_id)

    def terminate(self) -> None:
        if not self.live:
            return
        cid = self.live.pop(self.rng.randrange(len(self.live)))
        if not self.mo.is_live(cid):
            return  # dropped by an earlier failure
        io_ = self.mo.terminate_connection(cid)
        ia = self.ma.terminate_connection(cid)
        assert _impact_key(io_) == _impact_key(ia)

    def fail(self) -> None:
        alive = self.mo.state.alive_link_list()
        if len(alive) <= self.net.num_links // 2:
            return  # keep the grid connected enough to stay interesting
        lid = alive[self.rng.randrange(len(alive))]
        io_ = self.mo.fail_link(lid)
        ia = self.ma.fail_link(lid)
        assert _impact_key(io_) == _impact_key(ia)

    def repair(self) -> None:
        failed = self.mo.state.failed_link_list()
        if not failed:
            return
        lid = failed[self.rng.randrange(len(failed))]
        self.mo.repair_link(lid)
        self.ma.repair_link(lid)

    def run(self, events: int, faults: bool, check_every: int = 29) -> None:
        for step in range(events):
            r = self.rng.random()
            if r < 0.5 or not self.live:
                self.arrive()
            elif r < 0.8 or not faults:
                self.terminate()
            elif r < 0.9:
                self.fail()
            else:
                self.repair()
            if step % check_every == 0:
                self.check(f"step {step}")
        self.check("final")

    def check(self, where: str) -> None:
        self.mo.check_invariants()
        self.ma.check_invariants()
        _assert_equal_state(self.mo, self.ma, where, self.contracts is DYADIC)


class TestTwinCampaigns:
    """Scripted random campaigns, faults off and on."""

    @pytest.mark.parametrize("seed", range(4))
    def test_churn_only(self, seed):
        TwinDriver(seed).run(300, faults=False)

    @pytest.mark.parametrize("seed", range(4, 8))
    def test_churn_and_failures(self, seed):
        TwinDriver(seed).run(300, faults=True)

    def test_flooding_routing(self):
        TwinDriver(11, routing="flooding").run(150, faults=True)

    def test_multiplexing_off(self):
        TwinDriver(12, multiplex_backups=False).run(200, faults=True)

    def test_backup_reestablishment(self):
        driver = TwinDriver(13, reestablish_backups=True)
        driver.run(250, faults=True)
        assert driver.mo.stats.backups_reestablished == driver.ma.stats.backups_reestablished

    @pytest.mark.parametrize("policy_cls", [UtilityProportional, MaxUtility])
    def test_priority_policies(self, policy_cls):
        # Non-equal-share policies exercise the heap fill in both cores.
        TwinDriver(14, policy=policy_cls()).run(200, faults=True)

    def test_activation_faults(self):
        driver = TwinDriver(15)
        driver.mo.set_activation_faults(0.5, np.random.default_rng(99))
        driver.ma.set_activation_faults(0.5, np.random.default_rng(99))
        driver.run(250, faults=True)
        assert driver.mo.stats.activation_faults > 0
        assert driver.mo.stats.activation_faults == driver.ma.stats.activation_faults

    def test_cache_disabled(self):
        TwinDriver(16, route_cache_probe=0).run(150, faults=True)

    def test_ledger_network_at_full_population(self):
        """The benchmark ledger's network and QoS at 1 000 live connections.

        The grid campaigns above keep fills small; here every arrival
        squeezes dozens of channels and every departure refills
        hundreds.  300 churn events follow, with a link failure or
        repair every 50.
        """
        net = parse_topology_arg("waxman:nodes=60,edges=130,capacity=10000").build()
        mo, ma = ReferenceManager(net), make_manager(net)
        qos = paper_connection_qos()
        rng = random.Random(40)
        nodes = net.nodes()
        live: list[int] = []

        def arrive() -> None:
            s, d = rng.sample(nodes, 2)
            co, io_ = mo.request_connection(s, d, qos)
            ca, ia = ma.request_connection(s, d, qos)
            assert co == ca and _impact_key(io_) == _impact_key(ia)
            if co is not None:
                live.append(co.conn_id)

        for _ in range(2000):
            if len(live) == 1000:
                break
            arrive()
        assert len(live) == 1000
        for step in range(1, 301):
            if step % 50 == 0:
                failed = mo.state.failed_link_list()
                if failed:
                    mo.repair_link(failed[0])
                    ma.repair_link(failed[0])
                else:
                    alive = mo.state.alive_link_list()
                    lid = alive[rng.randrange(len(alive))]
                    assert _impact_key(mo.fail_link(lid)) == _impact_key(ma.fail_link(lid))
            elif rng.random() < 0.5:
                arrive()
            else:
                cid = live.pop(rng.randrange(len(live)))
                if mo.is_live(cid):
                    io_ = mo.terminate_connection(cid)
                    assert _impact_key(io_) == _impact_key(ma.terminate_connection(cid))
        assert mo.stats.link_failures == 3
        mo.check_invariants()
        ma.check_invariants()
        _assert_equal_state(mo, ma, "ledger network")
        assert manager_state_digest(mo) == manager_state_digest(ma)


INJECTOR_CONFIGS = {
    "node": FaultConfig(mode="node"),
    "burst": FaultConfig(mode="burst", burst_size=3, burst_kernel="shared-node"),
    "markov": FaultConfig(mode="markov", rate_spread=1.0, rate_seed=5),
}


def _drive_injected(mo, ma, mode: str, same_impact, steps: int = 200, seed: int = 303):
    """Drive two managers on one grid through churn + injector-drawn faults.

    ``same_impact(io, ia)`` judges each pair of impacts; full state is
    compared every 23 steps and at the end.
    """
    net = mo.topology
    wl_config = WorkloadConfig(
        arrival_rate=1.0,
        termination_rate=1.0,
        link_failure_rate=0.1,
        repair_rate=1.0,
    )
    qos_rng = random.Random(1000 + hash(mode) % 1000)

    def factory(_index: int) -> ConnectionQoS:
        return _make_qos(qos_rng)

    # Two injector stacks with identically seeded RNGs: since the
    # managers expose identical alive/failed lists at every step, both
    # stacks draw the same victims.
    stacks = []
    for manager in (mo, ma):
        workload = Workload(net, factory, wl_config, np.random.default_rng(77))
        stacks.append((manager, build_injector(INJECTOR_CONFIGS[mode], net, workload)))
    rng = random.Random(seed)
    live: list[int] = []
    for step in range(steps):
        r = rng.random()
        if r < 0.45 or not live:
            s, d = rng.sample(net.nodes(), 2)
            qos = _make_qos(rng)
            co, io_ = mo.request_connection(s, d, qos)
            ca, ia = ma.request_connection(s, d, qos)
            same_impact(io_, ia)
            if co is not None:
                live.append(co.conn_id)
        elif r < 0.75:
            cid = live.pop(rng.randrange(len(live)))
            if mo.is_live(cid):
                same_impact(mo.terminate_connection(cid), ma.terminate_connection(cid))
        elif r < 0.88:
            if mo.state.num_alive <= net.num_links // 2:
                continue
            impacts = [inj.inject_failure(m) for m, inj in stacks]
            assert (impacts[0] is None) == (impacts[1] is None)
            if impacts[0] is not None:
                same_impact(impacts[0], impacts[1])
        else:
            impacts = [inj.inject_repair(m) for m, inj in stacks]
            assert (impacts[0] is None) == (impacts[1] is None)
        if step % 23 == 0:
            mo.check_invariants()
            ma.check_invariants()
            _assert_equal_state(mo, ma, f"{mode} step {step}")
    mo.check_invariants()
    ma.check_invariants()
    _assert_equal_state(mo, ma, f"{mode} final")


def _assert_same_impact(io_, ia) -> None:
    assert _impact_key(io_) == _impact_key(ia)


class TestTwinUnderInjectors:
    """Both cores driven by each fault injector from repro.faults."""

    @pytest.mark.parametrize("mode", sorted(INJECTOR_CONFIGS))
    def test_injected_faults_equivalent(self, mode):
        net = grid_network(4, 4, capacity=1000.0)
        mo = ReferenceManager(net)
        ma = make_manager(net)
        _drive_injected(mo, ma, mode, _assert_same_impact)
        assert mo.stats.link_failures > 0


#: ≥200 randomized sequences: 100 hypothesis examples here plus 100 in
#: the fault-flavoured property below (and the scripted campaigns above).
TWIN_SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestTwinProperty:
    """Property: any event sequence leaves the cores bitwise identical."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        contracts=st.sampled_from([DYADIC, OFF_GRID]),
    )
    @TWIN_SETTINGS
    def test_random_churn_sequences(self, seed, contracts):
        TwinDriver(seed, contracts).run(60, faults=False, check_every=60)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        contracts=st.sampled_from([DYADIC, OFF_GRID]),
    )
    @TWIN_SETTINGS
    def test_random_fault_sequences(self, seed, contracts):
        TwinDriver(seed, contracts).run(60, faults=True, check_every=60)


def _on_core(monkeypatch, core: str) -> None:
    """Make the simulator build ``core``'s manager from here on."""
    monkeypatch.setattr(simulator, "make_manager", FACTORIES[core])


def _simulate(faults=None, failure_rate: float = 0.01, seed: int = 7, **config):
    qos = ConnectionQoS(
        performance=ElasticQoS(b_min=100.0, b_max=300.0, increment=100.0, utility=1.0),
        dependability=DependabilityQoS(num_backups=1),
    )
    cfg = simulator.SimulationConfig(
        qos=qos,
        offered_connections=30,
        warmup_events=150,
        measure_events=150,
        sample_interval=5,
        workload=WorkloadConfig(
            arrival_rate=1.0,
            termination_rate=1.0,
            link_failure_rate=failure_rate,
            repair_rate=1.0,
        ),
        faults=faults,
        **config,
    )
    return simulator.ElasticQoSSimulator(grid_network(4, 4, capacity=1000.0), cfg, seed=seed)


def _result_key(r):
    return (
        r.average_bandwidth,
        r.level_occupancy.tolist(),
        r.manager_stats,
        r.initial_population,
        r.end_time,
    )


def _plain(obj):
    """A dataclass as nested plain values (arrays -> lists), for ``==``."""
    return {
        k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(obj).items()
    }


def _simulate_on_both(monkeypatch, **kwargs):
    """Result keys of one simulation per core name."""
    results = {}
    for core in ("array", "reference"):
        _on_core(monkeypatch, core)
        results[core] = _result_key(_simulate(**kwargs).run())
    return results


class TestTwinSimulator:
    """End-to-end: both cores produce the same simulation, bit for bit."""

    def test_simulator_results_bitwise_identical(self, monkeypatch):
        results = _simulate_on_both(monkeypatch)
        assert results["array"] == results["reference"]


class TestTwinSimulatorUnderInjectors:
    """Fault injection through the full simulator loop, both cores.

    Each fault injector drives the simulator on the array core and on
    the reference; the runs must be bitwise identical.
    """

    @pytest.mark.parametrize("mode", sorted(INJECTOR_CONFIGS))
    def test_injected_simulation_bitwise_identical(self, monkeypatch, mode):
        results = _simulate_on_both(
            monkeypatch, faults=INJECTOR_CONFIGS[mode], failure_rate=0.05, seed=11
        )
        assert results["array"] == results["reference"], f"{mode}: cores diverged"
        assert results["reference"][2].link_failures > 0, "injector never fired"


class TestTrajectoryRecording:
    """``record_trajectories = False`` empties the level trajectories of
    an impact and changes nothing else."""

    @pytest.mark.parametrize("core", ["array", "reference"])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        mode=st.sampled_from(sorted(INJECTOR_CONFIGS)),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_off_only_empties_trajectories(self, core, seed, mode):
        net = grid_network(4, 4, capacity=1000.0)
        on = FACTORIES[core](net)
        off = FACTORIES[core](net)
        off.record_trajectories = False
        recorded = 0

        def same_but_trajectories(i_on, i_off) -> None:
            nonlocal recorded
            assert not i_off.direct and not i_off.indirect_changed
            recorded += len(i_on.direct) + len(i_on.indirect_changed)
            i_off.direct, i_off.indirect_changed = i_on.direct, i_on.indirect_changed
            assert _impact_key(i_on) == _impact_key(i_off)

        _drive_injected(on, off, mode, same_but_trajectories, steps=80, seed=seed)
        assert manager_state_digest(on) == manager_state_digest(off)
        assert recorded > 0

    @pytest.mark.parametrize("core", ["array", "reference"])
    def test_simulator_skips_them_until_something_reads_them(self, monkeypatch, core):
        _on_core(monkeypatch, core)

        def run(**config):
            sim = _simulate(**config)
            flags = []
            churn = sim._churn_event

            def spy(next_is_arrival):
                flags.append(sim.manager.record_trajectories)
                return churn(next_is_arrival)

            sim._churn_event = spy
            return sim.run(), flags

        lean, lean_flags = run()
        full, full_flags = run(record_trace=True)
        # Warm-up builds trajectories only for the trace; measuring always.
        assert not any(lean_flags[:100]) and all(lean_flags[-100:])
        assert all(full_flags)
        assert _plain(lean.measurement) == _plain(full.measurement)
        assert _plain(lean.params) == _plain(full.params)
        assert _result_key(lean) == _result_key(full)


class TestRecordsAreSnapshots:
    """The array core hands out records that neither later events nor
    the caller's edits can tie back to its state.  (The reference hands
    out its own live records; see its class docstring.)"""

    def test_array_records_are_snapshots(self):
        m = make_manager(grid_network(3, 3, capacity=500.0))
        qos = ConnectionQoS(
            performance=ElasticQoS(b_min=100.0, b_max=400.0, increment=100.0),
            dependability=DependabilityQoS(num_backups=1),
        )
        first, _ = m.request_connection(0, 8, qos)
        assert first is not None and first.level == 3
        kept = m.connection(first.conn_id)
        digest = manager_state_digest(m)
        first.level = 0
        first.primary_links.clear()
        first.backup_path.append(99)
        kept.primary_path.clear()
        assert manager_state_digest(m) == digest
        fresh = m.connection(first.conn_id)
        assert fresh.level == 3 and fresh.primary_links and 99 not in fresh.backup_path
        # A later arrival on the same route squeezes the first; the
        # record read before it keeps the old level.
        m.request_connection(0, 8, qos)
        assert fresh.level == 3 and m.connection(first.conn_id).level < 3
