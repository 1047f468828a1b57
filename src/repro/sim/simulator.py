"""The end-to-end elastic-QoS DR-connection simulator.

Ties together topology, network manager, workload, measurement and
parameter estimation, reproducing the paper's experimental procedure
(§4): establish an initial population of DR-connections, then "generate
and terminate randomly a certain number of DR-connections while
maintaining the number of DR-connections in the network close to the
initial number", measuring the average reserved bandwidth and the
transition statistics the Markov model needs.

Population setup intentionally grants no elastic extras while the
initial connections are admitted and then runs a single global
water-fill: this is both faster and closer to the paper's procedure
(probabilities are measured "after setting up a certain number of
DR-connections"); the subsequent warm-up churn erases any residual
difference from fully sequential establishment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.channels import make_manager
from repro.channels.records import ManagerStats
from repro.elastic.policies import AdaptationPolicy
from repro.errors import SimulationError
from repro.faults.audit import AuditPolicy, Auditor
from repro.faults.injectors import FaultConfig, build_injector
from repro.markov.parameters import MarkovParameters
from repro.qos.spec import ConnectionQoS
from repro.sim.engine import EventScheduler
from repro.sim.estimation import TransitionEstimator
from repro.sim.stats import Measurement, MeasurementResult
from repro.sim.trace import TraceRecorder
from repro.sim.workload import QoSFactory, Workload, WorkloadConfig, constant_qos
from repro.topology.graph import Network

#: Setup admission modes: try exactly N requests, or insist on N accepted.
SETUP_MODES = ("offered", "accepted")


@dataclass
class SimulationConfig:
    """Everything one simulation run needs besides the topology and seed.

    Attributes:
        qos: QoS contract template used for every request (pass
            ``qos_factory`` instead for heterogeneous workloads).
        offered_connections: Initial population size parameter; its
            meaning depends on ``setup_mode`` (Table 1 counts *offered*
            set-up attempts — "the number of connections which have been
            tried to be set up").
        setup_mode: ``offered`` (try exactly N requests) or ``accepted``
            (request until N are admitted, bounded by 50 N attempts).
        workload: Stochastic churn/failure parameters.
        warmup_events: Churn events discarded before measuring.
        measure_events: Churn events measured.
        sample_interval: Every k-th arrival gets the expensive exact
            indirect-chaining classification (Ps / B estimation) and the
            occupancy histogram sample.
        routing: ``dijkstra`` or ``flooding``.
        policy: Adaptation policy; ``None`` means equal share (paper).
        qos_factory: Optional per-request QoS factory.
        record_trace: Attach a :class:`~repro.sim.trace.TraceRecorder`
            covering every churn/failure event (warm-up included) to the
            result.
        faults: Optional fault-injection setup (failure process +
            backup-activation faults); ``None`` reproduces the paper's
            single-link model bit for bit.
        audit: Optional structured audit policy (periodic and/or
            after-every-failure invariant checks raising
            :class:`~repro.errors.AuditError` with an event tail).
    """

    qos: ConnectionQoS
    offered_connections: int
    setup_mode: str = "offered"
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    warmup_events: int = 500
    measure_events: int = 2000
    sample_interval: int = 10
    routing: str = "dijkstra"
    policy: Optional[AdaptationPolicy] = None
    qos_factory: Optional[QoSFactory] = None
    record_trace: bool = False
    faults: Optional[FaultConfig] = None
    audit: Optional[AuditPolicy] = None

    def __post_init__(self) -> None:
        if self.offered_connections < 0:
            raise SimulationError("offered_connections must be non-negative")
        if self.setup_mode not in SETUP_MODES:
            raise SimulationError(
                f"unknown setup mode {self.setup_mode!r}; choose from {SETUP_MODES}"
            )
        if self.warmup_events < 0 or self.measure_events < 1:
            raise SimulationError("need warmup_events >= 0 and measure_events >= 1")


@dataclass
class SimulationResult:
    """Everything a run produces."""

    measurement: MeasurementResult
    params: MarkovParameters
    manager_stats: ManagerStats
    initial_population: int
    offered: int
    events: int
    end_time: float
    topology_nodes: int
    topology_links: int
    trace: Optional[TraceRecorder] = None
    #: Number of invariant audits the run's :class:`AuditPolicy` executed
    #: (0 when auditing was off — a passed run with a nonzero count is
    #: positive evidence the recovery paths kept the books consistent).
    audit_checks: int = 0

    @property
    def average_bandwidth(self) -> float:
        """Time-weighted mean bandwidth per live connection (Kb/s)."""
        return self.measurement.average_bandwidth

    @property
    def level_occupancy(self) -> np.ndarray:
        """Empirical stationary level distribution (simulation π)."""
        return self.measurement.level_occupancy


class ElasticQoSSimulator:
    """One reproducible simulation run over a given topology."""

    def __init__(
        self,
        topology: Network,
        config: SimulationConfig,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.manager = make_manager(topology, policy=config.policy, routing=config.routing)
        factory = config.qos_factory or constant_qos(config.qos)
        self.workload = Workload(topology, factory, config.workload, self.rng)
        self.scheduler = EventScheduler()

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def establish_initial_population(self) -> int:
        """Admit the initial DR-connections; returns how many are live."""
        cfg = self.config
        manager = self.manager
        manager.auto_redistribute = False
        manager.record_trajectories = False  # set-up impacts are discarded
        try:
            if cfg.setup_mode == "offered":
                for _ in range(cfg.offered_connections):
                    src, dst, qos = self.workload.next_request()
                    manager.request_connection(src, dst, qos)
            else:
                attempts = 0
                limit = 50 * max(1, cfg.offered_connections)
                while manager.num_live < cfg.offered_connections and attempts < limit:
                    src, dst, qos = self.workload.next_request()
                    manager.request_connection(src, dst, qos)
                    attempts += 1
                if manager.num_live < cfg.offered_connections:
                    raise SimulationError(
                        f"could not admit {cfg.offered_connections} connections "
                        f"in {limit} attempts (admitted {manager.num_live})"
                    )
        finally:
            manager.auto_redistribute = True
            manager.record_trajectories = True
        manager.redistribute_all()
        return manager.num_live

    def run(self) -> SimulationResult:
        """Execute setup, warm-up and measurement; return the results."""
        cfg = self.config
        manager = self.manager
        initial = self.establish_initial_population()
        num_levels = cfg.qos.performance.num_levels
        gamma_network = cfg.workload.link_failure_rate * self.topology.num_links
        estimator = TransitionEstimator(
            num_levels=num_levels,
            arrival_rate=cfg.workload.arrival_rate,
            termination_rate=cfg.workload.termination_rate,
            failure_rate=gamma_network,
            sample_interval=cfg.sample_interval,
        )
        measurement = Measurement(num_levels, occupancy_interval=cfg.sample_interval)
        trace = TraceRecorder() if cfg.record_trace else None

        injector = build_injector(cfg.faults, self.topology, self.workload)
        if cfg.faults is not None and cfg.faults.activation_fault_prob > 0.0:
            manager.set_activation_faults(cfg.faults.activation_fault_prob, self.rng)
        auditor = (
            Auditor(cfg.audit, manager)
            if cfg.audit is not None and cfg.audit.enabled
            else None
        )

        total_events = cfg.warmup_events + cfg.measure_events
        next_is_arrival = True
        measuring = False
        state = manager.state
        # Only the estimator (while measuring), the trace and the audit
        # trail read level trajectories; warm-up with neither attached
        # skips building them.
        manager.record_trajectories = trace is not None or auditor is not None

        for event_index in range(total_events):
            # The injector owns the failure/repair rates; the default
            # single-link injector returns exactly γ·alive and ρ·failed,
            # so disabled fault injection reproduces the legacy rates
            # (and rng stream) bit for bit.
            rates = self.workload.event_rates(
                state.num_alive, state.num_failed, manager.num_live
            )
            rates["failure"] = injector.failure_rate(state)
            rates["repair"] = injector.repair_rate(state)
            delay, category = self.workload.draw_from_rates(rates)
            self.scheduler.schedule_after(delay, _noop)
            self.scheduler.step()
            now = self.scheduler.now
            manager.now = now

            if not measuring and event_index >= cfg.warmup_events:
                measuring = True
                manager.record_trajectories = True
                measurement.begin(now, manager.average_live_bandwidth(), manager.num_live)
            if measuring:
                hist = (
                    manager.level_histogram(num_levels)
                    if measurement.wants_occupancy
                    else None
                )
                measurement.advance(
                    now, manager.average_live_bandwidth(), manager.num_live, hist
                )

            pre_live = manager.num_live
            impact = None
            if category == "churn":
                impact, next_is_arrival = self._churn_event(next_is_arrival)
            elif category == "failure":
                impact = injector.inject_failure(manager)
            elif category == "repair":
                impact = injector.inject_repair(manager)

            if measuring and impact is not None:
                estimator.observe(impact, manager, pre_live)
            if trace is not None and impact is not None:
                trace.record(impact, manager.num_live, manager.average_live_bandwidth())
            if auditor is not None:
                auditor.observe(event_index, category, impact)

        # Close the final interval so the last state is weighted too.
        if measuring:
            measurement.advance(
                self.scheduler.now, manager.average_live_bandwidth(), manager.num_live
            )

        return SimulationResult(
            measurement=measurement.result(),
            params=estimator.estimate(),
            manager_stats=manager.stats,
            initial_population=initial,
            offered=cfg.offered_connections,
            events=total_events,
            end_time=self.scheduler.now,
            topology_nodes=self.topology.num_nodes,
            topology_links=self.topology.num_links,
            trace=trace,
            audit_checks=auditor.checks_run if auditor is not None else 0,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _churn_event(self, next_is_arrival: bool):
        """One churn event honouring balanced alternation."""
        manager = self.manager
        cfg = self.config.workload
        if not cfg.balanced:
            lam, mu = cfg.arrival_rate, cfg.termination_rate
            total = lam + (mu if manager.num_live else 0.0)
            arrival = bool(self.rng.random() < lam / total) if total > 0 else True
        else:
            arrival = next_is_arrival or manager.num_live == 0
        if arrival:
            src, dst, qos = self.workload.next_request()
            _conn, impact = manager.request_connection(src, dst, qos)
            # Balanced mode owes a termination only after an acceptance.
            return impact, not (cfg.balanced and impact.accepted)
        victim = self.workload.pick_termination(manager.live_connection_ids())
        impact = manager.terminate_connection(victim)
        return impact, True


def _noop() -> None:
    """Placeholder action: the simulator only uses the engine's clock."""
