"""Pluggable fault injectors beyond the paper's single-link model.

The paper's experiments use independent Poisson single-link failures
(§4).  This module keeps that as the default :class:`FaultInjector` and
adds three richer processes for stress-testing the recovery machinery:

* :class:`NodeFailureInjector` — a failure event takes out a whole
  node: every alive incident link fails atomically, so primaries *and*
  backups through that node die in the same instant;
* :class:`CorrelatedBurstInjector` — each failure event fails a burst
  of ``k`` links, grown from a uniformly chosen seed link either by a
  shared-node kernel (cluster of links touching the burst so far) or a
  geographic distance kernel (``exp(-d/scale)`` over link midpoints, a
  Waxman-style locality model);
* :class:`MarkovOnOffInjector` — per-link on/off processes with
  heterogeneous rates: each link gets a lognormal rate multiplier, and
  the injector keeps the alive/failed multiplier sums incrementally so
  the per-event rate computation stays O(1).

Every injector draws its random picks from the workload's generator, so
one seed still fully determines a run, and all of them select from the
state's incrementally-maintained sorted alive/failed link lists — no
per-event rescan of the link table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.channels.records import EventImpact
from repro.errors import FaultInjectionError
from repro.topology.graph import LinkId, Network

if TYPE_CHECKING:  # imports would be circular at runtime (sim -> faults)
    from repro.channels.array_manager import ArrayNetworkState
    from repro.sim.workload import Workload

#: Supported failure processes.
FAULT_MODES = ("single", "node", "burst", "markov")
#: Supported burst-growth kernels.
BURST_KERNELS = ("shared-node", "distance")


@dataclass(frozen=True)
class FaultConfig:
    """Declarative description of one fault-injection setup.

    Attributes:
        mode: Failure process — ``single`` (the paper's model),
            ``node``, ``burst`` or ``markov``.
        burst_size: Links failed per event in ``burst`` mode (the burst
            may come up short when the candidate pool dries up).
        burst_kernel: How a burst grows from its seed link:
            ``shared-node`` (links touching the cluster) or ``distance``
            (geographic ``exp(-d/distance_scale)`` kernel over link
            midpoints; requires node positions).
        distance_scale: Length scale of the distance kernel.
        activation_fault_prob: Probability that a backup *activation*
            itself fails, dropping the connection even though the backup
            path was healthy (models signalling/switchover faults).
        rate_spread: σ of the lognormal per-link rate multipliers in
            ``markov`` mode (0 = homogeneous rates).
        rate_seed: Seed for drawing the multipliers, independent of the
            simulation seed so the rate landscape can be held fixed
            across replications.
    """

    mode: str = "single"
    burst_size: int = 2
    burst_kernel: str = "shared-node"
    distance_scale: float = 0.25
    activation_fault_prob: float = 0.0
    rate_spread: float = 0.0
    rate_seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise FaultInjectionError(
                f"unknown fault mode {self.mode!r}; choose from {FAULT_MODES}"
            )
        if self.burst_kernel not in BURST_KERNELS:
            raise FaultInjectionError(
                f"unknown burst kernel {self.burst_kernel!r}; "
                f"choose from {BURST_KERNELS}"
            )
        if self.mode == "burst" and self.burst_size < 1:
            raise FaultInjectionError(
                f"burst_size must be positive, got {self.burst_size}"
            )
        if self.distance_scale <= 0:
            raise FaultInjectionError(
                f"distance_scale must be positive, got {self.distance_scale}"
            )
        if not 0.0 <= self.activation_fault_prob <= 1.0:
            raise FaultInjectionError(
                "activation_fault_prob must be in [0, 1], "
                f"got {self.activation_fault_prob}"
            )
        if self.rate_spread < 0:
            raise FaultInjectionError(
                f"rate_spread must be non-negative, got {self.rate_spread}"
            )


class FaultInjector:
    """The paper's failure process: independent single-link failures.

    Also the base class for the richer injectors; the simulator talks
    only to this interface (category rates + one injection per event).
    """

    def __init__(self, topology: Network, workload: Workload) -> None:
        self.topology = topology
        self.workload = workload

    # -- category rates -------------------------------------------------
    def failure_rate(self, state: ArrayNetworkState) -> float:
        """Total failure-event rate given the current state (γ·alive)."""
        return self.workload.config.link_failure_rate * state.num_alive

    def repair_rate(self, state: ArrayNetworkState) -> float:
        """Total repair-event rate given the current state (ρ·failed)."""
        return self.workload.config.repair_rate * state.num_failed

    # -- event injection ------------------------------------------------
    def inject_failure(self, manager) -> Optional[EventImpact]:
        """Apply one failure event; ``None`` when nothing can fail."""
        alive = manager.state.alive_link_list()
        if not alive:
            return None
        return manager.fail_link(self.workload.pick_failure(alive))

    def inject_repair(self, manager) -> Optional[EventImpact]:
        """Apply one repair event; ``None`` when nothing is failed."""
        failed = manager.state.failed_link_list()
        if not failed:
            return None
        return manager.repair_link(self.workload.pick_repair(failed))


class NodeFailureInjector(FaultInjector):
    """Each failure event takes out one whole node.

    The victim is uniform over nodes that still have at least one alive
    incident link; all those links fail atomically, so a connection
    whose primary and backup both touch the node is dropped in one event
    (the double-failure regime).  The failure *pressure* still scales
    with the number of alive links (γ·alive), matching the single-link
    model's event frequency for comparable γ.
    """

    def inject_failure(self, manager) -> Optional[EventImpact]:
        state = manager.state
        candidates = [
            node
            for node in self.topology.nodes()
            if any(
                not state.is_failed(link.id)
                for link in self.topology.incident_links(node)
            )
        ]
        if not candidates:
            return None
        victim = candidates[int(self.workload.rng.integers(len(candidates)))]
        return manager.fail_node(victim)


class CorrelatedBurstInjector(FaultInjector):
    """Each failure event fails a correlated burst of links.

    The burst starts at a uniformly chosen alive seed link and grows to
    ``burst_size`` links via the configured kernel.  Bursts shorter than
    ``burst_size`` happen when the candidate pool dries up (e.g. the
    seed's cluster is already mostly failed) and are applied as-is.
    """

    def __init__(
        self, topology: Network, workload: Workload, config: FaultConfig
    ) -> None:
        super().__init__(topology, workload)
        self.config = config
        self._midpoints: Dict[LinkId, Tuple[float, float]] = {}
        if config.burst_kernel == "distance":
            for lid in topology.link_ids():
                pu = topology.position(lid[0])
                pv = topology.position(lid[1])
                if pu is None or pv is None:
                    raise FaultInjectionError(
                        "distance burst kernel needs node positions; "
                        f"link {lid} has unpositioned endpoints"
                    )
                self._midpoints[lid] = ((pu[0] + pv[0]) / 2.0, (pu[1] + pv[1]) / 2.0)

    def inject_failure(self, manager) -> Optional[EventImpact]:
        state = manager.state
        alive = state.alive_link_list()
        if not alive:
            return None
        seed = self.workload.pick_failure(alive)
        burst: List[LinkId] = [seed]
        chosen: Set[LinkId] = {seed}
        while len(burst) < self.config.burst_size:
            nxt = self._grow(state, burst, chosen)
            if nxt is None:
                break
            burst.append(nxt)
            chosen.add(nxt)
        return manager.fail_links(burst)

    def _grow(
        self, state: ArrayNetworkState, burst: Sequence[LinkId], chosen: Set[LinkId]
    ) -> Optional[LinkId]:
        """Pick the next burst member, or ``None`` when the pool is dry."""
        if self.config.burst_kernel == "shared-node":
            cluster_nodes = {node for lid in burst for node in lid}
            candidates = sorted(
                {
                    link.id
                    for node in cluster_nodes
                    for link in self.topology.incident_links(node)
                    if link.id not in chosen and not state.is_failed(link.id)
                }
            )
            if not candidates:
                return None
            return candidates[int(self.workload.rng.integers(len(candidates)))]
        # distance kernel: exp(-d/scale) weight from the seed's midpoint.
        seed_mid = self._midpoints[burst[0]]
        scale = self.config.distance_scale
        candidates = [lid for lid in state.alive_link_list() if lid not in chosen]
        if not candidates:
            return None
        weights = []
        for lid in candidates:
            mid = self._midpoints[lid]
            d = math.hypot(mid[0] - seed_mid[0], mid[1] - seed_mid[1])
            weights.append(math.exp(-d / scale))
        total = sum(weights)
        draw = float(self.workload.rng.random()) * total
        acc = 0.0
        for lid, weight in zip(candidates, weights):
            acc += weight
            if draw <= acc:
                return lid
        return candidates[-1]  # numerical edge


class MarkovOnOffInjector(FaultInjector):
    """Per-link Markov on/off failure processes with heterogeneous rates.

    Every link gets a multiplier ``m_l`` drawn once (lognormal with
    unit mean, σ = ``rate_spread``) from ``rate_seed``; its failure rate
    is ``γ·m_l`` while alive and its repair rate ``ρ·m_l`` while failed,
    so failure-prone links also cycle faster — a classic on/off link
    model.  The alive/failed multiplier sums are maintained
    incrementally, keeping the per-event rate computation O(1).
    """

    def __init__(
        self, topology: Network, workload: Workload, config: FaultConfig
    ) -> None:
        super().__init__(topology, workload)
        self.config = config
        rng = np.random.default_rng(config.rate_seed)
        sigma = config.rate_spread
        self.multipliers: Dict[LinkId, float] = {}
        for lid in topology.link_ids():
            if sigma > 0:
                # lognormal with E[m] = 1: mu = -sigma^2 / 2.
                mult = float(np.exp(rng.normal(-0.5 * sigma * sigma, sigma)))
            else:
                mult = 1.0
            self.multipliers[lid] = mult
        self._alive_weight = sum(self.multipliers.values())
        self._failed_weight = 0.0

    def failure_rate(self, state: ArrayNetworkState) -> float:
        return self.workload.config.link_failure_rate * self._alive_weight

    def repair_rate(self, state: ArrayNetworkState) -> float:
        return self.workload.config.repair_rate * self._failed_weight

    def _weighted_pick(self, pool: Sequence[LinkId], total: float) -> LinkId:
        draw = float(self.workload.rng.random()) * total
        acc = 0.0
        for lid in pool:
            acc += self.multipliers[lid]
            if draw <= acc:
                return lid
        return pool[-1]  # numerical edge

    def inject_failure(self, manager) -> Optional[EventImpact]:
        alive = manager.state.alive_link_list()
        if not alive:
            return None
        lid = self._weighted_pick(alive, self._alive_weight)
        impact = manager.fail_link(lid)
        mult = self.multipliers[lid]
        self._alive_weight -= mult
        self._failed_weight += mult
        return impact

    def inject_repair(self, manager) -> Optional[EventImpact]:
        failed = manager.state.failed_link_list()
        if not failed:
            return None
        lid = self._weighted_pick(failed, self._failed_weight)
        impact = manager.repair_link(lid)
        mult = self.multipliers[lid]
        self._failed_weight -= mult
        self._alive_weight += mult
        return impact


def build_injector(
    config: Optional[FaultConfig], topology: Network, workload: Workload
) -> FaultInjector:
    """Instantiate the injector described by ``config``.

    ``None`` (and mode ``single``) yield the paper's single-link
    injector, which reproduces the legacy simulator loop bit for bit.
    """
    if config is None or config.mode == "single":
        return FaultInjector(topology, workload)
    if config.mode == "node":
        return NodeFailureInjector(topology, workload)
    if config.mode == "burst":
        return CorrelatedBurstInjector(topology, workload, config)
    if config.mode == "markov":
        return MarkovOnOffInjector(topology, workload, config)
    raise FaultInjectionError(f"unknown fault mode {config.mode!r}")
