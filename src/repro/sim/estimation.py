"""Estimating the Markov-model parameters from simulation events.

Section 3.3: "since the network considered here is a random
point-to-point network like the Internet, it is almost impossible to
find closed-form expressions for these transition probabilities ...
we derived them using realistic simulations."  This module turns the
:class:`~repro.channels.records.EventImpact` stream produced by the
network manager into :class:`~repro.markov.parameters.MarkovParameters`:

* ``A`` — level transitions of directly-chained channels on arrivals
  (complete per event: the manager reports every directly-chained
  channel, including those that did not move);
* ``T`` — level transitions of directly-chained channels on
  terminations (complete per event);
* ``F`` — level transitions of channels affected by failures
  (extension; the paper reuses ``A`` for failures);
* ``B`` and ``Ps`` — indirect-chaining requires walking two hops of the
  channel-overlap relation, which is too expensive per event, so it is
  computed exactly on every ``sample_interval``-th arrival (both the
  moved and unmoved indirect channels, keeping the estimate unbiased);
* ``Pf`` — fraction of pre-existing channels directly chained with the
  event channel, averaged over all arrival/termination events.
"""

from __future__ import annotations

from typing import Collection, Optional, Set, Tuple

import numpy as np

from repro.channels import AnyManager
from repro.channels.records import EventImpact, EventKind
from repro.errors import EstimationError
from repro.markov.parameters import MarkovParameters


class TransitionEstimator:
    """Accumulates event observations into Markov-model parameters."""

    def __init__(
        self,
        num_levels: int,
        arrival_rate: float,
        termination_rate: float,
        failure_rate: float = 0.0,
        sample_interval: int = 10,
    ) -> None:
        if num_levels < 1:
            raise EstimationError(f"need at least one level, got {num_levels}")
        if sample_interval < 1:
            raise EstimationError(f"sample interval must be >= 1, got {sample_interval}")
        self.num_levels = num_levels
        self.arrival_rate = arrival_rate
        self.termination_rate = termination_rate
        self.failure_rate = failure_rate
        self.sample_interval = sample_interval

        n = num_levels
        self.a_counts = np.zeros((n, n))
        self.b_counts = np.zeros((n, n))
        self.t_counts = np.zeros((n, n))
        self.f_counts = np.zeros((n, n))
        self._pf_weighted_sum = 0.0
        self._pf_events = 0
        self._ps_weighted_sum = 0.0
        self._ps_events = 0
        self._arrivals_seen = 0
        self._failures_seen = 0

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def observe(
        self, impact: EventImpact, manager: AnyManager, pre_event_live: int
    ) -> None:
        """Fold one event's impact into the running counts.

        Args:
            impact: The manager's report for the event.
            manager: The manager, in its *post-event* state (used only
                on sampled events, to enumerate indirect channels).
            pre_event_live: Number of live connections immediately
                before the event (the Pf/Ps denominator).
        """
        if impact.kind is EventKind.ARRIVAL:
            self._observe_arrival(impact, manager, pre_event_live)
        elif impact.kind is EventKind.TERMINATION:
            self._observe_counts(self.t_counts, impact.direct.values())
            self._observe_pf(impact, pre_event_live)
        elif impact.kind is EventKind.FAILURE:
            self._failures_seen += 1
            self._observe_counts(self.f_counts, impact.direct.values())
        # REPAIR events do not move channels (no fail-back).

    def _observe_arrival(
        self, impact: EventImpact, manager: AnyManager, pre_event_live: int
    ) -> None:
        self._arrivals_seen += 1
        self._observe_counts(self.a_counts, impact.direct.values())
        self._observe_pf(impact, pre_event_live)
        if not impact.accepted:
            return
        if self._arrivals_seen % self.sample_interval:
            return
        indirect = self._indirect_set(impact, manager)
        if pre_event_live > 0:
            self._ps_weighted_sum += len(indirect) / pre_event_live
            self._ps_events += 1
        changed = impact.indirect_changed
        pairs = [changed[cid] for cid in indirect if cid in changed]
        levels = manager.levels_of([cid for cid in indirect if cid not in changed])
        pairs.extend(zip(levels, levels))
        self._observe_counts(self.b_counts, pairs)

    def _observe_counts(
        self, counts: np.ndarray, pairs: Collection[Tuple[int, int]]
    ) -> None:
        """Count one event's ``(before, after)`` pairs in a single fold."""
        if not pairs:
            return
        # Heterogeneous workloads may contain contracts with more
        # levels than the template chain; clip into the top state.
        clipped = np.minimum(np.array(list(pairs), dtype=np.intp), self.num_levels - 1)
        np.add.at(counts, (clipped[:, 0], clipped[:, 1]), 1.0)

    def _observe_pf(self, impact: EventImpact, pre_event_live: int) -> None:
        if pre_event_live > 0:
            self._pf_weighted_sum += len(impact.direct) / pre_event_live
            self._pf_events += 1

    def _indirect_set(self, impact: EventImpact, manager: AnyManager) -> Set[int]:
        """Channels indirectly chained with the event channel.

        Two hops in the overlap relation: channels sharing a link with a
        directly-chained channel, minus the direct set and the event's
        own connection.  The manager walks its own per-link index, on
        whatever it keys that index by.
        """
        indirect = manager.ids_sharing_links(impact.direct)
        indirect.difference_update(impact.direct)
        if impact.conn_id is not None:
            indirect.discard(impact.conn_id)
        return indirect

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    @property
    def pf(self) -> float:
        """Current direct-chaining probability estimate."""
        if self._pf_events == 0:
            raise EstimationError("no events observed; Pf is undefined")
        return self._pf_weighted_sum / self._pf_events

    @property
    def ps(self) -> float:
        """Current indirect-chaining probability estimate."""
        if self._ps_events == 0:
            raise EstimationError("no sampled arrivals observed; Ps is undefined")
        return self._ps_weighted_sum / self._ps_events

    def estimate(self, use_failure_matrix: bool = False) -> MarkovParameters:
        """Produce validated :class:`MarkovParameters` from the counts.

        Rows with no observations become uniform rows so that unvisited
        levels cannot form spurious absorbing states (see
        :func:`_normalise`).

        Args:
            use_failure_matrix: Attach the separately measured failure
                matrix ``F`` (extension) instead of letting the model
                reuse ``A`` as the paper does.
        """
        if self._pf_events == 0 and self._failures_seen == 0:
            raise EstimationError("cannot estimate parameters before any events")
        pf = self.pf if self._pf_events else 0.0
        ps = self.ps if self._ps_events else 0.0
        # Numerical guard: the two chaining probabilities are estimated
        # from different samples and may overshoot 1.0 jointly.
        if pf + ps > 1.0:
            scale = 1.0 / (pf + ps)
            pf *= scale
            ps *= scale
        f_matrix: Optional[np.ndarray] = None
        if use_failure_matrix and self.f_counts.sum() > 0:
            f_matrix = _normalise(self.f_counts)
        return MarkovParameters(
            num_levels=self.num_levels,
            pf=pf,
            ps=ps,
            a=_normalise(self.a_counts),
            b=_normalise(self.b_counts),
            t=_normalise(self.t_counts),
            arrival_rate=self.arrival_rate,
            termination_rate=self.termination_rate,
            failure_rate=self.failure_rate,
            f=f_matrix,
            observations={
                "a": int(self.a_counts.sum()),
                "b": int(self.b_counts.sum()),
                "t": int(self.t_counts.sum()),
                "f": int(self.f_counts.sum()),
                "pf_events": self._pf_events,
                "ps_events": self._ps_events,
            },
        )


def _normalise(counts: np.ndarray) -> np.ndarray:
    """Row-normalise a count matrix; empty rows become uniform rows.

    A level the simulation never visited carries (near-)zero stationary
    mass, but an identity row would make it an *absorbing* state and
    break the chain into multiple closed classes (singular steady-state
    system).  A uniform row is the non-informative choice that keeps the
    chain irreducible while leaving unvisited states with no stationary
    mass unless transitions genuinely flow into them.
    """
    out = counts.astype(float).copy()
    n = out.shape[0]
    for i, row_sum in enumerate(out.sum(axis=1)):
        if row_sum > 0:
            out[i] /= row_sum
        else:
            out[i, :] = 1.0 / n
    return out
