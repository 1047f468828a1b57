"""Adaptation policies: how spare resources are divided among channels.

Section 2.2 of the paper describes two published adaptation schemes for
range QoS — the *max-utility* scheme (extra resources go to whichever
channel yields the most utility, which "allows a real-time channel to
monopolize all the extra resources") and the *coefficient* scheme
(extras are allocated proportionally to each channel's coefficient).
The paper's own experiments use equal utilities "for fair distribution
of resources".

All three are implemented as priority rules driving one increment-at-a-
time water-filling (:func:`repro.reference.fill`, vectorized in
:mod:`repro.elastic.array_fill`): the engine
repeatedly grants one increment Δ to the *lowest-priority-value*
eligible channel until no channel can be raised.  A policy therefore
only has to rank channels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

from repro.qos.spec import ElasticQoS


class AdaptationPolicy(ABC):
    """Ranks channels competing for the next bandwidth increment."""

    #: Short name used in benchmark tables and reports.
    name: str = "abstract"

    @abstractmethod
    def priority(self, conn_id: int, level: int, qos: ElasticQoS) -> Tuple:
        """Sort key of a channel; the smallest key receives the next Δ.

        Args:
            conn_id: Connection identifier (include it in the key to
                make every ranking total and deterministic).
            level: The channel's current elastic level (0 = minimum).
            qos: The channel's elastic QoS contract (utility lives here).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class EqualShare(AdaptationPolicy):
    """Round-robin fairness: always raise the lowest channel first.

    With equal utilities this reproduces the paper's "utilities of all
    connections are the same for fair distribution of resources" setup:
    the water level rises uniformly until links saturate.
    """

    name = "equal-share"

    def priority(self, conn_id: int, level: int, qos: ElasticQoS) -> Tuple:
        return (level, conn_id)


class UtilityProportional(AdaptationPolicy):
    """The coefficient scheme: extras proportional to channel utility.

    The channel whose *increments per unit of utility* is smallest is
    served next, so in the long run channel ``c`` holds extras roughly
    proportional to ``utility(c)``.  Channels with zero utility never
    receive extras.
    """

    name = "utility-proportional"

    def priority(self, conn_id: int, level: int, qos: ElasticQoS) -> Tuple:
        if qos.utility <= 0.0:
            return (float("inf"), -0.0, conn_id)
        return (level / qos.utility, -qos.utility, conn_id)


class MaxUtility(AdaptationPolicy):
    """The max-utility scheme: highest-utility channel takes everything.

    The highest-utility channel is raised repeatedly until it reaches
    its maximum or a bottleneck blocks it; only then does the next
    channel receive anything.  This is the monopolising behaviour the
    paper warns about, kept as a baseline for the policy ablation.
    """

    name = "max-utility"

    def priority(self, conn_id: int, level: int, qos: ElasticQoS) -> Tuple:
        return (-qos.utility, conn_id)


def policy_by_name(name: str) -> AdaptationPolicy:
    """Look up a policy instance by its short name (benchmark CLI glue)."""
    policies = {
        EqualShare.name: EqualShare,
        UtilityProportional.name: UtilityProportional,
        MaxUtility.name: MaxUtility,
    }
    try:
        return policies[name]()
    except KeyError:
        raise ValueError(
            f"unknown adaptation policy {name!r}; choose from {sorted(policies)}"
        ) from None
