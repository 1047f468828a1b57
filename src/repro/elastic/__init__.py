"""Elastic QoS run-time: adaptation policies (the fill is in ``array_fill``)."""

from __future__ import annotations

from repro.elastic.policies import (
    AdaptationPolicy,
    EqualShare,
    MaxUtility,
    UtilityProportional,
    policy_by_name,
)

__all__ = [
    "AdaptationPolicy",
    "EqualShare",
    "MaxUtility",
    "UtilityProportional",
    "policy_by_name",
]
