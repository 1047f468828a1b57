"""QoS contracts: traffic specs, elastic performance QoS, dependability QoS."""

from __future__ import annotations

from repro.qos.spec import (
    ConnectionQoS,
    DependabilityQoS,
    ElasticQoS,
    TrafficSpec,
    levels_between,
    single_value_qos,
)

__all__ = [
    "ConnectionQoS",
    "DependabilityQoS",
    "ElasticQoS",
    "TrafficSpec",
    "levels_between",
    "single_value_qos",
]
