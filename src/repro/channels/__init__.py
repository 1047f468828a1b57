"""DR-connection records and the central network manager.

:class:`ArrayNetworkManager` is the struct-of-arrays core (NumPy
columns, integer handles), built by :func:`make_manager`.  The plain
reference it is checked against lives in :mod:`repro.reference`.
"""

from __future__ import annotations

from typing import Any

from repro.channels.array_manager import ArrayNetworkManager
from repro.channels.digest import AnyManager, manager_state_digest, manager_state_summary
from repro.channels.records import (
    ROUTING_ENGINES,
    ConnectionState,
    DRConnection,
    EventImpact,
    EventKind,
    ManagerStats,
)
from repro.topology.graph import Network


def make_manager(topology: Network, **kwargs: Any) -> ArrayNetworkManager:
    """Build the network manager over ``topology``.

    Args:
        topology: The network to manage.
        **kwargs: Forwarded to the manager constructor (``policy``,
            ``routing``, ``flood_hop_bound``, ``multiplex_backups``,
            ``reestablish_backups``, ``route_cache_probe``).
    """
    return ArrayNetworkManager(topology, **kwargs)


__all__ = [
    "ROUTING_ENGINES",
    "AnyManager",
    "ArrayNetworkManager",
    "make_manager",
    "manager_state_digest",
    "manager_state_summary",
    "ConnectionState",
    "DRConnection",
    "EventImpact",
    "EventKind",
    "ManagerStats",
]
