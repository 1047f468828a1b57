"""Bitwise state digest of a network manager.

The crash-recovery story of :mod:`repro.service` needs a compact,
core-agnostic answer to "are these two managers in *exactly* the same
state?" — comparable across processes (a recovered service vs. a fresh
replay) without pickling either manager.  :func:`manager_state_summary`
renders the complete observable state — every live connection's level,
routes and bandwidth, every link's four reservation floats and failure
flag, and the lifetime stats — with floats as ``float.hex()`` strings
so the rendering is exact (no decimal rounding, no ``repr`` drift), and
:func:`manager_state_digest` hashes that canonical JSON with SHA-256.

It reads a manager only through the calls both managers answer —
``live_connection_ids``, ``connection`` (a
:class:`~repro.channels.records.DRConnection` record) and
``link_totals`` — so one rendering serves either.  The twin-equivalence
suite (``tests/channels/test_twin_managers.py``) compares these
summaries, so this is the one list of fields the two managers must
agree on.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Dict, Union

from repro.channels.array_manager import ArrayNetworkManager

if TYPE_CHECKING:
    from repro.reference import ReferenceManager

#: The production core or the reference (:mod:`repro.reference`).
AnyManager = Union[ArrayNetworkManager, "ReferenceManager"]


def _hexfloat(value: float) -> str:
    return float(value).hex()


def manager_state_summary(manager: AnyManager) -> Dict[str, Any]:
    """JSON-able, bitwise-exact rendering of a manager's full state.

    Reads one connection record at a time, in id order, so the rendering
    is the only O(live) structure it holds.
    """
    conns: Dict[str, Any] = {}
    for cid in manager.live_connection_ids():
        c = manager.connection(cid)
        conns[str(cid)] = {
            "level": c.level,
            "state": c.state.name,
            "on_backup": c.on_backup,
            "primary_path": list(c.primary_path),
            # Link ids stay tuples, which JSON renders as arrays all the
            # same; a list copy of each cost 0.6 MiB at 1 200 live.
            "primary_links": list(c.primary_links),
            "backup_links": None if not c.backup_links else list(c.backup_links),
            "bandwidth": _hexfloat(c.bandwidth),
            "backup_overlap": c.backup_overlap,
        }
    links: Dict[str, Any] = {}
    for lid in sorted(manager.topology.link_ids()):
        *floats, failed = manager.link_totals(lid)
        links[str(list(lid))] = [_hexfloat(x) for x in floats] + [failed]
    return {
        "connections": conns,
        "links": links,
        "stats": vars(manager.stats).copy(),
        "average_live_bandwidth": _hexfloat(manager.average_live_bandwidth()),
        "level_histogram": manager.level_histogram(8),
    }


def summary_digest(summary: Dict[str, Any]) -> str:
    """SHA-256 hex digest of a :func:`manager_state_summary` rendering.

    Split out from :func:`manager_state_digest` so chaos/recovery
    tooling can hash a summary captured earlier (or dump the summary
    alongside the digest to diff two mismatching states field by
    field) without holding a live manager.
    """
    canonical = json.dumps(summary, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def manager_state_digest(manager: AnyManager) -> str:
    """SHA-256 hex digest of :func:`manager_state_summary`.

    Equal digests certify bitwise-identical observable state across
    cores and across processes.
    """
    return summary_digest(manager_state_summary(manager))
