"""Offline replay and crash recovery for the admission service.

A replay log (see :mod:`repro.service.wal`) plus the determinism
contract of :class:`~repro.service.engine.ServiceEngine` means any live
run is also an offline batch campaign:

* :func:`replay_log` rebuilds a fresh engine and applies every durable
  event in log order — exactly what the live run did inside its
  batches, so the resulting digest *is* the live service's state
  digest.
* :func:`recover_engine` is what a restarted service calls: replay the
  log, then re-attach an append-mode WAL writer and continue the
  sequence numbering where the durable history ends.  Events that were
  received but never durably logged before the crash are simply lost —
  their clients never got a response, which is the contract.
* :func:`reference_replay_digest` replays the same log on the
  reference manager (:class:`~repro.reference.ReferenceManager`) —
  the check behind ``repro replay --cross-check`` and the chaos soak's
  fourth digest.
* :func:`export_campaign` normalizes a live log into a standalone
  batch-campaign file: torn tails dropped, epoch/shutdown markers
  stripped, sequence numbers renumbered contiguously.  The output is
  itself a valid replay log, so the same tooling consumes it
  (``repro replay`` both replays and exports).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.parallel.checkpoint import atomic_write_text
from repro.reference import ReferenceManager
from repro.service.chaos import DiskFaultPlan
from repro.service.engine import EngineConfig, ServiceEngine
from repro.service.wal import (
    WAL_VERSION,
    ReplayLogReader,
    ReplayLogWriter,
    encode_record,
    request_to_record,
    topology_to_dict,
)


@dataclass
class ReplayResult:
    """Outcome of replaying one log into a fresh engine.

    Attributes:
        engine: The rebuilt engine, closed (no WAL attached, route memo
            dropped); its state stays readable.
        events_applied: Number of durable events replayed.
        accepted: How many of the replayed establish events were
            admitted (sanity signal for campaign conversion).
        clean_shutdown: Whether the log ended with a drain marker.
        torn_tail: Whether a partial final record was discarded.
        digest: Bitwise state digest after replay.
    """

    engine: ServiceEngine
    events_applied: int
    accepted: int
    clean_shutdown: bool
    torn_tail: bool
    digest: str


def _fresh_engine(reader: ReplayLogReader) -> ServiceEngine:
    return ServiceEngine(
        reader.topology, EngineConfig(manager_kwargs=reader.manager_kwargs), wal=None
    )


def replay_log(path: Union[str, Path]) -> ReplayResult:
    """Rebuild the manager state a log describes, from nothing.

    Applies events one per epoch; batch boundaries carry no state, so
    this is bitwise-identical to the live run's batched application.
    The result is a state at rest, to be audited rather than served:
    its engine is closed, i.e. the route memo the replay warmed (two
    thirds of the engine's memory) is dropped — before the digest is
    taken, whose rendering is as large as the state — so a replay peaks
    at the end of its event loop and a held result costs the state
    alone.  :func:`recover_engine`, which goes on serving, keeps the
    memo.
    """
    reader = ReplayLogReader(path)
    engine = _fresh_engine(reader)
    events, accepted = _apply_log(engine, reader)
    engine.close()
    return ReplayResult(
        engine=engine,
        events_applied=events,
        accepted=accepted,
        clean_shutdown=reader.clean_shutdown,
        torn_tail=reader.torn_tail,
        digest=engine.digest(),
    )


def _apply_log(engine: ServiceEngine, reader: ReplayLogReader) -> Tuple[int, int]:
    """Apply every durable event of ``reader`` to ``engine``; returns
    the event and accepted-establish counts."""
    events = 0
    accepted = 0
    for seq, request in reader.events():
        engine.seq = seq
        response = engine.apply_sequential(request)
        events += 1
        if request.op == "establish" and response.get("result", {}).get("accepted"):
            accepted += 1
    return events, accepted


def reference_replay_digest(path: Union[str, Path]) -> str:
    """Digest of the log replayed on the reference manager.

    The engine's manager is swapped for a
    :class:`~repro.reference.ReferenceManager` before any event is
    applied; the two are bitwise twins on the paper's dyadic bandwidth
    grid, so the result must equal :func:`replay_log`'s digest.
    """
    reader = ReplayLogReader(path)
    engine = _fresh_engine(reader)
    engine.manager = ReferenceManager(engine.net, **engine.config.manager_kwargs)
    engine.manager.record_trajectories = False
    _apply_log(engine, reader)
    return engine.digest()


def recover_engine(
    path: Union[str, Path],
    batch_max: Optional[int] = None,
    disk_faults: Optional[DiskFaultPlan] = None,
) -> ServiceEngine:
    """Recover a service engine from its WAL and keep appending to it.

    Replays every durable event, then attaches an append-mode writer to
    the same file (the header is only written on empty files, so
    durable history is preserved) and resumes sequence numbering after
    the last durable event.  A torn tail is truncated away first —
    appending after torn bytes would corrupt the next record.
    """
    reader = ReplayLogReader(path)
    if reader.torn_tail:
        # Pre-attach tear surgery: the writer re-verifies header and tail
        # when it opens the file, so this is the one sanctioned truncate
        # outside the WAL layer.
        os.truncate(path, reader.valid_bytes)  # repro-lint: disable=DUR003 — recovery-time tear removal; ReplayLogWriter re-verifies the tail on open
    engine = _fresh_engine(reader)
    _apply_log(engine, reader)
    if batch_max is not None:
        engine.config = EngineConfig(
            batch_max=batch_max, manager_kwargs=engine.config.manager_kwargs
        )
    engine.wal = ReplayLogWriter(
        path,
        engine.topology,
        manager_kwargs=engine.config.manager_kwargs,
        disk_faults=disk_faults,
    )
    return engine


def export_campaign(
    log_path: Union[str, Path], out_path: Union[str, Path]
) -> Dict[str, Any]:
    """Convert a live replay log into a normalized batch-campaign file.

    The output is a clean replay log: same header (modulo formatting),
    only event records, contiguous sequence numbers from 0, one
    trailing shutdown marker.  Returns a small summary dict.
    """
    reader = ReplayLogReader(log_path)
    header = {
        "type": "header",
        "version": WAL_VERSION,
        "topology": topology_to_dict(reader.topology),
        "manager": reader.manager_kwargs,
    }
    chunks: List[bytes] = [encode_record(header)]
    count = 0
    for _, request in reader.events():
        chunks.append(encode_record(request_to_record(count, request)))
        count += 1
    chunks.append(encode_record({"type": "shutdown", "seq_end": count - 1}))
    atomic_write_text(Path(out_path), b"".join(chunks).decode("utf-8"))
    return {
        "events": count,
        "source_clean_shutdown": reader.clean_shutdown,
        "source_torn_tail": reader.torn_tail,
        "out": str(out_path),
    }
