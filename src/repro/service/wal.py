"""Append-only write-ahead replay log for the admission service.

One JSON object per line, four record types:

``header``    First line.  Carries the log format version, the
              :class:`~repro.parallel.jobs.TopologySpec` the manager's
              network was built from, and the manager construction
              kwargs — everything recovery needs to rebuild an
              identical manager from nothing.  Logs written before
              there was one production core also carry a ``core``
              field; readers ignore it (the cores are bitwise twins).
``event``     One mutating request (establish/teardown/fail/repair) in
              wire form plus its global sequence number ``seq``.
              **Write-ahead**: the service appends and fsyncs an
              epoch's event records *before* applying any of them to
              the manager, so every applied event is durable.
``epoch``     Epoch barrier after a batch was applied; ``seq_end`` is
              the last applied sequence number.  Informational — it
              lets tooling see the live batching — but recovery does
              not need it: a batch is applied event by event, so
              replay just applies every durable event in order.
``shutdown``  Clean-drain marker; its absence means the previous run
              crashed (recovery works either way).

Every record carries a ``crc`` field — a CRC32 of the record's
canonical JSON without that field — so a damaged line is *detectably*
damaged: without it, a bit-flip in a terminated final line could decode
into a different valid record and silently rewrite history, which is
exactly what the tear-rule fuzz tests must be able to rule out.

Torn tails: a crash can leave a partial final line.
:class:`ReplayLogReader` tolerates exactly one undecodable *final*
record (discarded with a note); garbage earlier in the log is an
error, because it means durable history was corrupted, not torn.

Disk faults surface as :class:`WALWriteError`.  A failed append or
fsync marks the writer *dirty*: nothing further may be appended until
:meth:`ReplayLogWriter.repair` truncates the file back to the last
fsync-durable byte.  :meth:`ReplayLogWriter.probe` is repair plus a
test fsync — the primitive the server's degraded-mode probation loop
polls until the disk admits writes again.

This module does file I/O but no wall-clock reads and no randomness:
log content is a pure function of the request sequence, which is what
makes a live trace convertible into an offline campaign.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.parallel.jobs import TOPOLOGY_KINDS, TopologySpec
from repro.service.chaos import (
    DiskFaultPlan,
    FaultyWALFile,
    active_disk_plan,
    chaos_point,
)
from repro.service.protocol import Request, parse_request, qos_to_dict
from repro.topology.transit_stub import TransitStubParams

#: Log format version; bump on incompatible record changes.
#: v2: every record carries a ``crc`` integrity field.
WAL_VERSION = 2

#: Manager-constructor kwargs a header may carry (see ``make_manager``).
MANAGER_KWARG_KEYS = (
    "policy",
    "routing",
    "flood_hop_bound",
    "multiplex_backups",
    "reestablish_backups",
    "route_cache_probe",
)


# ----------------------------------------------------------------------
# topology spec (de)serialization
# ----------------------------------------------------------------------
def topology_to_dict(spec: TopologySpec) -> Dict[str, Any]:
    """JSON-able rendering of a topology recipe (drops ``None`` fields)."""
    data: Dict[str, Any] = {
        "kind": spec.kind,
        "capacity": spec.capacity,
        "seed": spec.seed,
        "nodes": spec.nodes,
    }
    if spec.edges is not None:
        data["edges"] = spec.edges
    if spec.cols is not None:
        data["cols"] = spec.cols
    if spec.tier is not None:
        data["tier"] = dataclasses.asdict(spec.tier)
    return data


def topology_from_dict(data: Dict[str, Any]) -> TopologySpec:
    """Rebuild a topology recipe from its wire form."""
    if not isinstance(data, dict):
        raise SimulationError(f"topology must be an object, got {type(data).__name__}")
    tier = None
    if data.get("tier") is not None:
        tier = TransitStubParams(**data["tier"])
    try:
        return TopologySpec(
            kind=str(data["kind"]),
            capacity=float(data["capacity"]),
            seed=int(data.get("seed", 0)),
            nodes=int(data.get("nodes", 0)),
            edges=None if data.get("edges") is None else int(data["edges"]),
            tier=tier,
            cols=None if data.get("cols") is None else int(data["cols"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SimulationError(f"invalid topology spec {data!r}: {exc}") from exc


def parse_topology_arg(text: str) -> TopologySpec:
    """Parse a CLI topology argument: ``kind:key=value,key=value,...``.

    Examples: ``grid:nodes=4,cols=4,capacity=1000`` or
    ``waxman:nodes=20,capacity=155,seed=7``.  Keys are the
    :class:`TopologySpec` fields except ``tier`` (transit-stub shapes
    keep their defaults from the CLI).
    """
    kind, _, rest = text.partition(":")
    if kind not in TOPOLOGY_KINDS:
        raise SimulationError(
            f"unknown topology kind {kind!r}; choose from {TOPOLOGY_KINDS}"
        )
    fields: Dict[str, Any] = {"kind": kind, "capacity": 1000.0, "seed": 0}
    int_keys = ("seed", "nodes", "edges", "cols")
    for part in filter(None, rest.split(",")):
        key, sep, value = part.partition("=")
        if not sep:
            raise SimulationError(f"topology option {part!r} is not key=value")
        if key == "capacity":
            fields[key] = float(value)
        elif key in int_keys:
            fields[key] = int(value)
        else:
            raise SimulationError(
                f"unknown topology option {key!r}; choose from "
                f"('capacity',) + {int_keys}"
            )
    return TopologySpec(**fields)


# ----------------------------------------------------------------------
# record shaping
# ----------------------------------------------------------------------
def request_to_record(seq: int, request: Request) -> Dict[str, Any]:
    """The ``event`` record for one mutating request."""
    record: Dict[str, Any] = {"type": "event", "seq": seq, "op": request.op}
    if request.op == "establish":
        assert request.qos is not None
        record["src"] = request.src
        record["dst"] = request.dst
        record["qos"] = qos_to_dict(request.qos)
    elif request.op == "teardown":
        record["conn_id"] = request.conn_id
    else:  # fail / repair
        record["link"] = list(request.link or ())
    return record


def request_from_record(record: Dict[str, Any]) -> Request:
    """Rebuild the request a logged ``event`` record describes."""
    return parse_request({"op": record["op"], "id": record["seq"], **{
        k: v for k, v in record.items() if k in ("src", "dst", "qos", "conn_id", "link")
    }})


class WALWriteError(SimulationError):
    """An append or fsync failed; the writer is dirty until repaired."""


class WALRecordError(ValueError):
    """A log line is not a valid CRC-verified record."""


def _canonical(record: Dict[str, Any]) -> bytes:
    return json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")


def encode_record(record: Dict[str, Any]) -> bytes:
    """One wire line: the record plus a CRC32 over its canonical JSON."""
    body = {k: v for k, v in record.items() if k != "crc"}
    crc = zlib.crc32(_canonical(body)) & 0xFFFFFFFF
    return _canonical({**body, "crc": crc}) + b"\n"


def decode_record(line: bytes) -> Dict[str, Any]:
    """Decode and CRC-verify one log line (without its newline)."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WALRecordError(f"undecodable record: {exc}") from exc
    if not isinstance(record, dict):
        raise WALRecordError(f"record is not an object: {record!r}")
    stored = record.pop("crc", None)
    if stored is None:
        raise WALRecordError("record has no crc field")
    actual = zlib.crc32(_canonical(record)) & 0xFFFFFFFF
    if stored != actual:
        raise WALRecordError(f"crc mismatch: stored {stored}, computed {actual}")
    return record


class ReplayLogWriter:
    """Durable appender with write-ahead semantics.

    Usage per epoch::

        writer.log_events(seq_and_requests)   # append + fsync, THEN
        ...apply the batch to the manager...
        writer.log_epoch(last_seq)            # barrier marker

    The epoch marker itself is best-effort (flushed with the next batch
    or on close, swallowed entirely if the disk is faulting); losing it
    is harmless because recovery replays every durable event regardless
    of markers.

    Failure model: any :class:`OSError` out of an append or fsync marks
    the writer dirty and raises :class:`WALWriteError`.  While dirty,
    further appends are refused — the file may hold written-but-never-
    fsynced (hence never-acked, never-applied) bytes past ``_durable``,
    and appending after them would interleave durable history with
    garbage.  :meth:`repair` truncates back to the durable prefix and
    re-arms the writer; :meth:`probe` additionally proves the disk
    accepts an fsync again.
    """

    def __init__(
        self,
        path: Union[str, Path],
        topology: TopologySpec,
        manager_kwargs: Optional[Dict[str, Any]] = None,
        disk_faults: Optional[DiskFaultPlan] = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        size = self.path.stat().st_size if self.path.exists() else 0
        if size:
            self._verify_reappend_target()
        # Append-only by design: the whole point is that existing durable
        # history must never be rewritten, so the atomic tmp-then-rename
        # primitive is the wrong tool here.  Unbuffered so ``_written``
        # tracks actual file bytes, not libc buffer occupancy.
        raw = open(  # repro-lint: disable=ART001 — append-only WAL primitive
            self.path, "ab", buffering=0
        )
        plan = disk_faults if disk_faults is not None else active_disk_plan()
        self._fh: Any = FaultyWALFile(raw, plan) if plan is not None else raw
        self._dirty = False
        self._written = size
        self._durable = size
        if size == 0:
            header = {
                "type": "header",
                "version": WAL_VERSION,
                "topology": topology_to_dict(topology),
                "manager": dict(manager_kwargs or {}),
            }
            self._append(encode_record(header))
            self._sync()

    def _verify_reappend_target(self) -> None:
        """Refuse to extend a log whose header or tail is damaged.

        Without this, appending to a corrupted log buries the damage
        under fresh records and it only surfaces on the *next* recovery
        — far from the fault.  Torn tails are the recovery path's job
        (:func:`repro.service.replay.recover_engine` truncates them
        before re-attaching a writer), so here they are an error.
        """
        with open(self.path, "rb") as fh:
            head = fh.read(65536)
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
        if last != b"\n":
            raise SimulationError(
                f"replay log {self.path} has a torn (unterminated) tail; "
                f"recover it before appending"
            )
        first_line, sep, _ = head.partition(b"\n")
        if not sep:
            raise SimulationError(
                f"replay log {self.path} header line is unterminated or oversized"
            )
        try:
            header = decode_record(first_line)
        except WALRecordError as exc:
            raise SimulationError(
                f"replay log {self.path} header is corrupt: {exc}"
            ) from exc
        if header.get("type") != "header":
            raise SimulationError(f"replay log {self.path} has no header record")
        if header.get("version") != WAL_VERSION:
            raise SimulationError(
                f"replay log {self.path} has unsupported version "
                f"{header.get('version')!r} (expected {WAL_VERSION})"
            )

    @property
    def dirty(self) -> bool:
        return self._dirty

    @property
    def durable_bytes(self) -> int:
        return self._durable

    def _append(self, data: bytes) -> None:
        if self._dirty:
            raise WALWriteError(
                f"WAL writer for {self.path} is dirty; repair() before appending"
            )
        try:
            self._fh.write(data)
        except OSError as exc:
            self._dirty = True
            raise WALWriteError(f"WAL append failed: {exc}") from exc
        self._written += len(data)

    def _sync(self) -> None:
        try:
            if hasattr(self._fh, "sync"):
                self._fh.sync()
            else:
                self._fh.flush()
                os.fsync(self._fh.fileno())
        except OSError as exc:
            self._dirty = True
            raise WALWriteError(f"WAL fsync failed: {exc}") from exc
        self._durable = self._written

    def repair(self) -> bool:
        """Truncate back to the fsync-durable prefix and re-arm.

        Safe to call on a clean writer (no-op).  Returns ``False`` and
        stays dirty if the truncate itself fails.
        """
        try:
            os.ftruncate(self._fh.fileno(), self._durable)
        except OSError:
            self._dirty = True
            return False
        self._written = self._durable
        self._dirty = False
        return True

    def probe(self) -> bool:
        """Repair, then prove the disk accepts an fsync again.

        The degraded-mode probation loop calls this until it succeeds;
        each success is one probation point.
        """
        if not self.repair():
            return False
        try:
            self._sync()
        except WALWriteError:
            return False
        return True

    def log_events(self, batch: List[Tuple[int, Request]]) -> None:
        """Durably append one epoch's events *before* they are applied.

        Raises :class:`WALWriteError` (writer left dirty) if the disk
        refuses; the caller must not apply the batch in that case.
        """
        if not batch:
            return
        self._append(
            b"".join(encode_record(request_to_record(seq, req)) for seq, req in batch)
        )
        chaos_point("pre-fsync")
        self._sync()
        chaos_point("post-fsync")

    def log_epoch(self, seq_end: int) -> None:
        """Append the epoch barrier marker; best-effort, never raises."""
        if self._dirty:
            return
        try:
            self._append(encode_record({"type": "epoch", "seq_end": seq_end}))
        except WALWriteError:
            pass

    def log_shutdown(self, seq_end: int) -> None:
        """Mark a clean drain; durable immediately."""
        self._append(encode_record({"type": "shutdown", "seq_end": seq_end}))
        self._sync()

    def close(self) -> None:
        if not self._fh.closed:
            if not self._dirty:
                try:
                    self._sync()
                except WALWriteError:
                    pass
            self._fh.close()

    def __enter__(self) -> "ReplayLogWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class ReplayLogReader:
    """Parse a replay log, tolerating a torn final line.

    Attributes (after construction):
        header: The decoded header record.
        topology: The rebuilt :class:`TopologySpec`.
        manager_kwargs: Manager constructor kwargs from the header.
        clean_shutdown: Whether a ``shutdown`` marker closed the log.
        torn_tail: Whether a torn final record was discarded.
        last_seq: Highest durable event sequence number (-1 when empty).
        valid_bytes: Length of the durable prefix (everything up to and
            including the last valid newline-terminated record); a
            recovering writer truncates the file here before appending.

    Tear rule: a record is only durable once its full line *including
    the newline* is on disk (the writer fsyncs whole batches), so any
    unterminated tail — even one that happens to decode — was written
    mid-crash and never applied; it is discarded.  The same goes for a
    terminated final line that fails to decode or CRC-verify — a torn
    batch write can leave whole terminated-but-unsynced lines, and a
    bit-flipped tail must never be mistaken for a different valid
    record.  Garbage anywhere earlier is corruption of durable history
    and raises.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.torn_tail = False
        self.valid_bytes = 0
        self.clean_shutdown = False
        self.last_seq = -1
        # Every record is decoded and CRC-verified here, once, streaming;
        # only the raw event lines and a few scalars outlive the scan, so
        # an open reader costs about the file size, not a dict per record.
        self._event_lines: List[bytes] = []
        self._epoch_ends: List[int] = []
        first: Optional[Dict[str, Any]] = None
        undecodable: Optional[Tuple[int, WALRecordError]] = None
        with open(self.path, "rb") as fh:
            for index, line in enumerate(fh):
                if not line.endswith(b"\n"):
                    self.torn_tail = True  # unterminated: necessarily the last chunk
                    break
                if undecodable is not None:
                    bad_index, cause = undecodable
                    raise SimulationError(
                        f"corrupt replay log {self.path}: undecodable record "
                        f"{bad_index + 1} is not the final line ({cause})"
                    ) from cause
                if len(line) > 1:
                    try:
                        record = decode_record(line[:-1])
                    except WALRecordError as exc:
                        undecodable = (index, exc)
                        continue
                    if first is None:
                        first = record
                    else:
                        self._keep(record, line)
                self.valid_bytes += len(line)
        if undecodable is not None:
            self.torn_tail = True
        if first is None or first.get("type") != "header":
            raise SimulationError(f"replay log {self.path} has no header record")
        self.header = first
        if self.header.get("version") != WAL_VERSION:
            raise SimulationError(
                f"replay log {self.path} has unsupported version "
                f"{self.header.get('version')!r} (expected {WAL_VERSION})"
            )
        self.topology = topology_from_dict(self.header["topology"])
        self.manager_kwargs = dict(self.header.get("manager", {}))

    def _keep(self, record: Dict[str, Any], line: bytes) -> None:
        """Retain what one verified post-header record contributes."""
        kind = record.get("type")
        if kind == "event":
            self._event_lines.append(line)
            self.last_seq = max(self.last_seq, int(record["seq"]))
        elif kind == "epoch":
            self._epoch_ends.append(int(record["seq_end"]))
        elif kind == "shutdown":
            self.clean_shutdown = True

    def events(self) -> Iterator[Tuple[int, Request]]:
        """Yield every durable ``(seq, request)`` in log order."""
        for line in self._event_lines:
            record = json.loads(line)  # CRC-verified at open
            yield int(record["seq"]), request_from_record(record)

    def epoch_ends(self) -> List[int]:
        """``seq_end`` of every epoch barrier, in log order."""
        return list(self._epoch_ends)
