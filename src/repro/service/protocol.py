"""Wire protocol of the admission service: JSON objects, one per line.

Requests and responses are single JSON objects terminated by ``\\n``.
Every request carries an ``op`` and a client-chosen ``id`` that the
response echoes, so clients may pipeline.  The five operations:

``establish``   ``{"op": "establish", "id": 1, "src": 3, "dst": 9,
                "qos": {...}}`` — try to admit a DR-connection.
``teardown``    ``{"op": "teardown", "id": 2, "conn_id": 17}``
``fail``        ``{"op": "fail", "id": 3, "link": [2, 5]}`` — report a
                link failure (operator/monitoring plane).
``repair``      ``{"op": "repair", "id": 4, "link": [2, 5]}``
``query``       ``{"op": "query", "id": 5, "what": "stats"}`` with
                ``what`` in :data:`QUERY_KINDS`.

Responses are ``{"id": ..., "ok": true, "result": {...}}`` or
``{"id": ..., "ok": false, "error": "<code>", "message": "...",
"retry_after": <seconds, shed only>}``.  Error codes are listed in
:data:`ERROR_CODES`.

Mutating requests may carry ``"deadline_ms"``, the client's end-to-end
answer budget; the server expires requests still queued past it (see
:mod:`repro.service.server`).

This module is decision logic: pure parsing/validation with no clock,
no RNG, no I/O, so the replay path shares it verbatim with the live
server.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

from repro.errors import QoSSpecError
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS

#: Bumped on incompatible wire changes; echoed by ``query what=info``.
PROTOCOL_VERSION = 1

#: Request operations the service understands.
OPS = ("establish", "teardown", "fail", "repair", "query")

#: Mutating operations (the ones that reach the WAL and the manager).
MUTATING_OPS = ("establish", "teardown", "fail", "repair")

#: ``query`` subjects.
QUERY_KINDS = ("health", "ready", "info", "stats", "digest", "connection")

#: Error codes a response may carry.
ERROR_CODES = (
    "bad-request",    # malformed JSON / unknown op / invalid fields
    "shed",           # backpressure: retry after `retry_after` seconds
    "deadline",       # expired in queue past its deadline budget
    "not-live",       # teardown/query of a connection that is not live
    "link-state",     # fail/repair against the wrong link state
    "shutting-down",  # service is draining
    "degraded",       # WAL disk faulting: read-only, retry after `retry_after`
    "internal",       # unexpected server-side failure
)


class ProtocolError(ValueError):
    """A request that cannot be parsed or validated."""


# ----------------------------------------------------------------------
# QoS serialization
# ----------------------------------------------------------------------
def qos_to_dict(qos: ConnectionQoS) -> Dict[str, Any]:
    """JSON-able rendering of a QoS contract (exact float round-trip)."""
    perf = qos.performance
    dep = qos.dependability
    return {
        "b_min": perf.b_min,
        "b_max": perf.b_max,
        "increment": perf.increment,
        "utility": perf.utility,
        "backups": dep.num_backups,
        "require_link_disjoint": dep.require_link_disjoint,
    }


def qos_from_dict(data: Dict[str, Any]) -> ConnectionQoS:
    """Rebuild a QoS contract from its wire form.

    Raises:
        ProtocolError: on missing/invalid fields (including every
            constraint :class:`ElasticQoS` itself enforces).
    """
    if not isinstance(data, dict):
        raise ProtocolError(f"qos must be an object, got {type(data).__name__}")
    try:
        return _contract(
            float(data["b_min"]),
            float(data["b_max"]),
            float(data["increment"]),
            float(data.get("utility", 1.0)),
            int(data.get("backups", 1)),
            bool(data.get("require_link_disjoint", False)),
        )
    except (KeyError, TypeError, ValueError, QoSSpecError) as exc:
        raise ProtocolError(f"invalid qos: {exc}") from exc


@lru_cache(maxsize=256)
def _contract(
    b_min: float, b_max: float, increment: float, utility: float,
    backups: int, link_disjoint: bool,
) -> ConnectionQoS:
    """One shared (frozen) contract per distinct wire form: clients send
    a handful of them, and every live connection keeps its contract."""
    return ConnectionQoS(
        performance=ElasticQoS(
            b_min=b_min, b_max=b_max, increment=increment, utility=utility
        ),
        dependability=DependabilityQoS(
            num_backups=backups, require_link_disjoint=link_disjoint
        ),
    )


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One validated client request.

    ``link`` is normalized to the canonical ``(min, max)`` node order
    used by :class:`~repro.topology.graph.Network` link ids.
    """

    op: str
    req_id: Any
    src: int = -1
    dst: int = -1
    qos: Optional[ConnectionQoS] = None
    conn_id: int = -1
    link: Optional[Tuple[int, int]] = None
    what: str = ""
    deadline_ms: Optional[float] = None

    @property
    def is_mutation(self) -> bool:
        return self.op in MUTATING_OPS


def _require_int(obj: Dict[str, Any], key: str) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{key!r} must be an integer, got {value!r}")
    return value


def parse_request(obj: Any) -> Request:
    """Validate one decoded JSON object into a :class:`Request`.

    Raises:
        ProtocolError: whenever the object is not a well-formed request.
    """
    if not isinstance(obj, dict):
        raise ProtocolError(f"request must be an object, got {type(obj).__name__}")
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; choose from {OPS}")
    req_id = obj.get("id")
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
            raise ProtocolError(f"deadline_ms must be a number, got {deadline_ms!r}")
        if deadline_ms <= 0:
            raise ProtocolError(f"deadline_ms must be positive, got {deadline_ms}")
        deadline_ms = float(deadline_ms)

    if op == "establish":
        src = _require_int(obj, "src")
        dst = _require_int(obj, "dst")
        qos = qos_from_dict(obj.get("qos"))
        return Request(op=op, req_id=req_id, src=src, dst=dst, qos=qos,
                       deadline_ms=deadline_ms)
    if op == "teardown":
        return Request(op=op, req_id=req_id, conn_id=_require_int(obj, "conn_id"),
                       deadline_ms=deadline_ms)
    if op in ("fail", "repair"):
        raw = obj.get("link")
        if (
            not isinstance(raw, (list, tuple))
            or len(raw) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in raw)
        ):
            raise ProtocolError(f"link must be a [node, node] pair, got {raw!r}")
        a, b = int(raw[0]), int(raw[1])
        return Request(op=op, req_id=req_id, link=(min(a, b), max(a, b)),
                       deadline_ms=deadline_ms)
    # query
    what = obj.get("what", "health")
    if what not in QUERY_KINDS:
        raise ProtocolError(f"unknown query {what!r}; choose from {QUERY_KINDS}")
    conn_id = obj.get("conn_id", -1)
    if what == "connection":
        conn_id = _require_int(obj, "conn_id")
    return Request(op=op, req_id=req_id, what=what, conn_id=conn_id)


# ----------------------------------------------------------------------
# responses and framing
# ----------------------------------------------------------------------
def ok_response(req_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    """A success envelope echoing the request id."""
    return {"id": req_id, "ok": True, "result": result}


def error_response(
    req_id: Any,
    code: str,
    message: str,
    retry_after: Optional[float] = None,
) -> Dict[str, Any]:
    """A failure envelope; ``retry_after`` only accompanies sheds."""
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code {code!r}")
    resp: Dict[str, Any] = {"id": req_id, "ok": False, "error": code, "message": message}
    if retry_after is not None:
        resp["retry_after"] = retry_after
    return resp


def encode_line(obj: Dict[str, Any]) -> bytes:
    """One protocol frame: compact JSON + newline, UTF-8."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Any:
    """Decode one frame; raises :class:`ProtocolError` on bad JSON."""
    try:
        return json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
