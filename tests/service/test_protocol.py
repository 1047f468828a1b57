"""Wire-protocol parsing, framing and QoS round-trips."""

import math

import pytest

from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.service.protocol import (
    ERROR_CODES,
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    parse_request,
    qos_from_dict,
    qos_to_dict,
)


def _qos(utility=1.0):
    return ConnectionQoS(
        performance=ElasticQoS(
            b_min=100.0, b_max=300.0, increment=100.0, utility=utility
        ),
        dependability=DependabilityQoS(num_backups=1, require_link_disjoint=True),
    )


class TestQoSRoundTrip:
    def test_exact_round_trip(self):
        qos = _qos(utility=0.7)
        rebuilt = qos_from_dict(qos_to_dict(qos))
        assert rebuilt == qos

    def test_awkward_float_survives_json(self):
        qos = ConnectionQoS(
            performance=ElasticQoS(
                b_min=0.1, b_max=0.1 * 3, increment=0.1, utility=1 / 3
            ),
            dependability=DependabilityQoS(num_backups=0),
        )
        line = encode_line({"qos": qos_to_dict(qos)})
        rebuilt = qos_from_dict(decode_line(line)["qos"])
        assert rebuilt.performance.utility == qos.performance.utility
        assert math.isclose(rebuilt.performance.b_max, 0.1 * 3, rel_tol=0.0)

    def test_equal_wire_forms_share_one_contract(self):
        # Every live connection holds its contract; clients send a
        # handful of distinct ones, so equal wire forms share an object.
        wire = qos_to_dict(_qos(utility=0.7))
        assert qos_from_dict(dict(wire)) is qos_from_dict(dict(wire))
        other = qos_from_dict({**wire, "utility": 0.9})
        assert other != qos_from_dict(wire) and other.performance.utility == 0.9
        # Same numbers, different dependability: not the same contract.
        assert qos_from_dict({**wire, "backups": 0}).dependability.num_backups == 0

    def test_invalid_qos_rejected(self):
        with pytest.raises(ProtocolError, match="invalid qos"):
            qos_from_dict({"b_min": 300.0, "b_max": 100.0, "increment": 100.0})
        with pytest.raises(ProtocolError):
            qos_from_dict("not an object")
        with pytest.raises(ProtocolError):
            qos_from_dict({"b_min": 100.0})  # missing fields


class TestParseRequest:
    def test_establish(self):
        req = parse_request(
            {"op": "establish", "id": 7, "src": 1, "dst": 2,
             "qos": qos_to_dict(_qos()), "deadline_ms": 50}
        )
        assert req.op == "establish" and req.is_mutation
        assert (req.src, req.dst, req.req_id) == (1, 2, 7)
        assert req.deadline_ms == 50.0

    def test_teardown_and_query(self):
        req = parse_request({"op": "teardown", "id": "t", "conn_id": 3})
        assert req.conn_id == 3 and req.is_mutation
        query = parse_request({"op": "query", "what": "digest"})
        assert not query.is_mutation and query.what == "digest"

    def test_link_normalized(self):
        req = parse_request({"op": "fail", "link": [5, 2]})
        assert req.link == (2, 5)

    @pytest.mark.parametrize(
        "obj",
        [
            "not a dict",
            {"op": "launch"},
            {"op": "establish", "src": "a", "dst": 2, "qos": {}},
            {"op": "establish", "src": True, "dst": 2, "qos": {}},
            {"op": "teardown"},
            {"op": "fail", "link": [1]},
            {"op": "fail", "link": [1, True]},
            {"op": "fail", "link": "1-2"},
            {"op": "query", "what": "everything"},
            {"op": "query", "what": "connection"},
            {"op": "teardown", "conn_id": 1, "deadline_ms": 0},
            {"op": "teardown", "conn_id": 1, "deadline_ms": "soon"},
        ],
    )
    def test_malformed_rejected(self, obj):
        with pytest.raises(ProtocolError):
            parse_request(obj)


class TestFraming:
    def test_encode_decode_round_trip(self):
        frame = encode_line(ok_response(9, {"x": 1}))
        assert frame.endswith(b"\n")
        assert decode_line(frame) == {"id": 9, "ok": True, "result": {"x": 1}}

    def test_bad_frame_raises(self):
        with pytest.raises(ProtocolError, match="malformed frame"):
            decode_line(b"{nope\n")

    def test_error_response_shapes(self):
        resp = error_response(1, "shed", "busy", retry_after=0.25)
        assert resp["retry_after"] == 0.25 and resp["error"] in ERROR_CODES
        assert "retry_after" not in error_response(1, "bad-request", "no")
        with pytest.raises(ProtocolError, match="unknown error code"):
            error_response(1, "teapot", "?")
