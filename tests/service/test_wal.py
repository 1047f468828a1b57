"""Replay-log durability: headers, torn tails, truncation, export."""

import json
import tracemalloc

import pytest

from repro.errors import SimulationError
from repro.parallel.jobs import TopologySpec
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.service.protocol import Request
from repro.service.wal import (
    ReplayLogReader,
    ReplayLogWriter,
    encode_record,
    parse_topology_arg,
    request_from_record,
    request_to_record,
    topology_from_dict,
    topology_to_dict,
)

GRID = TopologySpec(kind="grid", capacity=1000.0, seed=0, nodes=3, cols=3)


def _qos():
    return ConnectionQoS(
        performance=ElasticQoS(b_min=50.0, b_max=150.0, increment=50.0, utility=0.8),
        dependability=DependabilityQoS(num_backups=1),
    )


def _events(n):
    return [
        (i, Request(op="establish", req_id=i, src=0, dst=8, qos=_qos()))
        for i in range(n)
    ]


class TestTopologySpecWire:
    def test_round_trip(self):
        for spec in (
            GRID,
            TopologySpec(kind="waxman", capacity=155.0, seed=7, nodes=20),
        ):
            assert topology_from_dict(topology_to_dict(spec)) == spec

    def test_parse_topology_arg(self):
        spec = parse_topology_arg("grid:nodes=4,cols=4,capacity=1000")
        assert spec == TopologySpec(kind="grid", capacity=1000.0, seed=0, nodes=4, cols=4)

    @pytest.mark.parametrize(
        "text", ["donut:nodes=4", "grid:nodes", "grid:flavor=ring"]
    )
    def test_parse_topology_arg_rejects(self, text):
        with pytest.raises(SimulationError):
            parse_topology_arg(text)


class TestEventRecords:
    def test_round_trip_all_ops(self):
        requests = [
            Request(op="establish", req_id=0, src=1, dst=2, qos=_qos()),
            Request(op="teardown", req_id=1, conn_id=9),
            Request(op="fail", req_id=2, link=(0, 1)),
            Request(op="repair", req_id=3, link=(0, 1)),
        ]
        for seq, req in enumerate(requests):
            rebuilt = request_from_record(
                json.loads(json.dumps(request_to_record(seq, req)))
            )
            assert rebuilt.op == req.op
            assert rebuilt.link == req.link
            assert rebuilt.conn_id == req.conn_id
            assert rebuilt.qos == req.qos


class TestWriterReader:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "wal.log"
        with ReplayLogWriter(path, GRID, manager_kwargs={"policy": "greedy"}) as w:
            w.log_events(_events(3))
            w.log_epoch(2)
            w.log_shutdown(2)
        reader = ReplayLogReader(path)
        assert reader.topology == GRID
        assert reader.manager_kwargs == {"policy": "greedy"}
        assert "core" not in reader.header
        assert reader.clean_shutdown and not reader.torn_tail
        assert [seq for seq, _ in reader.events()] == [0, 1, 2]
        assert reader.epoch_ends() == [2]
        assert reader.last_seq == 2

    def test_append_mode_keeps_single_header(self, tmp_path):
        path = tmp_path / "wal.log"
        with ReplayLogWriter(path, GRID) as w:
            w.log_events(_events(2))
        with ReplayLogWriter(path, GRID) as w:
            w.log_events([(2, _events(3)[2][1])])
        headers = [
            line for line in path.read_text().splitlines() if '"header"' in line
        ]
        assert len(headers) == 1
        assert ReplayLogReader(path).last_seq == 2

    def test_unterminated_tail_is_torn_even_if_decodable(self, tmp_path):
        path = tmp_path / "wal.log"
        with ReplayLogWriter(path, GRID) as w:
            w.log_events(_events(2))
        durable = path.stat().st_size
        with open(  # repro-lint: disable=ART001 — deliberate torn-write fixture
            path, "ab"
        ) as fh:
            fh.write(b'{"type":"event","seq":2,"op":"teardown","conn_id":1}')
        reader = ReplayLogReader(path)
        assert reader.torn_tail
        assert reader.valid_bytes == durable
        assert reader.last_seq == 1

    def test_terminated_garbage_final_line_is_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        with ReplayLogWriter(path, GRID) as w:
            w.log_events(_events(1))
        durable = path.stat().st_size
        with open(  # repro-lint: disable=ART001 — deliberate torn-write fixture
            path, "ab"
        ) as fh:
            fh.write(b"\x00\xffgarbage\n")
        reader = ReplayLogReader(path)
        assert reader.torn_tail and reader.valid_bytes == durable
        assert reader.last_seq == 0

    def test_mid_file_garbage_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        with ReplayLogWriter(path, GRID) as w:
            w.log_events(_events(1))
        with open(  # repro-lint: disable=ART001 — deliberate torn-write fixture
            path, "ab"
        ) as fh:
            fh.write(b"garbage\n")
            fh.write(b'{"type":"epoch","seq_end":0}\n')
        with pytest.raises(SimulationError, match="corrupt replay log"):
            ReplayLogReader(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        record = {"type": "event", "seq": 0, "op": "teardown", "conn_id": 1}
        path.write_bytes(  # repro-lint: disable=ART001 — deliberate bad-log fixture
            encode_record(record)
        )
        with pytest.raises(SimulationError, match="no header record"):
            ReplayLogReader(path)

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        header = {
            "type": "header", "version": 99,
            "topology": topology_to_dict(GRID), "manager": {},
        }
        path.write_bytes(  # repro-lint: disable=ART001 — deliberate bad-log fixture
            encode_record(header)
        )
        with pytest.raises(SimulationError, match="unsupported version"):
            ReplayLogReader(path)

    def test_crc_protects_terminated_final_line(self, tmp_path):
        # A bit-flip in a *terminated* final record must read as torn,
        # never as a different valid record — that is what the per-record
        # CRC buys over plain JSON decodability.
        path = tmp_path / "wal.log"
        with ReplayLogWriter(path, GRID) as w:
            w.log_events(_events(2))
        durable_before = ReplayLogReader(path).valid_bytes
        data = bytearray(path.read_bytes())
        data[-10] ^= 0x04  # flip one bit inside the final record's body
        path.write_bytes(  # repro-lint: disable=ART001 — deliberate corruption
            bytes(data)
        )
        reader = ReplayLogReader(path)
        assert reader.torn_tail
        assert reader.last_seq == 0
        assert reader.valid_bytes < durable_before


class TestReaderMemory:
    def test_open_reader_costs_about_the_file_size(self, tmp_path):
        # Recovery memory must not grow with a multiple of the log: the
        # reader verifies every record but keeps only raw event lines.
        path = tmp_path / "wal.log"
        total = 20_000
        with ReplayLogWriter(path, GRID) as w:
            for start in range(0, total, 500):
                batch = [
                    (i, Request(op="establish", req_id=i, src=0, dst=8, qos=_qos()))
                    if i % 2 == 0
                    else (i, Request(op="teardown", req_id=i, conn_id=i // 2))
                    for i in range(start, start + 500)
                ]
                w.log_events(batch)
                w.log_epoch(batch[-1][0])
        size = path.stat().st_size
        tracemalloc.start()
        try:
            reader = ReplayLogReader(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * size, (peak, size)
        assert retained <= 1.5 * size, (retained, size)
        assert reader.last_seq == total - 1
        assert len(reader.epoch_ends()) == total // 500
        assert [seq for seq, _ in reader.events()] == list(range(total))
