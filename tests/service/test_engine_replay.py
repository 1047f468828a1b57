"""Engine determinism: batches, replay, recovery and core crossing."""

import json
import random

import pytest

from repro.cli import main
from repro.errors import SimulationError
from repro.parallel.jobs import TopologySpec
from repro.qos.spec import ConnectionQoS, DependabilityQoS, ElasticQoS
from repro.reference import ReferenceManager
from repro.service.engine import EngineConfig, ServiceEngine
from repro.service.protocol import Request
from repro.service.replay import (
    export_campaign,
    recover_engine,
    reference_replay_digest,
    replay_log,
)
from repro.service.wal import ReplayLogReader, ReplayLogWriter, decode_record, encode_record

GRID = TopologySpec(kind="grid", capacity=1000.0, seed=0, nodes=4, cols=4)


def _engine(core: str) -> ServiceEngine:
    """A fresh engine; ``"reference"`` swaps in the reference manager."""
    engine = ServiceEngine(GRID, EngineConfig())
    if core == "reference":
        engine.manager = ReferenceManager(engine.net)
        engine.manager.record_trajectories = False
    return engine


def _qos(rng):
    b_min = rng.choice((50.0, 100.0, 150.0))
    return ConnectionQoS(
        performance=ElasticQoS(
            b_min=b_min,
            b_max=b_min * rng.choice((2, 3)),
            increment=b_min,
            utility=rng.choice((0.25, 0.5, 1.0)),
        ),
        dependability=DependabilityQoS(num_backups=1),
    )


#: Largest batch size the digest tests exercise.  The script keeps
#: dependent events (establish->teardown, fail->repair of one link) at
#: least this far apart so no batch ever contains both halves: batched
#: validation runs against batch-*start* state, so an intra-batch
#: dependency is a legitimate (deterministic, replay-consistent) source
#: of outcome differences between batchings — covered separately by
#: TestValidation.test_in_batch_race_is_deterministic.
MAX_BATCH = 16


def _script(steps=120, seed=5):
    """A fixed mixed request sequence, built once against a scratch
    engine (so teardown conn ids are real), then replayable verbatim
    against any engine/batching under test."""
    engine = ServiceEngine(GRID, EngineConfig())
    rng = random.Random(seed)
    nodes = engine.net.nodes()
    links = engine.net.link_ids()[:6]
    live = []    # (step_established, conn_id)
    failed = []  # (step_failed, link)
    last_repair = {}  # link -> step of most recent repair
    script = []
    for i in range(steps):
        r = rng.random()
        ripe_conns = [c for c in live if i - c[0] >= MAX_BATCH]
        ripe_links = [f for f in failed if i - f[0] >= MAX_BATCH]
        if r < 0.5 or not ripe_conns:
            s, d = rng.sample(nodes, 2)
            req = Request(op="establish", req_id=i, src=s, dst=d, qos=_qos(rng))
        elif r < 0.75:
            entry = ripe_conns[0]
            live.remove(entry)
            req = Request(op="teardown", req_id=i, conn_id=entry[1])
        elif r < 0.88 and len(failed) < 3:
            candidates = [
                l for l in links
                if all(f[1] != l for f in failed)
                and i - last_repair.get(l, -MAX_BATCH) >= MAX_BATCH
            ]
            if not candidates:
                continue
            failed.append((i, candidates[0]))
            req = Request(op="fail", req_id=i, link=candidates[0])
        elif ripe_links:
            entry = ripe_links[0]
            failed.remove(entry)
            last_repair[entry[1]] = i
            req = Request(op="repair", req_id=i, link=entry[1])
        else:
            continue
        response = engine.apply_sequential(req)
        result = response.get("result") or {}
        if response.get("ok") and result.get("accepted"):
            live.append((i, result["conn_id"]))
        script.append(req)
    return script


def _drive(engine, script=None, batch=None):
    """Apply a scripted workload; returns responses."""
    if script is None:
        script = _script()
    responses = []
    if batch is None:
        for req in script:
            responses.append(engine.apply_sequential(req))
        return responses
    for start in range(0, len(script), batch):
        responses.extend(engine.apply_batch(script[start:start + batch]))
    return responses


class TestEngineConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(SimulationError):
            EngineConfig(batch_max=0)
        with pytest.raises(SimulationError):
            EngineConfig(manager_kwargs={"turbo": True})


class TestBatchEqualsSequential:
    @pytest.mark.parametrize("batch", [1, 5, MAX_BATCH])
    def test_digest_independent_of_batching(self, batch):
        sequential = ServiceEngine(GRID, EngineConfig())
        _drive(sequential, batch=None)
        batched = ServiceEngine(GRID, EngineConfig(batch_max=batch))
        _drive(batched, batch=batch)
        assert batched.digest() == sequential.digest()

    def test_cores_agree(self):
        digests = {}
        for core in ("reference", "array"):
            engine = _engine(core)
            _drive(engine, batch=8)
            digests[core] = engine.digest()
        assert digests["reference"] == digests["array"]

    @pytest.mark.parametrize("core", ["array", "reference"])
    def test_answers_do_not_depend_on_trajectories(self, core):
        # The engine runs its manager without level trajectories; every
        # response and the state must be what a recording manager gives.
        lean = _engine(core)
        assert lean.manager.record_trajectories is False
        full = _engine(core)
        full.manager.record_trajectories = True
        script = _script()
        assert _drive(lean, script, batch=8) == _drive(full, script, batch=8)
        assert lean.digest() == full.digest()

    def test_close_drops_the_route_memo_only(self):
        engine = ServiceEngine(GRID, EngineConfig())
        _drive(engine, batch=8)
        digest = engine.digest()
        assert len(engine.manager.route_cache) > 0
        engine.close()
        assert len(engine.manager.route_cache) == 0
        assert engine.digest() == digest
        engine.manager.check_invariants()


class TestValidation:
    def test_validation_errors_not_logged(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = ReplayLogWriter(path, GRID)
        engine = ServiceEngine(GRID, EngineConfig(), wal=wal)
        bad = [
            Request(op="establish", req_id=0, src=0, dst=0, qos=_qos(random.Random(0))),
            Request(op="establish", req_id=1, src=0, dst=999, qos=_qos(random.Random(0))),
            Request(op="teardown", req_id=2, conn_id=404),
            Request(op="fail", req_id=3, link=(0, 5)),  # not a grid link
            Request(op="repair", req_id=4, link=(0, 1)),  # not failed
        ]
        responses = engine.apply_batch(bad)
        engine.close()
        assert [r["ok"] for r in responses] == [False] * 5
        assert [r["error"] for r in responses] == [
            "bad-request", "bad-request", "not-live", "bad-request", "link-state"
        ]
        assert engine.seq == 0
        assert list(ReplayLogReader(path).events()) == []

    def test_in_batch_race_is_deterministic(self, tmp_path):
        """An event invalidated by an earlier event in its own batch is
        answered with an error, not applied — and replay agrees."""
        path = tmp_path / "wal.log"
        wal = ReplayLogWriter(path, GRID)
        engine = ServiceEngine(GRID, EngineConfig(batch_max=8), wal=wal)
        lid = engine.net.link_ids()[0]
        batch = [
            Request(op="fail", req_id=0, link=lid),
            Request(op="fail", req_id=1, link=lid),  # race: already failed
        ]
        responses = engine.apply_batch(batch)
        engine.close()
        assert responses[0]["ok"] is True
        assert responses[1]["ok"] is True or responses[1]["error"] in (
            "link-state", "internal"
        )
        assert replay_log(path).digest == engine.digest()


class TestReplayAndRecovery:
    def _live_run(self, tmp_path, batch=8):
        path = tmp_path / "wal.log"
        wal = ReplayLogWriter(path, GRID)
        engine = ServiceEngine(GRID, EngineConfig(batch_max=batch), wal=wal)
        _drive(engine, batch=batch)
        digest = engine.digest()
        return path, engine, digest

    def test_replay_matches_live(self, tmp_path):
        path, engine, digest = self._live_run(tmp_path)
        engine.close()
        result = replay_log(path)
        assert result.digest == digest
        assert result.events_applied == engine.seq
        assert not result.clean_shutdown and not result.torn_tail

    def test_replay_result_is_at_rest_recovery_stays_warm(self, tmp_path):
        # An offline replay is audited, not served: its route memo is
        # dropped (a held result costs the state alone), the state stays
        # sound.  A recovered engine goes on serving and keeps the memo.
        path, engine, digest = self._live_run(tmp_path)
        assert len(engine.manager.route_cache) > 0
        engine.close()
        # ``len`` counts every map the memo holds, so 0 means all gone.
        assert len(engine.manager.route_cache) == 0
        result = replay_log(path)
        assert len(result.engine.manager.route_cache) == 0
        assert result.engine.digest() == digest
        result.engine.manager.check_invariants()
        recovered = recover_engine(path)
        assert len(recovered.manager.route_cache) > 0
        assert recovered.digest() == digest
        recovered.close()

    def test_recover_after_torn_tail(self, tmp_path):
        path, engine, digest = self._live_run(tmp_path)
        engine.close()
        with open(  # repro-lint: disable=ART001 — deliberate torn-write fixture
            path, "ab"
        ) as fh:
            fh.write(b'{"type":"event","seq":9')  # crash mid-write
        recovered = recover_engine(path)
        assert recovered.digest() == digest
        assert recovered.seq == engine.seq
        # The truncation leaves a log a fresh reader accepts cleanly.
        assert not ReplayLogReader(path).torn_tail
        # And the recovered engine can keep appending valid records.
        lid = recovered.net.link_ids()[0]
        op = "repair" if recovered.manager.state.is_failed(lid) else "fail"
        req = Request(op=op, req_id=0, link=lid)
        recovered.apply_sequential(req)
        recovered.close()
        assert ReplayLogReader(path).last_seq == engine.seq
        assert replay_log(path).digest == recovered.digest()

    def test_cross_core_replay(self, tmp_path):
        path, engine, digest = self._live_run(tmp_path)
        engine.close()
        assert reference_replay_digest(path) == digest

    @pytest.mark.parametrize("core", ["object", "array", None])
    def test_header_core_field_is_ignored(self, tmp_path, capsys, core):
        """Logs whose header still names a manager core replay, and
        cross-check, exactly like logs without the field."""
        path, engine, digest = self._live_run(tmp_path)
        engine.close()
        header_line, rest = path.read_bytes().split(b"\n", 1)
        header = decode_record(header_line)
        assert "core" not in header
        if core is not None:
            header["core"] = core
        path.write_bytes(  # repro-lint: disable=ART001 — header-variant fixture
            encode_record(header) + rest
        )
        assert replay_log(path).digest == digest
        assert main(["replay", str(path), "--cross-check"]) == 0
        assert json.loads(capsys.readouterr().out)["cross_check_match"] is True

    def test_export_campaign_replays_identically(self, tmp_path):
        path, engine, digest = self._live_run(tmp_path)
        engine.close()
        out = tmp_path / "campaign.log"
        summary = export_campaign(path, out)
        assert summary["events"] == engine.seq
        result = replay_log(out)
        assert result.digest == digest
        assert result.clean_shutdown


class TestQueries:
    def test_query_shapes(self):
        engine = ServiceEngine(GRID, EngineConfig())
        rng = random.Random(1)
        resp = engine.apply_sequential(
            Request(op="establish", req_id=0, src=0, dst=15, qos=_qos(rng))
        )
        cid = resp["result"]["conn_id"]
        info = engine.query(Request(op="query", req_id=1, what="info"))["result"]
        assert info["num_nodes"] == 16 and len(info["links_sample"]) == 8
        stats = engine.query(Request(op="query", req_id=2, what="stats"))["result"]
        assert stats["num_live"] == 1
        conn = engine.query(
            Request(op="query", req_id=3, what="connection", conn_id=cid)
        )["result"]
        assert conn["level"] >= 0 and conn["primary_path"][0] == 0
        missing = engine.query(
            Request(op="query", req_id=4, what="connection", conn_id=404)
        )
        assert missing["error"] == "not-live"
