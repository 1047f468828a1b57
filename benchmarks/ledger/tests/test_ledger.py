"""Self-tests of the ledger benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import pytest

from benchmarks.ledger import measure, spans, svc, workloads
from benchmarks.ledger import run as ledger

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = measure.load_spec()


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
def _stream(seed: int, count: int = 400):
    """Drive a mix against a fake program that accepts all but every 7th."""
    mix = workloads.SteadyStateMix(seed, 60, 40, query_every=5, links=[[0, 1], [1, 2], [2, 3]])
    out, next_cid = [], 0
    for index in range(count):
        request = mix.next_request() if index % 50 else mix.toggle()
        out.append(json.dumps(request, sort_keys=True))
        result = {}
        if request["op"] == "establish":
            result = {"accepted": bool(next_cid % 7), "conn_id": next_cid}
            next_cid += 1
        elif request["op"] == "fail":
            result = {"dropped": mix.owned[:1]}
        mix.observe(request, {"ok": True, "result": result})
    return out, mix


def test_generator_is_deterministic_per_seed():
    first, _ = _stream(3)
    again, _ = _stream(3)
    other, _ = _stream(4)
    assert first == again
    assert first != other


def test_generator_holds_population_and_query_cadence():
    stream, mix = _stream(11, count=2000)
    assert abs(len(mix.owned) - 40) <= 4  # within +-10% of the target
    ops = [json.loads(line)["op"] for line in stream[200:]]
    assert 0.17 < ops.count("query") / len(ops) < 0.23  # every 5th request
    torn = [json.loads(line)["conn_id"] for line in stream if '"teardown"' in line]
    assert len(torn) == len(set(torn))  # no id is ever torn down twice


def test_batch_toggle_takes_the_last_slot_on_a_fixed_cadence():
    mix = workloads.SteadyStateMix(5, 60, 40, links=[[0, 1], [1, 2]])
    toggles = []
    for index in range(60):
        batch = mix.next_batch(64, workloads.batch_has_toggle(index))
        assert len(batch) == 64
        assert all(r["op"] in ("establish", "teardown") for r in batch[:-1])
        toggles.append(batch[-1]["op"] if batch[-1]["op"] in ("fail", "repair") else None)
        for request in batch:
            if request["op"] == "establish":
                mix.observe(request, {"ok": True, "result": {"accepted": True, "conn_id": request["id"]}})
    # every window of six batches holds exactly two fails and two repairs
    for start in range(0, 60, 6):
        window = toggles[start : start + 6]
        assert (window.count("fail"), window.count("repair")) == (2, 2)


def test_rejection_is_a_decision_not_a_failure():
    assert not workloads.is_failure({"ok": True, "result": {"accepted": False}})
    assert workloads.is_failure({"ok": False, "error": "shed"})
    assert workloads.is_failure(None)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [
        # trace, id, parent, name, start, end
        [1, 0, None, "request", 0, 100],
        [1, 1, 0, "engine.apply_batch", 10, 90],
        [1, 2, 1, "wal.log_events", 20, 50],
        [1, 3, 1, "channels.request_connection", 50, 80],
        [1, 4, 3, "routing", 55, 60],
    ]
    own = tracer.self_times()
    assert own["request"] == [20]
    assert own["engine.apply_batch"] == [80 - 30 - 30]
    assert own["channels.request_connection"] == [25]  # grandchildren count once
    assert own["wal.log_events"] == [30]
    assert tracer.durations()["engine.apply_batch"] == [80]


def test_proxy_records_nested_spans_and_forwards_state(tmp_path):
    class Inner:
        now = 0.0

        def request_connection(self, a, b):
            return a + b

        def untraced(self):
            return "plain"

    tracer = spans.Tracer()
    inner = Inner()
    proxy = spans.TracedManager(inner, tracer)
    tracer.trace_id = 7
    root = tracer.begin("request")
    assert proxy.request_connection(1, 2) == 3
    assert proxy.untraced() == "plain"
    proxy.now = 5.0
    tracer.end(root)
    assert inner.now == 5.0
    names = [(row[3], row[2]) for row in tracer.spans]
    assert names == [("request", None), ("channels.request_connection", 0)]
    tracer.write(tmp_path / "trace.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert set(rows[0]) == set(spans.FIELDS) and rows[1]["trace_id"] == 7


# ----------------------------------------------------------------------
# reporting rules
# ----------------------------------------------------------------------
def test_percentile_refuses_an_unsupported_tail():
    assert measure.percentile([5.0], 0.5) == 5.0
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(list(range(300)), 0.99)  # 2 samples beyond
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(list(range(100)), 0.9)  # 9 beyond
    assert measure.percentile(list(range(110)), 0.9) == 99  # 10 beyond
    assert measure.percentile(list(range(1100)), 0.99) == 1089
    with pytest.raises(measure.TooFewSamples):
        measure.percentile([], 0.5)


def test_summarize_reports_count_median_quartiles():
    s = measure.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["n"], s["median"]) == (5, 3.0)
    assert s["q1"] < s["median"] < s["q3"]


@pytest.mark.parametrize(
    "base, head, better, expected",
    [
        ([100, 101, 102, 103], [100.5, 101, 102, 103.5], "lower", "unchanged"),
        ([100, 101, 102, 103], [120, 121, 122, 123], "lower", "worse"),
        ([100, 101, 102, 103], [80, 81, 82, 83], "lower", "better"),
        ([100, 101, 102, 103], [80, 81, 82, 83], "higher", "worse"),
        ([100, 101, 102, 103], [120, 121, 122, 123], "higher", "better"),
        # overlapping and wider than the 10% bound: cannot tell
        ([80, 100, 120, 140], [90, 110, 130, 150], "lower", "unresolved"),
        # median 9% worse, inside the bound, runs overlap
        ([100, 110, 120, 130], [105, 120, 131, 135], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(base, head, better, expected):
    assert measure.verdict(base, head, better, 0.10)[0] == expected


def _compare(tmp_path, base, head):
    """Verdicts by metric for two svc_light records, and compare's exit code."""
    paths = []
    for name, record in (("a.json", base), ("b.json", head)):
        record = {"failed": 0, **record}
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({"seed": 7, "seconds": 10, "workloads": {"svc_light": record}}))
    rows = measure.compare_files(*paths, SPEC)
    assert {r["workload"] for r in rows} == {"svc_light"}
    return {r["metric"]: r["verdict"] for r in rows}, ledger.main(["compare", *map(str, paths)])


def test_compare_files_uses_spec_bounds(tmp_path):
    base = {"end_to_end": {"rtt_p50_us": [2000, 2010, 2020, 2030]}}
    head = {"end_to_end": {"rtt_p50_us": [2700, 2710, 2720, 2730]}}
    assert _compare(tmp_path, base, head) == ({"rtt_p50_us": "worse", "failed": "unchanged"}, 1)
    assert _compare(tmp_path, base, base) == ({"rtt_p50_us": "unchanged", "failed": "unchanged"}, 0)


def test_compare_gates_failures_and_exact_layer_values(tmp_path):
    base = {"per_layer": {"channels.accepted": [950.0], "wal.log_events_us": [400.0]}}
    assert _compare(tmp_path, base, {**base, "failed": 1}) == (
        {"failed": "worse", "channels.accepted": "unchanged"}, 1
    )
    flipped = {"per_layer": {"channels.accepted": [949.0], "wal.log_events_us": [900.0]}}
    assert _compare(tmp_path, base, flipped) == (
        {"failed": "unchanged", "channels.accepted": "changed"}, 1
    )


def test_one_failed_operation_makes_a_run_incorrect():
    assert ledger.Outcome({}, 10, 0, {"invariants": True}).correct
    assert not ledger.Outcome({}, 10, 1, {"invariants": True}).correct
    assert not ledger.Outcome({}, 10, 0, {"invariants": False}).correct


# ----------------------------------------------------------------------
# slices
# ----------------------------------------------------------------------
def test_a_slow_slice_is_still_a_slice(monkeypatch):
    """Slices are cut by request count, so a pass at half the speed has
    as many slices and every one of them reads half as fast."""

    def pass_at(us_per_request):
        clock = {"ns": 0}
        monkeypatch.setattr(svc.time, "perf_counter_ns", lambda: clock["ns"])
        log = svc.ClientLog(cpu_ns=lambda: clock["ns"] // 2)
        log.tick()
        for index in range(2 * svc.SLICE_REQUESTS + 50):
            clock["ns"] += us_per_request * 1000
            log.record(us_per_request * 1000, is_query=index % 5 == 4)
        return log.slices()

    fast, slow = pass_at(1000), pass_at(2000)
    assert len(fast) == len(slow) == 2
    for a, b in zip(fast, slow):
        assert b["req_per_s"] == pytest.approx(a["req_per_s"] / 2)
        assert b["rtt_p50_us"] == 2 * a["rtt_p50_us"] == 2000
        assert b["cpu_us_per_req"] == 2 * a["cpu_us_per_req"]
    with pytest.raises(RuntimeError, match="fewer than one slice"):
        svc.ClientLog(cpu_ns=lambda: 0).slices()


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_spec_names_and_caps():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in workloads.WORKLOADS]
    for name in names[: -len(SPEC["workloads"])]:  # every metric is some workload's own
        assert any(w.reports(name) for w in workloads.WORKLOADS), name
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert SPEC["paths"] == ["benchmarks/ledger"]


# ----------------------------------------------------------------------
# golden digest
# ----------------------------------------------------------------------
def _quick_batch_checks():
    import dataclasses

    workload = dataclasses.replace(workloads.workload_by_name("engine_batch"), population=300)
    _, attempted, failed, checks = ledger.end_to_end_batch(workload, 7, 2.0, 1)
    assert attempted > 0 and failed == 0
    return checks


def test_golden_digest_fails_when_a_decision_is_flipped(monkeypatch):
    key = "golden:engine_batch:7:2:300"
    assert _quick_batch_checks()[key] is True

    original = workloads.SteadyStateMix.establish
    calls = {"n": 0}

    def flipped(self):
        request = original(self)
        calls["n"] += 1
        if calls["n"] == 350:  # one request of the timed pass asks for another route
            request["dst"] = (request["dst"] + 1) % self.num_nodes
            if request["dst"] == request["src"]:
                request["dst"] = (request["dst"] + 1) % self.num_nodes
        return request

    monkeypatch.setattr(workloads.SteadyStateMix, "establish", flipped)
    checks = _quick_batch_checks()
    assert checks[key] is False
    assert checks["digest_matches_replay"] is True  # still self-consistent, just not the pinned run


# ----------------------------------------------------------------------
# smoke
# ----------------------------------------------------------------------
def test_quick_smoke_of_all_workloads(tmp_path):
    out = tmp_path / "quick.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ledger.LEDGER_DIR / "run.py"),
         "--workload", "all", "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 30, f"quick smoke took {elapsed:.1f}s"
    record = json.loads(out.read_text())["workloads"]
    wanted = {m["name"] for m in SPEC["end_to_end"]}
    for workload in workloads.WORKLOADS:
        assert record[workload.name]["correct"] is True
        assert record[workload.name]["failed"] == 0
        # the driver's JSON carries every name, the record only the workload's own
        assert set(record[workload.name]["metrics"]) == wanted
        assert all(v["value"] > 0 for v in record[workload.name]["metrics"].values())
        assert set(record[workload.name]["end_to_end"]) == {n for n in wanted if workload.reports(n)}
    assert not list(ledger.LEDGER_DIR.glob(".artifacts/*/wal-*"))  # temp WAL dirs are gone
