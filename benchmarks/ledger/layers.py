"""The traced run: where a decision's time goes, module by module.

Four passes, the same for every workload; the workload only sets the
operating point (live population, requests per ``apply_batch``):

(a) an in-process *replica* of the service pipeline on the generated
    stream — decode -> shed check -> ``apply_batch`` -> encode — with
    the benchmark's proxies on the WAL and manager seams, run twice:
    once bare (the tracing-off reference) and once traced.  One logical
    client, so every count repeats exactly for a seed;
(b) one client against the real server, plus a ``query stats`` scrape:
    what the sockets, the event loop and the queue hand-off add on top;
    then both clients, for the query median under contention;
(c) probe calls on the replica's end state (routing, elastic
    redistribution, invariants, digest), then a few link fail/repair
    probes through the manager proxy;
(d) a three-point ``figure2`` campaign, ``jobs=1`` then ``jobs=2``.

Layer names are module names.  Every timing is a median in µs unless
its name says otherwise.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.channels.digest import manager_state_digest
from repro.markov.model import ElasticQoSMarkovModel
from repro.parallel import TopologySpec
from repro.routing.disjoint import disjoint_path
from repro.routing.shortest import bfs_path_rows, dijkstra_path_rows
from repro.service.engine import ServiceEngine
from repro.service.protocol import Request, decode_line, encode_line, parse_request
from repro.service.shedding import BackpressureConfig, admit_decision
from repro.service.wal import encode_record, request_to_record
from repro.topology.graph import link_id

from benchmarks.ledger import campaign, svc
from benchmarks.ledger.batch import build_engine, fresh_wal_dir, prefill
from benchmarks.ledger.measure import percentile
from benchmarks.ledger.spans import TracedManager, TracedWal, Tracer, median_us
from benchmarks.ledger.workloads import (
    PAPER_QOS,
    QUERY_EVERY,
    SteadyStateMix,
    Workload,
    batch_has_toggle,
    is_failure,
)

#: Requests of the one-client server pass: enough mutations that a p99
#: has ten samples beyond it.
SERVER_PASS_REQUESTS = 1300

#: Seeded node pairs of the routing probes.
PROBE_PAIRS = 500

#: Link fail/repair probes at the end state.
TOGGLE_PROBES = 5

#: The traced campaign: three points of figure2.
TRACED_FIGURE2 = (150, 300, 600)


def _decode(frame: bytes) -> Request:
    return parse_request(decode_line(frame))


def _untraced_call(_name: str, fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


@dataclass
class Replica:
    """End state and clock of one pipeline pass."""

    engine: ServiceEngine
    manager: Any
    wall_ns: int
    events: int
    attempted: int
    failed: int
    wal_bytes: int


def replica_pass(
    workload: Workload, seed: int, requests: int, wal_dir: Path, tracer: Optional[Tracer]
) -> Replica:
    """What the server does with the stream, minus sockets and queue."""
    engine = build_engine(wal_dir / ("traced.wal" if tracer else "bare.wal"), workload.batch)
    wal, manager = engine.wal, engine.manager
    assert wal is not None
    links = [list(lid) for lid in engine.net.link_ids()]
    single = workload.batch == 1
    mix = SteadyStateMix(
        seed, engine.net.num_nodes, workload.population,
        query_every=QUERY_EVERY if single else 0, links=links,
    )
    prefill(engine, mix, 64)
    if tracer is not None:
        engine.wal = TracedWal(wal, tracer)
        engine.manager = TracedManager(manager, tracer)
    call = tracer.call if tracer is not None else _untraced_call
    backpressure = BackpressureConfig()
    seq0, bytes0 = engine.seq, wal.durable_bytes
    wall_ns = attempted = failed = 0
    batch_index = 0
    while attempted < requests:
        batch = (
            [mix.next_request()]
            if single
            else mix.next_batch(workload.batch, batch_has_toggle(batch_index))
        )
        frames = [encode_line(request) for request in batch]
        batch_index += 1
        if tracer is not None:
            tracer.trace_id = batch[0]["id"] if single else f"batch-{batch_index}"
            root = tracer.begin("request")
        first_seq = engine.seq
        started = time.perf_counter_ns()
        parsed = [call("protocol.decode", _decode, frame) for frame in frames]
        mutations = [request for request in parsed if request.is_mutation]
        for request in mutations:
            call("shedding.decide", admit_decision, backpressure, 0, request)
        answers = iter(
            call("engine.apply_batch", engine.apply_batch, mutations) if mutations else ()
        )
        replies = [
            call(
                "protocol.encode", encode_line,
                next(answers) if request.is_mutation else call("engine.query", engine.query, request),
            )
            for request in parsed
        ]
        wall_ns += time.perf_counter_ns() - started
        if tracer is not None:
            tracer.end(root)
            # Stand-alone probes, outside the request's span tree.
            for offset, request in enumerate(mutations):
                call("engine.validate", engine.validate, request)
                call("wal.encode", _encode_event, first_seq + offset, request)
        for request, reply in zip(batch, replies):
            response = decode_line(reply)
            mix.observe(request, response)
            failed += is_failure(response)
        attempted += len(batch)
    engine.wal = wal
    engine.manager = manager
    return Replica(
        engine=engine, manager=manager, wall_ns=wall_ns, events=engine.seq - seq0,
        attempted=attempted, failed=failed, wal_bytes=wal.durable_bytes - bytes0,
    )


def _encode_event(seq: int, request: Request) -> bytes:
    return encode_record(request_to_record(seq, request))


def replica_metrics(tracer: Tracer, replica: Replica) -> Dict[str, float]:
    """Layer medians and counts of the traced replica pass."""
    dur = tracer.durations()
    own = tracer.self_times()
    stats = replica.manager.stats
    cache = replica.manager.route_cache
    log_events = median_us(dur.get("wal.log_events"))
    encode = median_us(dur.get("wal.encode"))
    per_call = replica.events / max(1, len(dur.get("wal.log_events", ())))
    probes = cache.hits + cache.fallbacks
    return {
        "protocol.decode_us": median_us(dur.get("protocol.decode")),
        "protocol.encode_us": median_us(dur.get("protocol.encode")),
        "shedding.decide_us": median_us(dur.get("shedding.decide")),
        "engine.validate_us": median_us(dur.get("engine.validate")),
        "engine.apply_batch_us": median_us(dur.get("engine.apply_batch")),
        "engine.self_us": median_us(own.get("engine.apply_batch")),
        "wal.encode_us": encode,
        "wal.log_events_us": log_events,
        "wal.log_epoch_us": median_us(dur.get("wal.log_epoch")),
        "wal.write_fsync_us": log_events - per_call * encode,
        "wal.bytes_per_event": replica.wal_bytes / max(1, replica.events),
        "channels.request_connection_us": median_us(dur.get("channels.request_connection")),
        "channels.terminate_connection_us": median_us(dur.get("channels.terminate_connection")),
        "channels.end_micro_epoch_us": median_us(dur.get("channels.end_micro_epoch")),
        "channels.accepted": float(stats.accepted),
        "channels.rejected_no_primary": float(stats.rejected_no_primary),
        "channels.rejected_no_backup": float(stats.rejected_no_backup),
        "channels.admit_share": stats.accepted / max(1, stats.requests),
        "routing.plan_hits": float(cache.hits),
        "routing.plan_fallbacks": float(cache.fallbacks),
        "routing.plan_hit_share": cache.hits / max(1, probes),
    }


def probe_pass(manager: Any, tracer: Tracer, seed: int) -> Dict[str, float]:
    """Stand-alone calls into single modules at the replica's end state."""
    rng = random.Random(seed)
    net = manager.topology
    rows = manager.state.adjacency_rows()
    nodes = net.num_nodes
    pairs = []
    while len(pairs) < PROBE_PAIRS:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            pairs.append((a, b))
    b_min = PAPER_QOS["b_min"]
    generation = manager.state.generation
    cache = manager.route_cache
    hits, fallbacks = cache.hits, cache.fallbacks
    plan_ns, dijkstra_ns, disjoint_ns = [], [], []
    for a, b in pairs:
        plan_ns.append(_timed(cache.primary_plan, a, b, b_min, generation))
        dijkstra_ns.append(_timed(dijkstra_path_rows, rows, a, b, None, _unit_weight))
        path = bfs_path_rows(rows, a, b)
        avoid = frozenset(link_id(u, v) for u, v in zip(path, path[1:]))
        disjoint_ns.append(_timed(disjoint_path, net, a, b, avoid))
    cache.hits, cache.fallbacks = hits, fallbacks
    out = {
        "routing.primary_plan_us": median_us(plan_ns),
        "routing.dijkstra_us": median_us(dijkstra_ns),
        "routing.disjoint_us": median_us(disjoint_ns),
        "elastic.redistribute_all_us": median_us(
            [_timed(manager.redistribute_all) for _ in range(20)]
        ),
        "network.check_invariants_us": median_us(
            [_timed(manager.check_invariants) for _ in range(5)]
        ),
        "channels.digest_us": median_us(
            [_timed(manager_state_digest, manager) for _ in range(5)]
        ),
        "channels.avg_bw_query_us": median_us(
            [_timed(manager.average_live_bandwidth) for _ in range(200)]
        ),
    }
    # Last, because they change the state: fail and repair a few links
    # through the proxy so both spans exist on every workload.
    traced = TracedManager(manager, tracer)
    tracer.trace_id = "probe"
    alive = [lid for lid in net.link_ids() if not manager.state.is_failed(lid)]
    for lid in rng.sample(alive, TOGGLE_PROBES):
        traced.fail_link(lid)
        traced.repair_link(lid)
    dur = tracer.durations()
    out["channels.fail_link_us"] = median_us(dur.get("channels.fail_link"))
    out["channels.repair_link_us"] = median_us(dur.get("channels.repair_link"))
    return out


def _unit_weight(_lid: Any, _payload: Any) -> float:
    return 1.0


def _timed(fn: Callable[..., Any], *args: Any) -> int:
    started = time.perf_counter_ns()
    fn(*args)
    return time.perf_counter_ns() - started


def server_pass(workload: Workload, seed: int, artifacts: Path) -> Tuple[Dict[str, float], int, int]:
    """The real server: one closed-loop client, its stats, then two clients.

    Returns the layer metrics and the requests attempted and failed.
    """
    alone, contended = svc.ClientLog(), svc.ClientLog()
    (artifacts / "server.stderr").write_bytes(b"")
    with svc.ServerProcess(artifacts) as server:

        async def drive() -> Dict[str, Any]:
            clients = await svc.open_clients(server.port, workload, seed, svc.CLIENTS)
            try:
                await clients[0].run(SERVER_PASS_REQUESTS, alone)
                stats = await svc.query(server.port, "stats")
                await asyncio.gather(
                    *(c.run(SERVER_PASS_REQUESTS // svc.CLIENTS, contended) for c in clients)
                )
            finally:
                await svc.close_clients(clients)
            return stats["result"]["service"]

        service = asyncio.run(drive())
        server.drain()
    out = {
        "client.rtt1_p50_us": percentile(alone.mutation_ns, 0.5) / 1e3,
        "client.rtt_p99_us": percentile(alone.mutation_ns, 0.99) / 1e3,
        "client.query_p90_us": percentile(alone.query_ns, 0.9) / 1e3,
        "client.query_p50_us": percentile(contended.query_ns, 0.5) / 1e3,
        "server.decision_p50_us": float(service["latency"]["p50_us"]),
        "server.shed": float(service["shed"]),
        "server.expired": float(service["expired"]),
        "server.queue_depth": float(service["queue_depth"]),
        "server.stderr_lines": float(svc.stderr_lines(artifacts)),
    }
    return out, alone.attempted + contended.attempted, alone.failed + contended.failed


def campaign_pass() -> Dict[str, float]:
    """A three-point figure2 campaign at ``jobs=1``, then at ``jobs=2``."""
    spec = TopologySpec("waxman", 10000.0, 0, nodes=campaign.NODES, edges=campaign.EDGES)
    build_ns = [_timed(spec.build) for _ in range(5)]
    settings = campaign.RunSettings(
        warmup_events=200, measure_events=campaign.MIN_MEASURE_EVENTS
    )
    only_figure2 = dict(figure2=TRACED_FIGURE2, figure4=(), table1=())
    single = campaign.run_exhibits(settings, **only_figure2)
    double = campaign.run_exhibits(settings, jobs=2, **only_figure2)
    job_walls = [job.wall_time for job in single.jobs]
    qos = single.jobs[0].job.qos.performance
    solve_ns = [
        _timed(ElasticQoSMarkovModel(qos, job.result.params).average_bandwidth)
        for job in single.jobs
        for _ in range(5)
    ]
    return {
        "topology.build_ms": median_us(build_ns) / 1e3,
        "sim.job_s_total": sum(job_walls),
        "sim.job_s_max": max(job_walls),
        "sim.us_per_event": 1e6 * sum(job_walls) / single.sim_events,
        "markov.solve_us": median_us(solve_ns),
        "parallel.overhead_s": single.wall_s - sum(job_walls),
        "parallel.jobs2_wall_s": double.wall_s,
        "model_abs_err_pct": single.model_abs_err_pct(),
    }


@dataclass
class LayerRun:
    """Outcome of one traced run."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    trace_path: Path
    spans: int


def run_layers(workload: Workload, seed: int, seconds: float) -> LayerRun:
    artifacts = svc.ARTIFACTS / workload.name
    artifacts.mkdir(parents=True, exist_ok=True)
    # The replica's stream is a fixed multiple of --seconds, whatever
    # the workload's own rate: the counts must repeat exactly.
    requests = max(256, int(200 * seconds))
    tracer = Tracer()
    wal_dir = fresh_wal_dir(artifacts)
    try:
        bare = replica_pass(workload, seed, requests, wal_dir, None)
        traced = replica_pass(workload, seed, requests, wal_dir, tracer)
        bare.engine.close()
        traced.engine.close()
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    metrics = replica_metrics(tracer, traced)
    checks = {
        # Tracing must not change a single decision.
        "traced_digest_matches_bare": manager_state_digest(bare.manager)
        == manager_state_digest(traced.manager),
        "invariants": svc.manager_is_sound(traced.manager),
    }
    bare_rate = bare.events / bare.wall_ns
    traced_rate = traced.events / traced.wall_ns
    metrics["trace.overhead_pct"] = 100.0 * (bare_rate - traced_rate) / bare_rate
    metrics.update(probe_pass(traced.manager, tracer, seed))
    server_metrics, server_attempted, server_failed = server_pass(workload, seed, artifacts)
    metrics.update(server_metrics)
    # What one mutation costs in process: the sum of its layer medians
    # (one request's share of a batched apply_batch call).
    in_process = (
        metrics["protocol.decode_us"]
        + metrics["shedding.decide_us"]
        + metrics["engine.apply_batch_us"] / workload.batch
        + metrics["protocol.encode_us"]
    )
    metrics["server.residual_us"] = metrics["client.rtt1_p50_us"] - in_process
    metrics.update(campaign_pass())
    attempted = traced.attempted + server_attempted
    failed = traced.failed + server_failed
    metrics["fail_share"] = failed / attempted
    trace_path = artifacts / "trace.jsonl"
    tracer.write(trace_path)
    return LayerRun(
        metrics=metrics, attempted=attempted, failed=failed, checks=checks,
        trace_path=trace_path, spans=len(tracer.spans),
    )
