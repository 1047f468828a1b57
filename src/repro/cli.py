"""Command-line interface: regenerate the paper's exhibits from a shell.

``python -m repro <command>`` exposes the experiment runners without
writing any Python:

* ``figure2`` / ``table1`` / ``figure3`` / ``figure4`` — regenerate one
  exhibit and print its rows/series;
* ``validate`` — run one simulation and print the full sim-vs-model
  validation report (average bandwidth, per-state π, TV distance);
* ``faultsim`` — run one fault-injection scenario (correlated bursts,
  node failures, Markov on/off links, backup-activation faults) with
  run-time invariant auditing and print the dependability counters;
* ``topology`` — generate a Waxman or transit-stub network and print
  its structural metrics.

All commands accept ``--seed`` and size options; ``--full`` switches to
the paper's exact scale.  Campaign commands also take ``--checkpoint``
/ ``--resume`` (persist finished jobs, skip them on re-run) and
``--retries`` / ``--job-timeout`` (crash-resilient execution).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.ascii_chart import chart_rows
from repro.analysis.experiments import (
    RunSettings,
    paper_connection_qos,
    run_figure2,
    run_figure3,
    run_figure4,
    run_table1,
    simulate_point,
)
from repro.analysis.report import render_table
from repro.analysis.chaining import expected_arrival_chaining, snapshot_chaining
from repro.analysis.validation import validate_against_model
from repro.faults import AuditPolicy, FaultConfig
from repro.parallel import CampaignCheckpoint, RetryPolicy, atomic_write_text
from repro.topology.metrics import (
    average_degree,
    average_shortest_path_hops,
    diameter,
    is_connected,
    leaf_nodes,
)
from repro.topology.transit_stub import TransitStubParams, transit_stub_network
from repro.topology.waxman import paper_random_network
from repro.units import PAPER_FAILURE_RATES, PAPER_LINK_CAPACITY


def _int_list(text: str) -> List[int]:
    """Parse a comma-separated integer list ('500,1000,2000')."""
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}") from exc


def _settings(args: argparse.Namespace) -> RunSettings:
    if args.full:
        return RunSettings(warmup_events=500, measure_events=3000, seed=args.seed)
    return RunSettings(warmup_events=200, measure_events=1000, seed=args.seed)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="RNG seed (default 7)")
    parser.add_argument(
        "--full", action="store_true", help="paper-exact scale (slower)"
    )
    parser.add_argument("--nodes", type=int, default=None, help="network size")
    parser.add_argument("--edges", type=int, default=None, help="target edge count")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for simulation campaigns (0 = all cores; "
        "default: REPRO_JOBS env or 1; results are identical at any value)",
    )
    parser.add_argument(
        "--chart", action="store_true", help="also render an ASCII chart"
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="persist finished simulation jobs under this directory",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse jobs already completed in --checkpoint instead of re-running",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-run a failed/hung job up to this many times with the same seed",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget (pool mode); overdue jobs are retried",
    )


def _campaign_kwargs(args: argparse.Namespace, exhibit: str) -> dict:
    """Retry/checkpoint kwargs for one exhibit's campaign.

    Each exhibit checkpoints into its own subdirectory so ``report``
    (which runs several campaigns) never mixes their manifests.
    """
    checkpoint = None
    if args.checkpoint:
        checkpoint = CampaignCheckpoint(
            Path(args.checkpoint) / exhibit, resume=args.resume
        )
    return {
        "retry": RetryPolicy(max_retries=args.retries, timeout=args.job_timeout),
        "checkpoint": checkpoint,
    }


def _network_shape(args: argparse.Namespace) -> tuple[int, int]:
    nodes = args.nodes if args.nodes is not None else (100 if args.full else 60)
    edges = args.edges if args.edges is not None else (354 if args.full else 130)
    return nodes, edges


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_figure2(args: argparse.Namespace) -> int:
    nodes, edges = _network_shape(args)
    counts = args.connections or ([500, 1000, 2000, 3000, 4000, 5000] if args.full
                                  else [150, 300, 600, 1000, 1500])
    result = run_figure2(
        counts, nodes=nodes, edges=edges, settings=_settings(args), jobs=args.jobs,
        **_campaign_kwargs(args, "figure2"),
    )
    print(
        render_table(
            ["offered", "population", "sim Kb/s", "model Kb/s", "ideal Kb/s"],
            [
                [r.offered, r.population, r.simulated, r.analytic, r.ideal]
                for r in result.rows
            ],
            title=(
                f"Figure 2 ({result.nodes} nodes, {result.edges} edges, "
                f"avg hops {result.average_hops:.2f})"
            ),
        )
    )
    if args.chart:
        print()
        print(chart_rows(result.rows, "offered", ["simulated", "analytic"],
                         x_label="offered connections", y_label="avg bandwidth Kb/s"))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    nodes, edges = _network_shape(args)
    counts = args.connections or ([1000, 2000, 3000, 4000, 5000] if args.full
                                  else [300, 800, 1500])
    rows = run_table1(
        counts, nodes=nodes, edges=edges, settings=_settings(args), jobs=args.jobs,
        **_campaign_kwargs(args, "table1"),
    )
    print(
        render_table(
            ["offered", "Random Δ=100", "Random Δ=50", "Tier Δ=100", "Tier Δ=50"],
            [
                [r.offered, r.random_5_states, r.random_9_states,
                 r.tier_5_states, r.tier_9_states]
                for r in rows
            ],
            title="Table 1 — avg bandwidth (Kb/s) per increment size",
        )
    )
    return 0


def cmd_figure3(args: argparse.Namespace) -> int:
    node_counts = args.node_counts or ([100, 200, 300, 400, 500] if args.full
                                       else [40, 60, 80, 100])
    connections = args.connections_fixed or (3000 if args.full else 600)
    rows = run_figure3(
        node_counts, connections=connections, settings=_settings(args), jobs=args.jobs,
        **_campaign_kwargs(args, "figure3"),
    )
    print(
        render_table(
            ["nodes", "edges", "sim Kb/s", "model Kb/s"],
            [[r.nodes, r.edges, r.simulated, r.analytic] for r in rows],
            title=f"Figure 3 — avg bandwidth vs. network size ({connections} connections)",
        )
    )
    if args.chart:
        print()
        print(chart_rows(rows, "nodes", ["simulated", "analytic"],
                         x_label="network size (nodes)", y_label="avg bandwidth Kb/s"))
    return 0


def cmd_figure4(args: argparse.Namespace) -> int:
    nodes, edges = _network_shape(args)
    populations = args.populations or ([2000, 3000] if args.full else [400, 700])
    rates = list(PAPER_FAILURE_RATES)
    series = run_figure4(
        rates,
        populations=populations,
        nodes=nodes,
        edges=edges,
        settings=_settings(args),
        jobs=args.jobs,
        **_campaign_kwargs(args, "figure4"),
    )
    print(
        render_table(
            ["failure rate γ"] + [f"Avg{s.population}ft" for s in series],
            [
                [f"{gamma:.0e}"] + [s.analytic[i] for s in series]
                for i, gamma in enumerate(rates)
            ],
            title="Figure 4 — avg bandwidth (Kb/s) vs. link failure rate",
        )
    )
    if args.chart:
        import math

        chart_series = {
            f"pop {s.population}": [
                (math.log10(g), bw) for g, bw in zip(rates, s.analytic)
            ]
            for s in series
        }
        print()
        from repro.analysis.ascii_chart import ascii_chart

        print(ascii_chart(chart_series, x_label="log10(failure rate)",
                          y_label="avg bandwidth Kb/s"))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    nodes, edges = _network_shape(args)
    rng = np.random.default_rng(args.seed)
    net = paper_random_network(PAPER_LINK_CAPACITY, rng, n=nodes, target_edges=edges)
    qos = paper_connection_qos()
    result, _model = simulate_point(net, args.load, qos, _settings(args))
    report = validate_against_model(result, qos.performance)
    print(
        f"validation at {args.load} offered connections "
        f"({nodes} nodes / {net.num_links} links):"
    )
    print(report.render())
    return 0


def cmd_faultsim(args: argparse.Namespace) -> int:
    """One fault-injection scenario with run-time invariant auditing."""
    from repro.sim.simulator import ElasticQoSSimulator, SimulationConfig
    from repro.sim.workload import WorkloadConfig

    nodes, edges = _network_shape(args)
    rng = np.random.default_rng(args.seed)
    net = paper_random_network(PAPER_LINK_CAPACITY, rng, n=nodes, target_edges=edges)
    faults = FaultConfig(
        mode=args.mode,
        burst_size=args.burst_size,
        burst_kernel=args.kernel,
        activation_fault_prob=args.activation_fault_prob,
        rate_spread=args.rate_spread,
        rate_seed=args.seed,
    )
    warmup = args.events // 5
    config = SimulationConfig(
        qos=paper_connection_qos(),
        offered_connections=args.load,
        workload=WorkloadConfig(
            link_failure_rate=args.failure_rate, repair_rate=args.repair_rate
        ),
        warmup_events=warmup,
        measure_events=args.events - warmup,
        faults=faults,
        audit=AuditPolicy(after_failure=True, every_n_events=args.audit_every),
    )
    result = ElasticQoSSimulator(net, config, seed=args.seed).run()
    stats = result.manager_stats
    print(
        f"fault scenario '{args.mode}' on {nodes} nodes / {net.num_links} links, "
        f"{result.events} events, t_end={result.end_time:.0f}:"
    )
    print(f"  avg bandwidth:         {result.average_bandwidth:.1f} Kb/s")
    print(f"  link failures/repairs: {stats.link_failures}/{stats.link_repairs}")
    print(f"  node failures:         {stats.node_failures}")
    print(f"  backups activated:     {stats.backups_activated}")
    print(f"  activation faults:     {stats.activation_faults}")
    print(f"  connections dropped:   {stats.connections_dropped}")
    print(f"  double-failure drops:  {stats.double_failure_drops}")
    print(f"  backups lost/rebuilt:  {stats.backups_lost}/{stats.backups_reestablished}")
    print(f"  invariant audits:      {result.audit_checks} (all passed)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate every exhibit and write one markdown report."""
    nodes, edges = _network_shape(args)
    settings = _settings(args)
    lines: List[str] = ["# Reproduction report", ""]
    lines.append(f"Scale: {'paper-exact' if args.full else 'quick'}; seed {args.seed}; "
                 f"{nodes}-node / ~{edges}-edge Waxman network.")
    lines.append("")

    counts = [500, 1000, 2000, 3000, 4000, 5000] if args.full else [150, 300, 600, 1000]
    fig2 = run_figure2(counts, nodes=nodes, edges=edges, settings=settings,
                       jobs=args.jobs, **_campaign_kwargs(args, "figure2"))
    lines.append("## Figure 2 — avg bandwidth vs. #connections")
    lines.append("```")
    lines.append(
        render_table(
            ["offered", "sim", "model", "ideal"],
            [[r.offered, r.simulated, r.analytic, r.ideal] for r in fig2.rows],
        )
    )
    lines.append("```")

    t1_counts = [1000, 3000, 5000] if args.full else [300, 800]
    table1 = run_table1(t1_counts, nodes=nodes, edges=edges, settings=settings,
                        jobs=args.jobs, **_campaign_kwargs(args, "table1"))
    lines.append("## Table 1 — increment sizes")
    lines.append("```")
    lines.append(
        render_table(
            ["offered", "Random Δ=100", "Random Δ=50", "Tier Δ=100", "Tier Δ=50"],
            [[r.offered, r.random_5_states, r.random_9_states,
              r.tier_5_states, r.tier_9_states] for r in table1],
        )
    )
    lines.append("```")

    f3_nodes = [100, 300, 500] if args.full else [40, 70, 100]
    f3_conns = 3000 if args.full else 400
    fig3 = run_figure3(f3_nodes, connections=f3_conns, settings=settings,
                       jobs=args.jobs, **_campaign_kwargs(args, "figure3"))
    lines.append(f"## Figure 3 — network size ({f3_conns} connections)")
    lines.append("```")
    lines.append(
        render_table(
            ["nodes", "edges", "sim", "model"],
            [[r.nodes, r.edges, r.simulated, r.analytic] for r in fig3],
        )
    )
    lines.append("```")

    pops = [2000, 3000] if args.full else [300, 500]
    fig4 = run_figure4(list(PAPER_FAILURE_RATES), populations=pops,
                       nodes=nodes, edges=edges, settings=settings, jobs=args.jobs,
                       **_campaign_kwargs(args, "figure4"))
    lines.append("## Figure 4 — failure-rate sweep (model)")
    lines.append("```")
    lines.append(
        render_table(
            ["γ"] + [f"pop {s.population}" for s in fig4],
            [[f"{g:.0e}"] + [s.analytic[i] for s in fig4]
             for i, g in enumerate(PAPER_FAILURE_RATES)],
        )
    )
    lines.append("```")

    text = "\n".join(lines)
    if args.output:
        atomic_write_text(Path(args.output), text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def cmd_chaining(args: argparse.Namespace) -> int:
    nodes, edges = _network_shape(args)
    rng = np.random.default_rng(args.seed)
    net = paper_random_network(PAPER_LINK_CAPACITY, rng, n=nodes, target_edges=edges)
    qos = paper_connection_qos()
    from repro.sim.simulator import ElasticQoSSimulator, SimulationConfig

    config = SimulationConfig(
        qos=qos,
        offered_connections=args.load,
        warmup_events=0,
        measure_events=1,
    )
    sim = ElasticQoSSimulator(net, config, seed=args.seed)
    sim.establish_initial_population()
    snap = snapshot_chaining(sim.manager)
    mc_pf, mc_ps = expected_arrival_chaining(
        sim.manager, num_samples=args.samples, rng=np.random.default_rng(args.seed + 1)
    )
    print(f"chaining at {snap.num_channels} live channels "
          f"({nodes} nodes / {net.num_links} links):")
    print(f"  population pairwise:  Pf={snap.pf:.4f}  Ps={snap.ps:.4f}")
    print(f"  random-arrival view:  Pf={mc_pf:.4f}  Ps={mc_ps:.4f} "
          f"({args.samples} sampled routes)")
    print(f"  mean directly-chained peers per channel: "
          f"{snap.mean_direct_degree:.1f}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Determinism-aware static analysis (delegates to ``repro.lint``)."""
    from repro.lint.cli import main as lint_main

    return lint_main(args.lint_args)


def _bench_workload(population: int, seed: int):
    """The ``bench_core_ops`` fixture workload, rebuilt CLI-side.

    Same topology, seed and population as
    ``benchmarks/bench_core_ops.loaded_manager`` so profile dumps line
    up with the pytest-benchmark numbers in BENCH_core_ops.json.
    """
    from repro.channels import make_manager

    rng = np.random.default_rng(seed)
    net = paper_random_network(PAPER_LINK_CAPACITY, rng, n=60, target_edges=130)
    manager = make_manager(net)
    qos = paper_connection_qos()
    nodes = np.array(net.nodes())
    pair_rng = np.random.default_rng(seed + 1)
    while manager.num_live < population:
        src, dst = pair_rng.choice(nodes, size=2, replace=False)
        manager.request_connection(int(src), int(dst), qos)
    return net, manager, qos, pair_rng, nodes


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the hot-path micro-benchmarks, optionally under cProfile."""
    import cProfile
    import io
    import pstats
    import time

    names = ("request", "failrep") if args.benchmark == "all" else (args.benchmark,)
    for name in names:
        net, manager, qos, pair_rng, nodes = _bench_workload(args.population, args.seed)
        links = net.link_ids()

        if name == "request":

            def body(events: int) -> None:
                for _ in range(events):
                    src, dst = pair_rng.choice(nodes, size=2, replace=False)
                    conn, _ = manager.request_connection(int(src), int(dst), qos)
                    if conn is not None:
                        manager.terminate_connection(conn.conn_id)

        else:

            def body(events: int) -> None:
                for i in range(events):
                    lid = links[i % len(links)]
                    manager.fail_link(lid)
                    manager.repair_link(lid)

        body(min(50, args.events))  # warm route cache and code paths
        if args.profile:
            profiler = cProfile.Profile()
            # Benchmark layer: wall-clock is the measurement, not sim time.
            t0 = time.perf_counter()  # repro-lint: disable=DET003
            profiler.enable()
            body(args.events)
            profiler.disable()
            elapsed = time.perf_counter() - t0  # repro-lint: disable=DET003
            buf = io.StringIO()
            pstats.Stats(profiler, stream=buf).strip_dirs().sort_stats(
                "cumulative"
            ).print_stats(args.top)
            header = (
                f"# repro bench --profile: {name}\n"
                f"# {args.events} events, {elapsed * 1e6 / args.events:.1f} "
                "us/event -- cProfile's per-call overhead inflates "
                "call-heavy code; compare wall-clock via pytest-benchmark\n"
            )
            out = Path(args.out) / f"bench_{name}.prof.txt"
            atomic_write_text(out, header + buf.getvalue())
            print(header.rstrip())
            print(f"profile written to {out}")
        else:
            t0 = time.perf_counter()  # repro-lint: disable=DET003
            body(args.events)
            elapsed = time.perf_counter() - t0  # repro-lint: disable=DET003
            print(
                f"{name:8s} {args.events} events: "
                f"{elapsed * 1e6 / args.events:8.1f} us/event"
            )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on admission service until drained (SIGTERM/^C)."""
    import asyncio
    import json
    import os

    from repro.service import EngineConfig, parse_topology_arg
    from repro.service.chaos import (
        ChaosSchedule,
        DiskFaultPlan,
        chaos_point,
        install_chaos,
    )
    from repro.service.server import AdmissionService, ServiceConfig
    from repro.service.shedding import BackpressureConfig

    disk_faults = None
    if args.chaos_disk is not None:
        disk_faults = DiskFaultPlan.from_spec(args.chaos_disk)
    if args.chaos_crash is not None:
        install_chaos(ChaosSchedule.from_spec(args.chaos_crash))
    elif args.chaos_seed is not None:
        install_chaos(ChaosSchedule.from_seed(args.chaos_seed))

    config = ServiceConfig(
        topology=parse_topology_arg(args.topology),
        wal_path=args.wal,
        host=args.host,
        port=args.port,
        engine=EngineConfig(batch_max=args.batch_max),
        backpressure=BackpressureConfig(
            queue_limit=args.queue_limit,
            shed_watermark=args.shed_watermark,
            drain_rate_hint=args.drain_rate_hint,
        ),
        default_deadline_ms=args.deadline_ms,
        epoch_hold_s=args.epoch_hold_s,
        disk_faults=disk_faults,
    )

    async def run() -> None:
        service = AdmissionService(config)
        await service.start(install_signals=True)
        # Machine-readable startup line: tests and orchestrators read
        # the bound port (and recovery status) from here.
        print(
            json.dumps(
                {
                    "event": "listening",
                    "host": config.host,
                    "port": service.port,
                    "pid": os.getpid(),
                    "recovered": service.recovered,
                    "seq": service.engine.seq if service.engine else 0,
                }
            ),
            flush=True,
        )
        chaos_point("post-listen")
        await service.drained()
        assert service.engine is not None
        print(
            json.dumps(
                {
                    "event": "drained",
                    "seq": service.engine.seq,
                    "digest": service.engine.digest(),
                }
            ),
            flush=True,
        )

    asyncio.run(run())
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running service; report latency and check the SLOs."""
    import json

    from repro.service.loadgen import LoadgenConfig, run_loadgen_sync

    report = run_loadgen_sync(
        LoadgenConfig(
            host=args.host,
            port=args.port,
            total_requests=args.requests,
            concurrency=args.concurrency,
            seed=args.seed,
            deadline_ms=args.deadline_ms,
        )
    )
    client = report.latency_summary()
    service_latency = report.service_stats.get("latency", {})
    summary = {
        "sent": report.sent,
        "accepted": report.accepted,
        "rejected": report.rejected,
        "torn_down": report.torn_down,
        "failures_driven": report.failures_driven,
        "shed": report.shed,
        "retries": report.retries,
        "dropped_after_retries": report.dropped_after_retries,
        "expired": report.expired,
        "errors": report.errors,
        "disconnects": report.disconnects,
        "reconnects": report.reconnects,
        "aborted": report.aborted,
        "client_latency": client,
        "service_latency": service_latency,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    if report.aborted:
        # The server died under us and reconnection was exhausted; the
        # partial stats above are still valid — say so and exit distinctly.
        print("ABORTED: server unreachable after bounded reconnect attempts")
        return 3
    failures = 0
    p50 = float(service_latency.get("p50_us", 0.0))
    p99 = float(service_latency.get("p99_us", 0.0))
    if args.slo_p50_us is not None and p50 > args.slo_p50_us:
        print(f"SLO VIOLATION: p50 {p50:.1f} us > {args.slo_p50_us:.1f} us")
        failures += 1
    if args.slo_p99_us is not None and p99 > args.slo_p99_us:
        print(f"SLO VIOLATION: p99 {p99:.1f} us > {args.slo_p99_us:.1f} us")
        failures += 1
    if report.errors:
        print(f"SLO VIOLATION: {report.errors} hard errors")
        failures += 1
    return 1 if failures else 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a service WAL offline; verify, cross-check, or export it."""
    import json

    from repro.service.replay import export_campaign, reference_replay_digest, replay_log

    result = replay_log(args.log)
    summary = {
        "events": result.events_applied,
        "accepted_establishes": result.accepted,
        "clean_shutdown": result.clean_shutdown,
        "torn_tail": result.torn_tail,
        "digest": result.digest,
        "num_live": result.engine.manager.num_live,
    }
    if args.cross_check:
        summary["cross_check_match"] = reference_replay_digest(args.log) == result.digest
    if args.expect_digest is not None:
        summary["digest_match"] = result.digest == args.expect_digest
    if args.export is not None:
        summary["export"] = export_campaign(args.log, args.export)
    print(json.dumps(summary, indent=2, sort_keys=True))
    if summary.get("cross_check_match") is False:
        print("FAIL: the reference manager disagrees on replayed state")
        return 1
    if summary.get("digest_match") is False:
        print("FAIL: replayed digest does not match --expect-digest")
        return 1
    return 0


def cmd_supervise(args: argparse.Namespace) -> int:
    """Run `repro serve` under a restart loop with digest cross-checks.

    Exit codes: 0 clean child exit, 2 restart budget exhausted, 3 crash
    loop detected, 4 recovery digest mismatch (the one that must never
    happen), 5 terminated by operator.
    """
    import json

    from repro.service.procs import serve_argv
    from repro.service.supervisor import ServeSupervisor, SupervisorPolicy

    extra = []
    if args.chaos_crash is not None:
        extra += ["--chaos-crash", args.chaos_crash]
    if args.chaos_seed is not None:
        extra += ["--chaos-seed", str(args.chaos_seed)]
    supervisor = ServeSupervisor(
        serve_argv(args.topology, args.wal, extra),
        args.wal,
        SupervisorPolicy(
            max_restarts=args.max_restarts,
            backoff_base_s=args.backoff_base_s,
            backoff_cap_s=args.backoff_cap_s,
            crash_loop_threshold=args.crash_loop_threshold,
            min_healthy_uptime_s=args.min_healthy_uptime_s,
            chaos_once=not args.chaos_every_restart,
        ),
    )
    report = supervisor.run()
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return {
        "clean-exit": 0,
        "restart-budget-exhausted": 2,
        "crash-loop": 3,
        "digest-mismatch": 4,
        "terminated": 5,
    }.get(report.outcome, 1)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos soak: crash-point trials and the disk-fault smoke."""
    import json
    import tempfile

    from repro.service.soak import run_disk_smoke, run_soak

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as fallback:
        workdir = args.workdir or fallback
        summary: dict = {}
        ok = True
        if not args.disk_smoke_only:
            report = run_soak(
                workdir,
                seed=args.seed,
                trials=args.trials,
                requests=args.requests,
                sweep=args.sweep,
                topology=args.topology,
            )
            summary["soak"] = report.to_dict()
            ok = ok and report.ok
        if args.disk_smoke or args.disk_smoke_only:
            smoke = run_disk_smoke(workdir, seed=args.seed, topology=args.topology)
            summary["disk_smoke"] = smoke
            ok = ok and smoke["ok"]
    summary["ok"] = ok
    print(json.dumps(summary, indent=2, sort_keys=True))
    if not ok:
        print("FAIL: durability invariant violated under chaos (see report)")
    return 0 if ok else 1


def cmd_topology(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.kind == "waxman":
        nodes, edges = _network_shape(args)
        net = paper_random_network(PAPER_LINK_CAPACITY, rng, n=nodes, target_edges=edges)
    else:
        net = transit_stub_network(TransitStubParams(), PAPER_LINK_CAPACITY, rng)
    print(f"{args.kind} network: {net.num_nodes} nodes, {net.num_links} links")
    print(f"  connected:      {is_connected(net)}")
    print(f"  average degree: {average_degree(net):.2f}")
    print(f"  diameter:       {diameter(net)}")
    print(f"  avg hops:       {average_shortest_path_hops(net):.2f}")
    print(f"  leaf nodes:     {len(leaf_nodes(net))}")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Kim & Shin (DSN 2001): dependable real-time "
        "communication with elastic QoS.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure2", help="avg bandwidth vs. #connections")
    _add_common(p)
    p.add_argument("--connections", type=_int_list, default=None,
                   help="comma-separated offered counts")
    p.set_defaults(func=cmd_figure2)

    p = sub.add_parser("table1", help="avg bandwidth per increment size")
    _add_common(p)
    p.add_argument("--connections", type=_int_list, default=None)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("figure3", help="avg bandwidth vs. network size")
    _add_common(p)
    p.add_argument("--node-counts", type=_int_list, default=None)
    p.add_argument("--connections-fixed", type=int, default=None)
    p.set_defaults(func=cmd_figure3)

    p = sub.add_parser("figure4", help="avg bandwidth vs. failure rate")
    _add_common(p)
    p.add_argument("--populations", type=_int_list, default=None)
    p.set_defaults(func=cmd_figure4)

    p = sub.add_parser("validate", help="sim-vs-model validation report")
    _add_common(p)
    p.add_argument("--load", type=int, default=600, help="offered connections")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("faultsim", help="fault-injection scenario with auditing")
    _add_common(p)
    p.add_argument("--mode", choices=("single", "node", "burst", "markov"),
                   default="burst", help="failure process (default: burst)")
    p.add_argument("--burst-size", type=int, default=3,
                   help="links failed per burst event")
    p.add_argument("--kernel", choices=("shared-node", "distance"),
                   default="shared-node", help="burst-growth kernel")
    p.add_argument("--activation-fault-prob", type=float, default=0.05,
                   help="probability a backup activation itself fails")
    p.add_argument("--rate-spread", type=float, default=0.5,
                   help="lognormal σ of per-link rates (markov mode)")
    p.add_argument("--failure-rate", type=float, default=2e-4,
                   help="per-link failure rate γ")
    p.add_argument("--repair-rate", type=float, default=1.0,
                   help="per-failed-link repair rate")
    p.add_argument("--events", type=int, default=3000, help="total events")
    p.add_argument("--load", type=int, default=300, help="offered connections")
    p.add_argument("--audit-every", type=int, default=0,
                   help="also audit every N events (failures always audit)")
    p.set_defaults(func=cmd_faultsim)

    p = sub.add_parser("report", help="regenerate all exhibits into one report")
    _add_common(p)
    p.add_argument("--output", default=None, help="write markdown to this file")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("chaining", help="static Pf/Ps chaining analysis")
    _add_common(p)
    p.add_argument("--load", type=int, default=400, help="connections to establish")
    p.add_argument("--samples", type=int, default=100, help="Monte-Carlo routes")
    p.set_defaults(func=cmd_chaining)

    p = sub.add_parser(
        "bench", help="hot-path micro-benchmarks (optionally under cProfile)"
    )
    p.add_argument("--benchmark", choices=("request", "failrep", "all"),
                   default="all", help="which hot loop to run")
    p.add_argument("--events", type=int, default=2000, help="events per loop")
    p.add_argument("--population", type=int, default=600,
                   help="pre-loaded connections")
    p.add_argument("--seed", type=int, default=11,
                   help="workload seed (11 matches bench_core_ops)")
    p.add_argument("--profile", action="store_true",
                   help="run under cProfile and dump top cumulative stats")
    p.add_argument("--top", type=int, default=40,
                   help="rows in the profile dump")
    p.add_argument("--out", default="benchmarks/results",
                   help="directory for *.prof.txt dumps")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("topology", help="generate and describe a topology")
    _add_common(p)
    p.add_argument("--kind", choices=("waxman", "transit-stub"), default="waxman")
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser(
        "serve",
        help="always-on admission service (JSON-per-line socket protocol)",
    )
    p.add_argument("--topology", default="grid:nodes=4,cols=4,capacity=1000",
                   help="topology recipe: kind:key=value,... "
                   "(e.g. waxman:nodes=20,capacity=155,seed=7)")
    p.add_argument("--wal", default=None, metavar="PATH",
                   help="write-ahead replay log; an existing log triggers "
                   "recovery-by-replay on startup")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = OS-assigned; see startup line)")
    p.add_argument("--batch-max", type=int, default=64,
                   help="max requests per epoch (one WAL append + fsync)")
    p.add_argument("--queue-limit", type=int, default=1024,
                   help="bounded request queue size (backpressure)")
    p.add_argument("--shed-watermark", type=float, default=0.5,
                   help="queue occupancy where utility-aware shedding starts")
    p.add_argument("--drain-rate-hint", type=float, default=1000.0,
                   help="assumed service rate for retry_after hints (req/s)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="default per-request deadline budget")
    p.add_argument("--epoch-hold-s", type=float, default=0.0,
                   help="test hook: pause between WAL fsync and epoch apply")
    p.add_argument("--chaos-crash", default=None, metavar="SITE:HIT",
                   help="abort the process at a named crash site's N-th hit "
                   "(e.g. post-fsync:3); see repro.service.chaos.CRASH_SITES")
    p.add_argument("--chaos-seed", type=int, default=None,
                   help="derive a crash schedule from a seed instead")
    p.add_argument("--chaos-disk", default=None, metavar="KIND:RANGE,...",
                   help="inject WAL disk faults by call index "
                   "(e.g. fsync-eio:2-4,write-short:7)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "supervise",
        help="run `repro serve` under a restart loop (backoff, budget, "
        "crash-loop detection, recovery digest cross-check)",
    )
    p.add_argument("--topology", default="grid:nodes=4,cols=4,capacity=1000")
    p.add_argument("--wal", required=True, metavar="PATH",
                   help="WAL path (required: restarts are pointless without one)")
    p.add_argument("--max-restarts", type=int, default=8)
    p.add_argument("--backoff-base-s", type=float, default=0.2)
    p.add_argument("--backoff-cap-s", type=float, default=10.0)
    p.add_argument("--crash-loop-threshold", type=int, default=3,
                   help="consecutive short-lived children that count as a "
                   "crash loop")
    p.add_argument("--min-healthy-uptime-s", type=float, default=2.0)
    p.add_argument("--chaos-crash", default=None, metavar="SITE:HIT",
                   help="arm the child with this crash schedule")
    p.add_argument("--chaos-seed", type=int, default=None)
    p.add_argument("--chaos-every-restart", action="store_true",
                   help="re-arm chaos flags on every restart (default: first "
                   "incarnation only)")
    p.set_defaults(func=cmd_supervise)

    p = sub.add_parser(
        "chaos",
        help="seeded chaos soak: crash-point sweep + disk-fault degraded smoke",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5,
                   help="number of seeded trials (ignored with --sweep)")
    p.add_argument("--sweep", action="store_true",
                   help="one trial per durability crash site")
    p.add_argument("--requests", type=int, default=60,
                   help="scripted requests per trial")
    p.add_argument("--topology", default="grid:nodes=16,cols=4,capacity=1000")
    p.add_argument("--workdir", default=None,
                   help="keep WALs here (default: a temp dir)")
    p.add_argument("--disk-smoke", action="store_true",
                   help="also run the degraded-mode disk-fault smoke")
    p.add_argument("--disk-smoke-only", action="store_true",
                   help="run only the disk-fault smoke")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "loadgen", help="drive a running admission service with load"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--requests", type=int, default=1000)
    p.add_argument("--concurrency", type=int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--deadline-ms", type=float, default=250.0)
    p.add_argument("--slo-p50-us", type=float, default=None,
                   help="fail (exit 1) if service p50 decision latency exceeds")
    p.add_argument("--slo-p99-us", type=float, default=None,
                   help="fail (exit 1) if service p99 decision latency exceeds")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "replay",
        help="replay a service WAL offline (verify / cross-check / export)",
    )
    p.add_argument("log", help="replay log written by `repro serve --wal`")
    p.add_argument("--cross-check", action="store_true",
                   help="also replay on the reference manager and compare digests")
    p.add_argument("--expect-digest", default=None,
                   help="fail unless the replayed digest equals this value")
    p.add_argument("--export", default=None, metavar="PATH",
                   help="write a normalized batch-campaign log (torn tails "
                   "dropped, sequence renumbered)")
    p.set_defaults(func=cmd_replay)

    # Every argument goes to `python -m repro.lint` as is; "+" as the only
    # prefix char keeps this parser from claiming its options.
    p = sub.add_parser(
        "lint", prefix_chars="+", add_help=False,
        help="determinism-aware static analysis (`repro lint --help` for options)",
    )
    p.add_argument("lint_args", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
