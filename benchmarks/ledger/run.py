#!/usr/bin/env python3
"""Admission ledger benchmark — the one entry point.

    python benchmarks/ledger/run.py --workload all --seed 7 [--runs K] [--trace]
    python benchmarks/ledger/run.py --workload svc_light --seed 3 --seconds 10 --trace 0
    python benchmarks/ledger/run.py compare base.json head.json

Each workload is generated from ``--seed``, run with tracing off,
checked for correctness, and reported metric by metric (name, unit,
direction, sample count, median, quartiles over ``--runs``).
``--trace 1`` runs the traced per-layer pass instead; a bare ``--trace``
runs both.  With a single ``--workload`` the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero when any correctness check fails.  README.md defines
every metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, NamedTuple

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.ledger import batch, campaign, layers, measure, svc  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS, Workload, workload_by_name  # noqa: E402

GOLDEN_JSON = LEDGER_DIR / "golden.json"

#: Direction of every end-to-end metric, from ``BENCHMARK.json``.
BETTER = {m["name"]: m["better"] for m in measure.load_spec()["end_to_end"]}

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


class Outcome(NamedTuple):
    """One run: its metrics, request counts and correctness checks."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    checks: Dict[str, bool]

    @property
    def correct(self) -> bool:
        """Every check passed and no operation failed: the workloads are
        built so that none does, so one failure is a wrong output."""
        return all(self.checks.values()) and self.failed == 0


def check_golden(checks: Dict[str, bool], key: str, observed: Any, artifacts: Path) -> None:
    """Compare ``observed`` with the value pinned under ``key``, if any.

    What was observed is always left in ``<artifacts>/observed.json``;
    pinning a new value is copying that entry into ``golden.json``.
    """
    golden = json.loads(GOLDEN_JSON.read_text())
    svc.dump_json(artifacts / "observed.json", {key: observed})
    if key in golden:
        checks["golden:" + key] = observed == golden[key]


def quiet(slices: List[Dict[str, float]], name: str) -> float:
    """Quiet-quartile value of one metric over a pass's slices."""
    return measure.quiet_quartile([s[name] for s in slices], BETTER[name])


# ----------------------------------------------------------------------
# end-to-end metrics, one builder per workload kind
# ----------------------------------------------------------------------
PER_ITEM_US = ("rtt_p50_us", "rtt_p90_us", "query_p90_us", "cpu_us_per_req")
RATES = ("req_per_s", "events_per_s", "replay_events_per_s", "sim_events_per_s")


def fill_equivalents(metrics: Dict[str, float], rate: float, items: int) -> Dict[str, float]:
    """Give ``metrics`` the end-to-end names its workload has no thing for.

    The driver's contract wants every end-to-end name in the last-line
    JSON of every run.  Where a workload lacks the thing a name stands
    for, the cell is derived from the workload's own primary ``rate``
    over its ``items`` of work: the rate for a rate, the mean time per
    item for a latency or a CPU cost, the time for all items for a
    wall; the memory cell is this process's own peak.  Such cells
    appear in that JSON line only; the printed table, ``--out`` and
    ``compare`` hold what ``Workload.reports`` (README.md's matrix).
    """
    for name in RATES:
        metrics.setdefault(name, rate)
    for name in PER_ITEM_US:
        metrics.setdefault(name, 1e6 / rate)
    metrics.setdefault("campaign_wall_s", items / rate)
    metrics.setdefault("server_rss_mb", svc.own_rss_hwm_mib())
    return metrics


def end_to_end_svc(workload: Workload, seed: int, seconds: float, setups: int) -> Outcome:
    run = svc.run_svc(workload, seed, seconds, setups)
    log = run.log
    slices = log.slices()
    metrics = {name: quiet(slices, name) for name in slices[0]}
    metrics["setup_s"] = statistics.median(run.setup_s)
    metrics["server_rss_mb"] = run.rss_mib
    metrics = fill_equivalents(metrics, metrics["req_per_s"], len(log.samples))
    return Outcome(metrics, log.attempted, log.failed, run.checks)


def end_to_end_batch(workload: Workload, seed: int, seconds: float, setups: int) -> Outcome:
    run = batch.run_batch(workload, seed, seconds, setups)
    clock = run.clock
    slices = clock.slices()
    key = f"engine_batch:{seed}:{seconds:g}:{workload.population}"
    check_golden(run.checks, key, run.digest, svc.ARTIFACTS / workload.name)
    metrics = {
        "setup_s": statistics.median(run.setup_s),
        "events_per_s": quiet(slices, "events_per_s"),
        "replay_events_per_s": run.replay_events_per_s,
    }
    metrics = fill_equivalents(metrics, metrics["events_per_s"], clock.events)
    return Outcome(metrics, clock.attempted, clock.failed, run.checks)


def end_to_end_campaign(workload: Workload, seconds: float, setups: int, quick: bool) -> Outcome:
    run = campaign.run_campaign(workload, seconds, setups, quick)
    exhibits = run.exhibits
    key = f"campaign:{run.measure_events}:{'quick' if quick else 'full'}"
    check_golden(run.checks, key, exhibits.rows, svc.ARTIFACTS / workload.name)
    metrics = {
        "setup_s": statistics.median(run.setup_s),
        "campaign_wall_s": exhibits.wall_s,
        "sim_events_per_s": exhibits.sim_events / exhibits.wall_s,
    }
    metrics = fill_equivalents(metrics, metrics["sim_events_per_s"], exhibits.sim_events)
    return Outcome(metrics, len(exhibits.jobs), 0, run.checks)


def run_untraced(workload: Workload, seed: int, seconds: float, setups: int, quick: bool) -> Outcome:
    if workload.kind == "svc":
        return end_to_end_svc(workload, seed, seconds, setups)
    if workload.kind == "batch":
        return end_to_end_batch(workload, seed, seconds, setups)
    return end_to_end_campaign(workload, seconds, setups, quick)


def run_traced(workload: Workload, seed: int, seconds: float) -> Outcome:
    run = layers.run_layers(workload, seed, seconds)
    print(f"[{workload.name}] {run.spans} spans -> {run.trace_path}")
    return Outcome(run.metrics, run.attempted, run.failed, run.checks)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def print_metrics(title: str, specs: List[Dict[str, Any]], runs: List[Dict[str, float]]) -> None:
    rows = []
    for spec in specs:
        values = [run[spec["name"]] for run in runs]
        s = measure.summarize(values)
        rows.append(
            [spec["name"], spec["unit"], spec["better"], s["n"], s["median"], s["q1"], s["q3"]]
        )
    print(title)
    print(measure.format_table(["metric", "unit", "better", "n", "median", "q1", "q3"], rows))


def print_checks(name: str, outcome: Outcome) -> None:
    verdicts = ", ".join(
        f"{k}={'ok' if v else 'FAILED'}" for k, v in sorted(outcome.checks.items())
    )
    print(f"[{name}] attempted={outcome.attempted} failed={outcome.failed} checks: {verdicts}")


def run_workload(workload: Workload, args: argparse.Namespace, spec: Dict[str, Any]) -> Dict[str, Any]:
    """All requested runs of one workload; returns its result record.

    ``record["metrics"]`` is the driver's JSON and carries every name of
    the section; the printed table and ``record[section]`` (what
    ``--out`` keeps and ``compare`` reads) carry the names the workload
    reports.
    """
    record: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    setups = 1 if args.quick else SETUPS
    sections: Dict[str, List[Outcome]] = {}
    if args.trace != "1":
        sections["end_to_end"] = [
            run_untraced(workload, args.seed + index, args.seconds, setups, args.quick)
            for index in range(args.runs)
        ]
    if args.trace != "0":
        sections["per_layer"] = [run_traced(workload, args.seed, args.seconds)]
    for section, runs in sections.items():
        for outcome in runs:
            print_checks(f"{workload.name} {section}", outcome)
        values = [outcome.metrics for outcome in runs]
        reported = [m for m in spec[section] if workload.reports(m["name"])]
        print_metrics(f"== {workload.name}: {section} ==", reported, values)
        record[section] = {m["name"]: [v[m["name"]] for v in values] for m in reported}
        for m in spec[section]:
            record["metrics"][m["name"]] = {
                "value": statistics.median(v[m["name"]] for v in values),
                "unit": m["unit"],
            }
        record["attempted"] += sum(outcome.attempted for outcome in runs)
        record["failed"] += sum(outcome.failed for outcome in runs)
        record["correct"] &= all(outcome.correct for outcome in runs)
    return record


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    rows = measure.compare_files(args.base, args.head, measure.load_spec())
    header = measure.COMPARE_COLUMNS
    print(measure.format_table(header, [[row[h] for h in header] for row in rows]))
    return 1 if any(row["verdict"] in ("worse", "changed") for row in rows) else 0


def main(argv: List[str]) -> int:
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    spec = measure.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w.name for w in WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="nominal length of the timed pass; work is this times a fixed rate")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="0: end-to-end only; 1: per-layer only; bare flag: both")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload, on seeds seed..seed+runs-1")
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale: a quarter of the population, two seconds, one set-up")
    parser.add_argument("--out", type=Path, help="write every run's values here (for compare)")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 2.0
    names = [w.name for w in WORKLOADS] if args.workload == "all" else [args.workload]
    records: Dict[str, Dict[str, Any]] = {}
    for name in names:
        workload = workload_by_name(name)
        if args.quick:
            workload = dataclasses.replace(workload, population=workload.population // 4)
        records[name] = run_workload(workload, args, spec)
    if args.out is not None:
        svc.dump_json(
            args.out,
            {"seed": args.seed, "seconds": args.seconds, "runs": args.runs, "workloads": records},
        )
    correct = all(record["correct"] for record in records.values())
    if len(names) == 1:
        record = records[names[0]]
        print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
