"""``campaign_quick``: the offline user's wall time for three exhibits.

``run_figure2`` + ``run_figure4`` + ``run_table1`` at the repo's quick
scale with ``jobs=1``: DES event loop, transition estimator, Markov
solve and the campaign runner, link failures included.  Nothing here
touches ``service``, ``wal`` or ``protocol``.

The exhibits run from the repo's default ``RunSettings`` seed, not from
``--seed``: they *are* the paper's tables, their rows are pinned in
``golden.json``, and on other seeds the estimated chain is sometimes
reducible at this scale (the Markov solve then raises), which would
make the workload fail for reasons no change under test controls.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.analysis.experiments import RunSettings, run_figure2, run_figure4, run_table1
from repro.parallel import SimJobResult
from repro.units import PAPER_FAILURE_RATES

from benchmarks.ledger.svc import child_env
from benchmarks.ledger.workloads import Workload

NODES, EDGES = 60, 130

#: Quick-scale sweeps (benchmarks/conftest.py ``bench_scale``).
FIGURE2_COUNTS = (150, 300, 600, 1000, 1500)
FIGURE4_POPULATIONS = (400, 700)
FIGURE4_CHECKS = (1e-5,)
TABLE1_COUNTS = (300, 800, 1500)

#: Fewer measured events than this and the estimated chain of the
#: larger populations can come out reducible.
MIN_MEASURE_EVENTS = 1000

#: What the set-up of an offline run costs: interpreter start, imports,
#: one topology build.  Timed in a child so it can be repeated.
_SETUP_SNIPPET = (
    "from repro.analysis.experiments import run_figure2, run_figure4, run_table1\n"
    "from repro.parallel import TopologySpec\n"
    f"TopologySpec('waxman', 10000.0, 0, nodes={NODES}, edges={EDGES}).build()\n"
)


def timed_setup() -> float:
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_SNIPPET], env=child_env(), check=True)
    return time.perf_counter() - started


def settings_for(workload: Workload, seconds: float) -> RunSettings:
    measure = max(MIN_MEASURE_EVENTS, int(workload.per_second * seconds))
    return RunSettings(warmup_events=200, measure_events=measure)


@dataclass
class Exhibits:
    """Rows of the three exhibits plus the per-job timings."""

    rows: Dict[str, List[List[float]]]
    jobs: List[SimJobResult]
    wall_s: float

    @property
    def sim_events(self) -> int:
        return sum(job.result.events for job in self.jobs)

    def model_abs_err_pct(self) -> float:
        """Mean over rows that have both of |model - sim| / sim, in %."""
        errors = [abs(model - sim) / sim for sim, model in self.rows["model_vs_sim"]]
        return 100.0 * sum(errors) / len(errors)


def run_exhibits(
    settings: RunSettings,
    figure2: Sequence[int] = FIGURE2_COUNTS,
    figure4: Sequence[int] = FIGURE4_POPULATIONS,
    table1: Sequence[int] = TABLE1_COUNTS,
    jobs: int = 1,
) -> Exhibits:
    """The exhibits back to back (an empty sweep skips its exhibit);
    ``wall_s`` covers all of them."""
    sink: List[SimJobResult] = []
    rates = PAPER_FAILURE_RATES[:-1]
    common: Dict[str, Any] = dict(
        nodes=NODES, edges=EDGES, settings=settings, jobs=jobs, timing_sink=sink
    )
    rows: Dict[str, List[List[float]]] = {"model_vs_sim": []}
    started = time.perf_counter()
    if figure2:
        f2 = run_figure2(figure2, **common)
        rows["figure2"] = [
            [r.offered, r.population, r.simulated, r.analytic, r.ideal] for r in f2.rows
        ]
        rows["model_vs_sim"] += [[r.simulated, r.analytic] for r in f2.rows]
    if figure4:
        f4 = run_figure4(rates, populations=figure4, simulate_checks=FIGURE4_CHECKS, **common)
        rows["figure4"] = [[s.population, *s.analytic] for s in f4]
        rows["model_vs_sim"] += [
            [simulated, s.analytic[rates.index(gamma)]]
            for s in f4
            for gamma, simulated in s.simulated_checks
        ]
    if table1:
        rows["table1"] = [
            [r.offered, r.random_5_states, r.random_9_states, r.tier_5_states, r.tier_9_states]
            for r in run_table1(table1, **common)
        ]
    wall = time.perf_counter() - started
    return Exhibits(rows=rows, jobs=sink, wall_s=wall)


@dataclass
class CampaignRun:
    """Raw outcome of one untraced ``campaign_quick`` run."""

    setup_s: List[float]
    exhibits: Exhibits
    measure_events: int
    checks: Dict[str, bool]


def rows_are_sane(rows: Dict[str, List[List[float]]]) -> bool:
    """Every bandwidth lies inside the QoS contract's [100, 500] Kb/s."""
    bandwidths: List[float] = []
    for row in rows.get("figure2", ()):
        bandwidths += row[2:4]
    for row in rows.get("figure4", []) + rows.get("table1", []):
        bandwidths += row[1:]
    return all(100.0 - 1e-6 <= bw <= 500.0 + 1e-6 for bw in bandwidths)


def run_campaign(workload: Workload, seconds: float, setups: int, quick: bool) -> CampaignRun:
    setup_s = [timed_setup() for _ in range(setups)]
    settings = settings_for(workload, seconds)
    if quick:
        exhibits = run_exhibits(settings, figure2=(150, 300), figure4=(400,), table1=(300,))
    else:
        exhibits = run_exhibits(settings)
    return CampaignRun(
        setup_s=setup_s,
        exhibits=exhibits,
        measure_events=settings.measure_events,
        checks={"rows_sane": rows_are_sane(exhibits.rows)},
    )
