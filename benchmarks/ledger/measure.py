"""Reporting rules: percentiles, run summaries and the compare verdict."""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: A tail percentile needs this many samples beyond it to be reported.
MIN_BEYOND = 10

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Per-layer values that are decisions or formats, not timings: for one
#: seed and run length they repeat exactly, and ``compare`` calls any
#: difference ``changed``.
EXACT = (
    "channels.accepted",
    "channels.rejected_no_primary",
    "channels.rejected_no_backup",
    "channels.admit_share",
    "routing.plan_hits",
    "routing.plan_fallbacks",
    "routing.plan_hit_share",
    "wal.bytes_per_event",
    "model_abs_err_pct",
    "fail_share",
)


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile that refuses an unsupported tail.

    The median only needs one sample.  Any higher percentile needs at
    least :data:`MIN_BEYOND` samples strictly beyond its rank: a p99 of
    300 samples is the third-largest value, which says more about three
    unlucky requests than about the program.
    """
    if not 0.5 <= fraction < 1.0:
        raise ValueError(f"fraction must be in [0.5, 1), got {fraction}")
    n = len(samples)
    if n == 0:
        raise TooFewSamples("no samples")
    rank = min(n - 1, int(fraction * n))
    if fraction > 0.5 and n - 1 - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{fraction * 100:g} of {n} samples has {n - 1 - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return sorted(samples)[rank]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Sample count, median and quartiles of one metric over its runs."""
    n = len(values)
    if n == 0:
        raise TooFewSamples("no runs")
    if n == 1:
        return {"n": 1, "median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": n, "median": median, "q1": q1, "q3": q3}


def quiet_quartile(values: Sequence[float], better: str) -> float:
    """The quartile on the metric's good side: a run's quiet-state value.

    This VM's CPU slows by up to 40% for seconds at a time (a fixed
    loop takes 104-177 ms), so the median slice of a pass follows the
    weather.  The slice at the good-side quartile is reached only when
    the program itself is that fast in a quarter of the pass, and a
    regression in the program moves it like every other slice.
    """
    if len(values) == 1:
        return values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1 if better == "lower" else q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    summary = summarize(values)
    if summary["median"] == 0:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def load_spec(path: Path = BENCHMARK_JSON) -> Dict[str, Any]:
    return json.loads(path.read_text())


def verdict(
    base: Sequence[float], head: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """Compare two sets of runs of one (metric, workload) pair.

    Returns ``(verdict, change)`` where ``change`` is head's median over
    base's, minus one, signed so that positive means *worse*.

    * ``worse``      — head's median is worse than base's by more than
      ``bound`` (share of base's median);
    * ``unresolved`` — the run-to-run spread of either side is wider
      than the bound, so a change of that size could hide in it —
      unless every head run is on one side of every base run, which
      then decides ``better``/``worse`` regardless of spread;
    * ``better``     — head's median is better by more than the
      distance between base's own quartiles;
    * ``unchanged``  — none of the above.
    """
    b, h = summarize(base), summarize(head)
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(b["median"]) or 1.0
    change = sign * (h["median"] - b["median"]) / scale
    worsened = [sign * v for v in head]
    reference = [sign * v for v in base]
    if min(worsened) > max(reference) and change > bound:
        return "worse", change
    if max(worsened) < min(reference):
        return "better", change
    if max(spread(base), spread(head)) > bound > 0:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if -change * scale > (b["q3"] - b["q1"]) and change < 0:
        return "better", change
    return "unchanged", change


COMPARE_COLUMNS = ("workload", "metric", "unit", "base", "head", "worse_by", "bound", "verdict")


def compare_files(base_path: Path, head_path: Path, spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The verdict rows of two ``--out`` files, workload by workload.

    One row per end-to-end metric both files hold (:func:`verdict`), one
    for the failed-operation count (``worse`` on any rise), and, when
    both files are traced runs of one seed and run length, one per
    :data:`EXACT` layer value (``changed`` on any difference).
    """
    base_file = json.loads(base_path.read_text())
    head_file = json.loads(head_path.read_text())
    same_stream = all(base_file.get(key) == head_file.get(key) for key in ("seed", "seconds"))
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    rows: List[Tuple[Any, ...]] = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = base_file["workloads"].get(workload)
        head = head_file["workloads"].get(workload)
        if base is None or head is None:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = base.get("end_to_end", {}).get(name)
            b = head.get("end_to_end", {}).get(name)
            if not a or not b:
                continue
            result, change = verdict(a, b, metric["better"], bound)
            medians = summarize(a)["median"], summarize(b)["median"]
            rows.append((workload, name, metric["unit"], *medians, change, bound, result))
        failed = base["failed"], head["failed"]
        result = "worse" if failed[1] > failed[0] else "unchanged"
        rows.append((workload, "failed", "count", *failed, "-", "any rise", result))
        for name in EXACT if same_stream else ():
            a = base.get("per_layer", {}).get(name)
            b = head.get("per_layer", {}).get(name)
            if a and b:
                result = "unchanged" if a == b else "changed"
                rows.append((workload, name, units[name], a[0], b[0], "-", "exact", result))
    return [dict(zip(COMPARE_COLUMNS, row)) for row in rows]


def format_table(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Plain aligned text table."""
    cells = [list(map(_cell, header))] + [list(map(_cell, row)) for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    return "\n".join(
        "  ".join(value.ljust(width) for value, width in zip(row, widths)).rstrip()
        for row in cells
    )


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}" if abs(value) < 1e6 else f"{value:.6g}"
    return str(value)
