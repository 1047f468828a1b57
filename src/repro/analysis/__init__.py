"""Experiment runners, the ideal-bandwidth formula, and report rendering."""

from __future__ import annotations

from repro.analysis.experiments import (
    Figure2Result,
    Figure2Row,
    Figure3Row,
    Figure4Series,
    RunSettings,
    Table1Row,
    paper_connection_qos,
    run_figure2,
    run_figure3,
    run_figure4,
    run_table1,
    simulate_point,
)
from repro.analysis.chaining import (
    ChainingSnapshot,
    chaining_for_route,
    expected_arrival_chaining,
    snapshot_chaining,
)
from repro.analysis.confidence import ReplicationResult, replicate
from repro.analysis.ideal import ideal_average_bandwidth, ideal_for_network
from repro.analysis.report import relative_error, render_series, render_table
from repro.analysis.validation import ValidationReport, validate_against_model

__all__ = [
    "Figure2Result",
    "Figure2Row",
    "Figure3Row",
    "Figure4Series",
    "RunSettings",
    "Table1Row",
    "paper_connection_qos",
    "run_figure2",
    "run_figure3",
    "run_figure4",
    "run_table1",
    "simulate_point",
    "ChainingSnapshot",
    "chaining_for_route",
    "expected_arrival_chaining",
    "snapshot_chaining",
    "ReplicationResult",
    "replicate",
    "ideal_average_bandwidth",
    "ideal_for_network",
    "relative_error",
    "render_series",
    "render_table",
    "ValidationReport",
    "validate_against_model",
]
