"""Outside-in spans: a tracer and delegating proxies for public seams.

No file under ``src/`` knows about tracing.  The benchmark hands its
own proxies in through seams the program already has — a WAL object via
``ServiceEngine(wal=...)``, a manager via ``engine.manager`` /
``simulator.manager`` — and times the calls that cross them.  Spans are
kept in memory and written once, at exit (:meth:`Tracer.write`).

A span is ``{trace_id, span_id, parent_id, name, start_ns, end_ns}``;
spans of one request (or one batch) share ``trace_id``.  A layer's
*self time* is its span's duration minus the part its child spans
cover; children of one parent never overlap here (single thread, strict
nesting), so that part is the sum of the direct children's durations.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

_now = time.perf_counter_ns

#: Column order of one span row.
FIELDS = ("trace_id", "span_id", "parent_id", "name", "start_ns", "end_ns")


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self) -> None:
        #: Rows in :data:`FIELDS` order; ``span_id`` is the row index.
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self.trace_id: Any = None

    def begin(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        self.spans.append([self.trace_id, span_id, parent, name, _now(), 0])
        return span_id

    def end(self, span_id: int) -> None:
        self.spans[span_id][5] = _now()
        popped = self._stack.pop()
        assert popped == span_id, "spans must nest"

    def call(self, name: str, fn: Any, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        span_id = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span_id)

    # -- reductions -----------------------------------------------------
    def durations(self) -> Dict[str, List[int]]:
        """name -> every span's duration (ns)."""
        out: Dict[str, List[int]] = {}
        for _, _, _, name, start, end in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def self_times(self) -> Dict[str, List[int]]:
        """name -> every span's duration minus its direct children's."""
        covered = [0] * len(self.spans)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Dict[str, List[int]] = {}
        for _, span_id, _, name, start, end in self.spans:
            out.setdefault(name, []).append(end - start - covered[span_id])
        return out

    def write(self, path: Path) -> None:
        """One JSON object per line, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for row in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, row)), separators=(",", ":")) + "\n")


class _Proxy:
    """Delegate everything; time the methods named in ``TRACED``."""

    TRACED: Dict[str, str] = {}

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "_tracer", tracer)

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self.inner, attr)
        name = self.TRACED.get(attr)
        if name is None:
            return value
        tracer = self._tracer

        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, value, *args, **kwargs)

        # Cache the wrapper: the next lookup skips __getattr__ entirely.
        object.__setattr__(self, attr, traced)
        return traced

    def __setattr__(self, attr: str, value: Any) -> None:
        # The engine stamps ``manager.now``; state lives on the inner object.
        setattr(self.inner, attr, value)


class TracedManager(_Proxy):
    """Manager proxy: one span per admission-engine entry point.

    Deferred elastic fills land in ``channels.end_micro_epoch``.
    """

    TRACED = {
        "request_connection": "channels.request_connection",
        "terminate_connection": "channels.terminate_connection",
        "fail_link": "channels.fail_link",
        "repair_link": "channels.repair_link",
        "end_micro_epoch": "channels.end_micro_epoch",
    }


class TracedWal(_Proxy):
    """WAL proxy: append+fsync and the epoch marker."""

    TRACED = {
        "log_events": "wal.log_events",
        "log_epoch": "wal.log_epoch",
    }


def median_us(samples_ns: Optional[List[int]]) -> float:
    """Median of nanosecond samples, in microseconds (0.0 when empty)."""
    return statistics.median(samples_ns) / 1e3 if samples_ns else 0.0
