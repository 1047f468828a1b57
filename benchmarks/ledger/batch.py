"""``engine_batch``: the same engine, driven the other way.

In-process :meth:`ServiceEngine.apply_batch` with a real
:class:`ReplayLogWriter`, in batches of 64 — group commit amortises
the fsync 64x and elastic fills are deferred to ``end_micro_epoch`` —
followed by :func:`replay_log` of the WAL it just wrote, which applies
the same events one per epoch with no WAL writes at all.  With two
client connections the live batcher never holds more than two
requests, so this is the only workload where a batch kernel or a
per-epoch cost can show, and where a gain for batched apply paid for
by sequential replay shows as ``replay_events_per_s`` falling.
"""

from __future__ import annotations

import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

from repro.service.engine import EngineConfig, ServiceEngine
from repro.service.protocol import decode_line, encode_line, parse_request
from repro.service.replay import ReplayResult, replay_log
from repro.service.wal import ReplayLogWriter, parse_topology_arg

from benchmarks.ledger.svc import ARTIFACTS, check_replay
from benchmarks.ledger.workloads import (
    TOGGLE_CYCLE,
    TOPOLOGY_ARG,
    SteadyStateMix,
    Workload,
    batch_has_toggle,
    is_failure,
)


def build_engine(wal_path: Path, batch_max: int) -> ServiceEngine:
    """A fresh engine on the benchmark network, write-ahead to ``wal_path``."""
    topology = parse_topology_arg(TOPOLOGY_ARG)
    wal = ReplayLogWriter(wal_path, topology)
    return ServiceEngine(topology, EngineConfig(batch_max=batch_max), wal=wal)


#: Batches per slice of the timed pass (see README, "Quiet quartile"):
#: two toggle cycles, so every slice holds two fails and two repairs.
SLICE_BATCHES = 2 * TOGGLE_CYCLE

#: A WAL that replays in less than this share of ``--seconds`` is
#: replayed again (see :func:`timed_replays`).
REPLAY_BUDGET = 0.4


@dataclass
class PassClock:
    """Wall time spent inside the program, generator time excluded.

    ``batches`` holds ``(wall_ns, events)`` per ``apply_batch``.
    """

    batches: List[Tuple[int, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def events(self) -> int:
        return sum(events for _, events in self.batches)

    def slices(self) -> List[Dict[str, float]]:
        """The event rate, once per :data:`SLICE_BATCHES` batches."""
        out: List[Dict[str, float]] = []
        for start in range(0, len(self.batches) - SLICE_BATCHES + 1, SLICE_BATCHES):
            chunk = self.batches[start : start + SLICE_BATCHES]
            wall = sum(w for w, _ in chunk)
            events = sum(e for _, e in chunk)
            out.append({"events_per_s": 1e9 * events / wall})
        return out


def apply_wire_batch(
    engine: ServiceEngine,
    mix: SteadyStateMix,
    batch: List[Dict[str, Any]],
    clock: PassClock,
) -> None:
    """decode -> ``apply_batch`` -> encode for one batch.

    Requests cross the same wire form the server's handlers see, so the
    pass costs what a socket-free front end would cost.  Only that
    section is on ``clock``; generating the batch and learning from the
    replies is the benchmark's own work.
    """
    frames = [encode_line(request) for request in batch]
    seq0 = engine.seq
    wall0 = time.perf_counter_ns()
    requests = [parse_request(decode_line(frame)) for frame in frames]
    responses = engine.apply_batch(requests)
    replies = [encode_line(response) for response in responses]
    wall = time.perf_counter_ns() - wall0
    clock.batches.append((wall, engine.seq - seq0))
    for request, reply in zip(batch, replies):
        response = decode_line(reply)
        mix.observe(request, response)
        clock.failed += is_failure(response)
    clock.attempted += len(batch)


def prefill(engine: ServiceEngine, mix: SteadyStateMix, batch_size: int) -> None:
    """Establish, a batch at a time, until the population is reached."""
    attempts = 0
    clock = PassClock()
    while len(mix.owned) < mix.population:
        want = min(batch_size, mix.population - len(mix.owned))
        apply_wire_batch(engine, mix, [mix.establish() for _ in range(want)], clock)
        attempts += want
        if attempts > 50 * mix.population:
            raise RuntimeError("prefill cannot reach the target population")


def timed_replays(wal_path: Path, seconds: float) -> Tuple[ReplayResult, float]:
    """``replay_log`` the WAL; returns the result and the best events/s.

    A short log is replayed again until :data:`REPLAY_BUDGET` of the
    run's nominal length is spent, and the fastest replay is reported:
    a single 1.5 s call moved 20% from run to run on this VM's CPU
    weather.
    """
    budget_ends = time.perf_counter() + REPLAY_BUDGET * seconds
    best = 0.0
    while True:
        started = time.perf_counter()
        replayed = replay_log(wal_path)
        ended = time.perf_counter()
        best = max(best, replayed.events_applied / (ended - started))
        if ended >= budget_ends:
            return replayed, best


def fresh_wal_dir(artifacts: Path) -> Path:
    path = artifacts / f"wal-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


@dataclass
class BatchRun:
    """Raw outcome of one untraced ``engine_batch`` run."""

    setup_s: List[float]
    clock: PassClock
    replay_events_per_s: float
    digest: str
    checks: Dict[str, bool]


@dataclass
class Setup:
    """One timed set-up: engine build + pre-fill."""

    seconds: float
    engine: ServiceEngine
    mix: SteadyStateMix
    wal_path: Path


@contextmanager
def prefilled_engine(artifacts: Path, workload: Workload, seed: int) -> Iterator[Setup]:
    """A pre-filled engine on a private WAL; closed and removed on exit."""
    wal_dir = fresh_wal_dir(artifacts)
    engine = None
    try:
        started = time.perf_counter()
        engine = build_engine(wal_dir / "batch.wal", workload.batch)
        links = [list(lid) for lid in engine.net.link_ids()]
        mix = SteadyStateMix(seed, engine.net.num_nodes, workload.population, links=links)
        prefill(engine, mix, workload.batch)
        yield Setup(time.perf_counter() - started, engine, mix, wal_dir / "batch.wal")
    finally:
        if engine is not None:
            engine.close()
        shutil.rmtree(wal_dir, ignore_errors=True)


def run_batch(workload: Workload, seed: int, seconds: float, setups: int) -> BatchRun:
    artifacts = ARTIFACTS / workload.name
    artifacts.mkdir(parents=True, exist_ok=True)
    setup_s: List[float] = []
    for _ in range(setups - 1):
        with prefilled_engine(artifacts, workload, seed) as setup:
            setup_s.append(setup.seconds)
    checks: Dict[str, bool] = {}
    with prefilled_engine(artifacts, workload, seed) as setup:
        setup_s.append(setup.seconds)
        engine, mix = setup.engine, setup.mix
        batches = max(SLICE_BATCHES, int(workload.per_second * seconds) // workload.batch)
        clock = PassClock()
        for index in range(batches):
            batch = mix.next_batch(workload.batch, batch_has_toggle(index))
            apply_wire_batch(engine, mix, batch, clock)
        live_digest = engine.digest()
        engine.close()

        replayed, replay_rate = timed_replays(setup.wal_path, seconds)
        check_replay(replayed, live_digest, engine.seq, checks)
    return BatchRun(
        setup_s=setup_s,
        clock=clock,
        replay_events_per_s=replay_rate,
        digest=live_digest,
        checks=checks,
    )
