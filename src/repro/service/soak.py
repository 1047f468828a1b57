"""Chaos soak: seeded crash schedules against real server processes.

One *trial* is the full durability argument, end to end:

1. derive ``(crash site, hit number, request mix)`` from the trial seed;
2. start ``repro serve`` with that ``--chaos-crash`` schedule and drive
   the seeded request mix **strictly sequentially** (each request waits
   for its answer, so every live batch holds exactly one event — crash
   hit counts are then a pure function of the request sequence, which
   is what makes a trial bitwise-reproducible from its seed);
3. the scheduled chaos point aborts the process (`os._exit`, exit code
   :data:`~repro.service.chaos.CHAOS_EXIT_CODE`);
4. replay the surviving WAL offline — the durable prefix — and record
   its digest;
5. restart the server on the same WAL: the recovery digest must equal
   the offline digest; drain it cleanly: the drained digest must agree
   too;
6. replay the WAL once more on the reference manager
   (:func:`~repro.service.replay.reference_replay_digest`): same digest
   again.

``run_soak`` executes N seeded trials (or a deterministic sweep over
every durability site); one failing invariant fails the soak with the
trial's seed in the report, so any red run is reproducible with
``repro chaos --seed <seed>``.

``run_disk_smoke`` is the degraded-mode counterpart: a seeded
fsync-EIO window must flip the server into degraded read-only mode
(admissions rejected, releasing ops journaled) and back, with the
drained digest still equal to the offline replay digest — i.e. no
acked mutation lost across the fault.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.service.chaos import CHAOS_EXIT_CODE, DURABILITY_SITES, ChaosSchedule
from repro.service.procs import (
    ScriptClient,
    drain_stdout,
    read_banner,
    serve_argv,
    spawn_server,
    terminate,
    wait_exit,
)
from repro.service.replay import reference_replay_digest, replay_log

DEFAULT_TOPOLOGY = "grid:nodes=16,cols=4,capacity=1000"

QOS_WIRE = {
    "b_min": 100.0,
    "b_max": 300.0,
    "increment": 100.0,
    "utility": 1.0,
    "backups": 1,
}


@dataclass(frozen=True)
class SoakTrialSpec:
    """One seeded trial: where to crash and what traffic to send."""

    seed: int
    site: str
    hit: int
    requests: int = 60
    topology: str = DEFAULT_TOPOLOGY

    @property
    def schedule(self) -> ChaosSchedule:
        return ChaosSchedule({self.site: self.hit})


@dataclass
class SoakTrialResult:
    spec: SoakTrialSpec
    crashed: bool = False
    exit_code: Optional[int] = None
    answered: int = 0
    durable_events: int = 0
    offline_digest: str = ""
    recovered_digest: str = ""
    drained_digest: str = ""
    reference_digest: str = ""
    ok: bool = False
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.spec.seed,
            "site": self.spec.site,
            "hit": self.spec.hit,
            "crashed": self.crashed,
            "exit_code": self.exit_code,
            "answered": self.answered,
            "durable_events": self.durable_events,
            "digests_agree": self.ok,
            "offline_digest": self.offline_digest,
            "detail": self.detail,
        }


def derive_trial(
    seed: int,
    requests: int = 60,
    sites: Sequence[str] = DURABILITY_SITES,
    topology: str = DEFAULT_TOPOLOGY,
) -> SoakTrialSpec:
    """Seed -> trial spec (site, hit) via one dedicated RNG stream."""
    schedule = ChaosSchedule.from_seed(seed, sites=sites)
    ((site, hit),) = schedule.crashes.items()
    return SoakTrialSpec(
        seed=seed, site=site, hit=hit, requests=requests, topology=topology
    )


def _request_mix(spec: SoakTrialSpec) -> List[Dict[str, Any]]:
    """The seeded scripted request sequence for one trial.

    Mostly establishes with a sprinkle of teardown/fail/repair so every
    WAL record type appears.  Node ids assume the default 16-node grid
    scaled by the modulus below; the mix depends only on the seed.
    """
    rng = random.Random(spec.seed * 7_919 + 1)
    requests: List[Dict[str, Any]] = []
    live_guess: List[int] = []
    failed: List[List[int]] = []
    for i in range(spec.requests):
        roll = rng.random()
        if roll < 0.70 or not live_guess:
            src = rng.randrange(16)
            dst = (src + rng.randrange(1, 15)) % 16
            requests.append(
                {"op": "establish", "id": i, "src": src, "dst": dst,
                 "qos": dict(QOS_WIRE)}
            )
            live_guess.append(i)
        elif roll < 0.80:
            requests.append(
                {"op": "teardown", "id": i,
                 "conn_id": live_guess.pop(rng.randrange(len(live_guess)))}
            )
        elif roll < 0.90 or not failed:
            a = rng.randrange(15)
            requests.append({"op": "fail", "id": i, "link": [a, a + 1]})
            failed.append([a, a + 1])
        else:
            requests.append(
                {"op": "repair", "id": i,
                 "link": failed.pop(rng.randrange(len(failed)))}
            )
    return requests


def _drive_sequential(port: int, requests: List[Dict[str, Any]]) -> int:
    """Send requests one at a time; returns how many got answered."""
    client = ScriptClient(port)
    answered = 0
    try:
        for obj in requests:
            response = client.rpc(obj)
            if response is None:
                break
            answered += 1
    finally:
        client.close()
    return answered


def run_trial(spec: SoakTrialSpec, workdir: Union[str, Path]) -> SoakTrialResult:
    """Execute one trial (see module docstring steps 1-6)."""
    result = SoakTrialResult(spec=spec)
    wal = Path(workdir) / f"soak-{spec.seed}-{spec.site}.wal"
    extra = ["--chaos-crash", f"{spec.site}:{spec.hit}"]
    proc = spawn_server(serve_argv(spec.topology, wal, extra))
    try:
        banner = read_banner(proc)
        result.answered = _drive_sequential(int(banner["port"]), _request_mix(spec))
        if proc.poll() is None:
            # mid-drain only fires during a drain; and a hit count that
            # exceeded the traffic leaves the server alive — drain it
            # (cleanly or into its scheduled abort) either way.
            result.exit_code = terminate(proc)
        else:
            result.exit_code = wait_exit(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    result.crashed = result.exit_code == CHAOS_EXIT_CODE
    if not wal.exists() or wal.stat().st_size == 0:
        result.detail = "no WAL written"
        return result

    offline = replay_log(wal)
    result.durable_events = offline.events_applied
    result.offline_digest = offline.digest

    proc2 = spawn_server(serve_argv(spec.topology, wal))
    try:
        banner2 = read_banner(proc2)
        client = ScriptClient(int(banner2["port"]))
        answer = client.rpc({"op": "query", "id": 0, "what": "digest"})
        client.close()
        if answer is None or not answer.get("ok"):
            result.detail = f"digest query failed: {answer!r}"
            return result
        result.recovered_digest = str(answer["result"]["digest"])
        code = terminate(proc2)
        drained = [e for e in drain_stdout(proc2) if e.get("event") == "drained"]
        if code != 0 or not drained:
            result.detail = f"drain failed (exit {code})"
            return result
        result.drained_digest = str(drained[-1].get("digest"))
    finally:
        if proc2.poll() is None:
            proc2.kill()
            proc2.wait(timeout=30)

    result.reference_digest = reference_replay_digest(wal)
    result.ok = (
        result.offline_digest
        == result.recovered_digest
        == result.drained_digest
        == result.reference_digest
    )
    if not result.ok:
        result.detail = (
            f"digest disagreement: offline={result.offline_digest[:12]} "
            f"recovered={result.recovered_digest[:12]} "
            f"drained={result.drained_digest[:12]} "
            f"reference={result.reference_digest[:12]}"
        )
    return result


@dataclass
class SoakReport:
    trials: List[SoakTrialResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return bool(self.trials) and all(t.ok for t in self.trials)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "trials": [t.to_dict() for t in self.trials],
            "crashed": sum(1 for t in self.trials if t.crashed),
            "elapsed_s": round(self.elapsed_s, 3),
        }


def run_soak(
    workdir: Union[str, Path],
    seed: int = 0,
    trials: int = 5,
    requests: int = 60,
    sweep: bool = False,
    topology: str = DEFAULT_TOPOLOGY,
) -> SoakReport:
    """N seeded trials, or (``sweep=True``) every durability site.

    Sweep hits are derived from ``seed`` per site so the sweep is
    deterministic yet not pinned to hit 1 forever.
    """
    specs: List[SoakTrialSpec] = []
    if sweep:
        for index, site in enumerate(DURABILITY_SITES):
            # Seeded from a string: random.Random hashes the bytes
            # deterministically (unlike built-in str hashing, which is
            # salted per process).
            rng = random.Random(f"{seed}:{site}")
            hit = 1 if site == "mid-drain" else rng.randint(2, 8)
            specs.append(
                SoakTrialSpec(
                    seed=seed * 1000 + index, site=site, hit=hit,
                    requests=requests, topology=topology,
                )
            )
    else:
        for index in range(trials):
            specs.append(
                derive_trial(seed + index, requests=requests, topology=topology)
            )
    report = SoakReport()
    start = time.monotonic()
    for spec in specs:
        report.trials.append(run_trial(spec, workdir))
    report.elapsed_s = time.monotonic() - start
    return report


def run_disk_smoke(
    workdir: Union[str, Path],
    seed: int = 0,
    topology: str = DEFAULT_TOPOLOGY,
) -> Dict[str, Any]:
    """Degraded-mode smoke: fsync outage -> read-only -> re-arm -> no loss.

    Drives establishes until one is rejected ``degraded``, tears down an
    admitted connection *while degraded* (must be acked + journaled),
    then waits for re-arm, admits again, drains, and replays: the
    drained digest must equal the offline replay digest, proving the
    journal flush kept every acked mutation.
    """
    wal = Path(workdir) / f"disk-smoke-{seed}.wal"
    extra = ["--chaos-disk", "fsync-eio:3-5"]
    proc = spawn_server(serve_argv(topology, wal, extra))
    out: Dict[str, Any] = {
        "ok": False, "degraded_seen": False, "teardown_during_degraded": False,
        "rearmed": False, "digests_agree": False,
    }
    try:
        banner = read_banner(proc)
        client = ScriptClient(int(banner["port"]))
        try:
            conn_ids: List[int] = []
            degraded_at = None
            for i in range(40):
                response = client.rpc(
                    {"op": "establish", "id": i, "src": i % 16,
                     "dst": (i + 5) % 16, "qos": dict(QOS_WIRE)}
                )
                if response is None:
                    out["detail"] = "server died during establish burst"
                    return out
                if response.get("ok") and response["result"].get("accepted"):
                    conn_ids.append(response["result"]["conn_id"])
                elif response.get("error") == "degraded":
                    out["degraded_seen"] = True
                    assert response.get("retry_after") is not None
                    degraded_at = i
                    break
            if degraded_at is None:
                out["detail"] = "fault window never produced a degraded rejection"
                return out
            health = client.rpc({"op": "query", "id": 900, "what": "health"})
            out["health_mode"] = (health or {}).get("result", {}).get("mode")
            ready = client.rpc({"op": "query", "id": 901, "what": "ready"})
            out["ready_degraded"] = bool(ready and ready.get("error") == "degraded")
            # Releasing op while degraded: still served, journaled.
            if conn_ids:
                tear = client.rpc(
                    {"op": "teardown", "id": 902, "conn_id": conn_ids.pop(0)}
                )
                out["teardown_during_degraded"] = bool(tear and tear.get("ok"))
            # Wait out probation; then admissions must work again.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                ready = client.rpc({"op": "query", "id": 903, "what": "ready"})
                if ready is not None and ready.get("ok"):
                    out["rearmed"] = True
                    break
                time.sleep(0.05)
            if not out["rearmed"]:
                out["detail"] = "server never re-armed after fault window"
                return out
            post = client.rpc(
                {"op": "establish", "id": 904, "src": 0, "dst": 9,
                 "qos": dict(QOS_WIRE)}
            )
            out["post_rearm_admission"] = bool(post and post.get("ok"))
            stats = client.rpc({"op": "query", "id": 905, "what": "stats"})
            if stats and stats.get("ok"):
                out["service"] = stats["result"]["service"]
        finally:
            client.close()
        code = terminate(proc)
        drained = [e for e in drain_stdout(proc) if e.get("event") == "drained"]
        if code != 0 or not drained:
            out["detail"] = f"drain failed (exit {code})"
            return out
        out["drained_digest"] = drained[-1].get("digest")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    offline = replay_log(wal)
    out["offline_digest"] = offline.digest
    out["digests_agree"] = offline.digest == out.get("drained_digest")
    out["ok"] = bool(
        out["degraded_seen"]
        and out["ready_degraded"]
        and out["teardown_during_degraded"]
        and out["rearmed"]
        and out.get("post_rearm_admission")
        and out["digests_agree"]
    )
    return out
