"""The four workloads and the seeded steady-state request generator.

Every workload runs on the paper's quick-scale network and QoS contract
(100-500 Kb/s in steps of 50, one backup).  What differs is the
operating point — how full the links are — and which modules the
requests travel through; README.md records why each was chosen.

The generator hands the program nothing but requests: plain wire-form
dicts, drawn from ``random.Random(seed)``.  It holds the live
population near a target (a *growing* population would make every
latency a function of how long the run was), and it learns connection
ids only from the program's own responses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The paper's quick-scale "Random" network (benchmarks/conftest.py
#: quick scale).  The topology seed is fixed: the network is part of the
#: system under test, ``--seed`` drives the request stream.
TOPOLOGY_ARG = "waxman:nodes=60,edges=130,capacity=10000"

#: The paper's QoS contract in wire form (9 levels, one backup).
PAPER_QOS: Dict[str, Any] = {
    "b_min": 100.0,
    "b_max": 500.0,
    "increment": 50.0,
    "utility": 1.0,
    "backups": 1,
}

#: Every n-th request of a service client is a ``query connection``.
QUERY_EVERY = 5

#: Two of every three 64-event batches end in a link toggle (1% of the
#: events), alternating fail and repair.  A fixed cadence, not a draw:
#: every slice of a pass then carries the same mix of operations.
TOGGLE_CYCLE = 3


def batch_has_toggle(index: int) -> bool:
    """Whether the ``index``-th batch of a pass ends in a toggle."""
    return index % TOGGLE_CYCLE != TOGGLE_CYCLE - 1


#: Layers a request crosses inside the engine; every kind of workload
#: reaches them, through its own front end.
_CORE_LAYERS = ("channels.", "routing.", "elastic.", "network.", "fail_share")
_SERVICE_LAYERS = ("protocol.", "shedding.", "engine.", "wal.", "trace.") + _CORE_LAYERS

#: kind -> the metrics that kind of workload reports, as names or name
#: prefixes (README.md, "Which workload reports which metric").  The
#: end-to-end names follow the defining issue's "workloads" column; a
#: layer is reported by the workloads whose requests travel through it.
REPORTS: Dict[str, Tuple[str, ...]] = {
    "svc": (
        "setup_s", "rtt_", "query_p90_us", "req_per_s", "cpu_us_per_req", "server_rss_mb",
        "client.", "server.",
    ) + _SERVICE_LAYERS,
    "batch": ("setup_s", "events_per_s", "replay_events_per_s") + _SERVICE_LAYERS,
    "campaign": (
        "setup_s", "campaign_wall_s", "sim_events_per_s",
        "topology.", "sim.", "markov.", "parallel.", "model_abs_err_pct",
    ) + _CORE_LAYERS,
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Name in ``BENCHMARK.json``.
        kind: ``svc`` (real server process, two closed-loop clients),
            ``batch`` (in-process ``apply_batch`` + ``replay_log``) or
            ``campaign`` (offline figure/table exhibits).
        population: Live connections held through the timed pass (for
            ``campaign``: the operating point of the traced replica;
            the exhibits sweep their own populations).
        batch: Requests per ``apply_batch`` call in in-process passes.
        per_second: Timed work items per ``--seconds`` second: requests
            (svc), events (batch) or measured events per simulation
            job (campaign).  Work is fixed by count, not by a deadline,
            so a run's decisions — and its digest — repeat exactly.
        why: One line for ``BENCHMARK.json``.
    """

    name: str
    kind: str
    population: int
    batch: int
    per_second: int
    why: str

    def reports(self, metric: str) -> bool:
        """Whether ``metric`` names something this workload has."""
        return metric.startswith(REPORTS[self.kind])


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "svc_saturated", "svc", 1200, 1, 550,
        "real server + WAL at 1200 live connections: links are full, every arrival "
        "squeezes and every departure refills its neighbours; channels + elastic dominate",
    ),
    Workload(
        "svc_light", "svc", 150, 1, 1000,
        "same server and mix at 150 live connections: all at max level, nothing rejected; "
        "protocol, event loop, WAL fsync and routing dominate; elastic work is a no-op",
    ),
    Workload(
        "engine_batch", "batch", 1200, 64, 450,
        "in-process apply_batch in batches of 64 with 1% fail/repair, then replay_log of its "
        "WAL: group commit and deferred fills vs one-event epochs; bypasses sockets",
    ),
    Workload(
        "campaign_quick", "campaign", 600, 1, 100,
        "figure2 + figure4 + table1 at quick scale, jobs=1: DES loop, estimator and Markov "
        "solve with link failures; bypasses service, wal and protocol",
    ),
)


def workload_by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; choose from {[w.name for w in WORKLOADS]}")


def client_seeds(seed: int, count: int) -> List[int]:
    """Independent per-client seeds derived from the run seed."""
    root = random.Random(seed)
    return [root.randrange(2**63) for _ in range(count)]


class SteadyStateMix:
    """One logical client's seeded, population-holding request source.

    Establishes and teardowns are balanced around ``population`` by a
    proportional rule — the establish probability moves from 0.5 by up
    to ±0.5 as the owned count leaves the target by 5% — so rejected
    establishes (a decision, not a failure) are made up for and the
    population stays within a few percent of the target.

    The caller feeds every response back through :meth:`observe`;
    connection ids are learned there and nowhere else.
    """

    def __init__(
        self,
        seed: int,
        num_nodes: int,
        population: int,
        query_every: int = 0,
        links: Sequence[Sequence[int]] = (),
    ) -> None:
        self.rng = random.Random(seed)
        self.num_nodes = num_nodes
        self.population = population
        self.query_every = query_every
        self.links = [list(link) for link in links]
        self.owned: List[int] = []
        self.failed: Optional[List[int]] = None
        self._next_id = 0
        self._since_query = 0

    # -- request shapes -------------------------------------------------
    def _stamp(self, body: Dict[str, Any]) -> Dict[str, Any]:
        self._next_id += 1
        body["id"] = self._next_id
        return body

    def establish(self) -> Dict[str, Any]:
        src = self.rng.randrange(self.num_nodes)
        dst = self.rng.randrange(self.num_nodes - 1)
        if dst >= src:
            dst += 1
        return self._stamp(
            {"op": "establish", "src": src, "dst": dst, "qos": dict(PAPER_QOS)}
        )

    def _teardown(self) -> Dict[str, Any]:
        # Popped now, not on the response: a batch must never name one
        # id twice.
        cid = self.owned.pop(self.rng.randrange(len(self.owned)))
        return self._stamp({"op": "teardown", "conn_id": cid})

    def _mutation(self) -> Dict[str, Any]:
        gap = (self.population - len(self.owned)) / (0.05 * self.population)
        p_establish = 0.5 + 0.5 * max(-1.0, min(1.0, gap))
        if not self.owned or self.rng.random() < p_establish:
            return self.establish()
        return self._teardown()

    def next_request(self) -> Dict[str, Any]:
        """The client's next request: a mutation, or on cadence a query."""
        self._since_query += 1
        if self.query_every and self._since_query >= self.query_every and self.owned:
            self._since_query = 0
            cid = self.owned[self.rng.randrange(len(self.owned))]
            return self._stamp({"op": "query", "what": "connection", "conn_id": cid})
        return self._mutation()

    def toggle(self) -> Dict[str, Any]:
        """Fail a random link, or repair the one this source failed last."""
        if self.failed is not None:
            link, self.failed = self.failed, None
            return self._stamp({"op": "repair", "link": link})
        self.failed = self.links[self.rng.randrange(len(self.links))]
        return self._stamp({"op": "fail", "link": self.failed})

    def next_batch(self, size: int, with_toggle: bool = False) -> List[Dict[str, Any]]:
        """``size`` mutations for one ``apply_batch`` call.

        A fail/repair toggle takes the batch's last slot: the ids a
        failure drops are learned from its response before the next
        batch is generated, so no teardown ever names a connection the
        failure already removed (no operation fails by construction).
        """
        batch = [self._mutation() for _ in range(size - with_toggle)]
        if with_toggle:
            batch.append(self.toggle())
        return batch

    # -- feedback -------------------------------------------------------
    def observe(self, request: Dict[str, Any], response: Optional[Dict[str, Any]]) -> None:
        """Learn from the program's answer to ``request``."""
        if not response or not response.get("ok"):
            return
        result = response.get("result", {})
        if request["op"] == "establish" and result.get("accepted"):
            self.owned.append(result["conn_id"])
        elif request["op"] == "fail":
            dropped = set(result.get("dropped", ()))
            if dropped:
                self.owned = [cid for cid in self.owned if cid not in dropped]


def is_failure(response: Optional[Dict[str, Any]]) -> bool:
    """Whether a response counts against ``failed``.

    A transport error (no response), any error envelope — ``internal``,
    ``shed``, ``deadline``, or a ``not-live``/``link-state`` the
    generator should never provoke — is a failure.  A rejected establish
    (``ok`` with ``accepted: false``) is an admission *decision*.
    """
    return response is None or not response.get("ok")
