"""Always-on admission-control service over the elastic-QoS manager.

The paper's manager is used *prescriptively* here: a long-running
asyncio service accepts live establish/teardown/failure/repair requests
over a JSON-per-line socket protocol, batches them into epochs (one
write-ahead fsync per batch), and answers admission decisions —
with the robustness shell a real deployment needs:

* **backpressure** — a bounded request queue with utility-aware load
  shedding (:mod:`repro.service.shedding`): a saturated service rejects
  with a ``retry_after`` hint instead of queueing unboundedly,
  mirroring the paper's degrade-don't-die semantics;
* **deadline budgets** — every queued request carries a deadline; work
  that would be answered too late is expired instead of applied, so a
  stuck client or pathological request cannot stall an epoch;
* **crash recovery** — an append-only write-ahead replay log
  (:mod:`repro.service.wal`) flushed per epoch: a ``kill -9`` mid-run
  recovers by replaying the log into a bitwise-identical manager state,
  and any live trace converts into an offline batch campaign
  (:mod:`repro.service.replay`, ``repro replay``);
* **operability** — graceful drain on SIGTERM, health/readiness
  probes, decision-latency telemetry (p50/p99), and a load-generator
  client (:mod:`repro.service.loadgen`, ``repro loadgen``) that
  survives a mid-run server death with bounded reconnects;
* **fault tolerance under test** — a deterministic chaos layer
  (:mod:`repro.service.chaos`): seeded crash schedules aborting the
  process at named durability boundaries, injected WAL disk faults
  that flip the server into a degraded read-only mode with
  probation-based re-arm (:mod:`repro.service.server`), and a
  misbehaving socket proxy; plus a supervised restart loop
  (:mod:`repro.service.supervisor`, ``repro supervise``) and a seeded
  chaos-soak runner (:mod:`repro.service.soak`, ``repro chaos``) that
  assert recovery is bitwise on every path.

Layering note (enforced by ``repro.lint`` DET003): the *decision*
modules — :mod:`protocol`, :mod:`shedding`, :mod:`wal`,
:mod:`engine`, :mod:`replay`, and :mod:`chaos` (pure seeded mechanism)
— are wall-clock-free, so a replayed log reproduces the live run bit
for bit; only the serving shell (:mod:`server`, :mod:`telemetry`,
:mod:`loadgen`) and the process harnesses (:mod:`procs`,
:mod:`supervisor`, :mod:`soak`) may read real time.
"""

from __future__ import annotations

from repro.service.chaos import (
    CHAOS_EXIT_CODE,
    CRASH_SITES,
    ChaosCrash,
    ChaosProxy,
    ChaosSchedule,
    DiskFaultPlan,
    chaos_point,
    install_chaos,
    install_disk_faults,
    reset_chaos,
    uninstall_chaos,
)
from repro.service.engine import EngineConfig, ServiceEngine
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    parse_request,
    qos_from_dict,
    qos_to_dict,
)
from repro.service.replay import ReplayResult, recover_engine, replay_log
from repro.service.shedding import BackpressureConfig, ShedDecision, admit_decision
from repro.service.supervisor import ServeSupervisor, SupervisorPolicy, SupervisorReport
from repro.service.wal import (
    ReplayLogReader,
    ReplayLogWriter,
    WALWriteError,
    parse_topology_arg,
)
from repro.service.server import AdmissionService, DegradedConfig, ServiceConfig

__all__ = [
    "AdmissionService",
    "BackpressureConfig",
    "CHAOS_EXIT_CODE",
    "CRASH_SITES",
    "ChaosCrash",
    "ChaosProxy",
    "ChaosSchedule",
    "DegradedConfig",
    "DiskFaultPlan",
    "EngineConfig",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReplayLogReader",
    "ReplayLogWriter",
    "ReplayResult",
    "Request",
    "ServeSupervisor",
    "ServiceConfig",
    "ServiceEngine",
    "ShedDecision",
    "SupervisorPolicy",
    "SupervisorReport",
    "WALWriteError",
    "admit_decision",
    "chaos_point",
    "decode_line",
    "encode_line",
    "error_response",
    "install_chaos",
    "install_disk_faults",
    "ok_response",
    "parse_request",
    "parse_topology_arg",
    "qos_from_dict",
    "qos_to_dict",
    "recover_engine",
    "replay_log",
    "reset_chaos",
    "uninstall_chaos",
]
