"""The partition-semantics query service: one scalable front door for every kernel.

PRs 1–4 built fast in-memory decision procedures — the incremental ALG
implication index, the indexed chase, the partition and lattice kernels —
but using them meant importing the library and hand-wiring engines per
query.  This subsystem packages them behind a stable, stateful, scalable
request surface:

* :mod:`repro.service.wire` — versioned, deterministic JSON codecs for every
  object a request or result carries (expressions, PDs — an FPD travels as
  its ``"X <= Y"`` PD text — FDs, relations/databases, requests, results);
  the service speaks exactly :data:`WIRE_VERSION` and refuses any other;
* :mod:`repro.service.session` — :class:`Session`, the uniform
  ``QueryRequest → QueryResult`` surface owning one shared implication
  index, the Theorem 12 normalization cache, and a result cache
  invalidated precisely when Γ grows;
* :mod:`repro.service.planner` — the batch planner that regroups a mixed
  stream by kind and dependency set and routes each group into the amortized
  batch APIs;
* :mod:`repro.service.executor` — :class:`ShardExecutor`, the multiprocess
  fan-out with per-worker session warm-up, wire-codec transport,
  deterministic result ordering and a parent-side shared result tier, the
  sharded backend's only cache;
* :mod:`repro.service.result_cache` — :class:`ResultCache`, the one LRU
  result cache class: an in-process session's cache and the executor's
  shared tier;
* :mod:`repro.service.supervisor` — :class:`SupervisedPool`, the fault-
  tolerant worker pool under the executor: liveness monitoring, warm
  restarts, retry/split/quarantine escalation and hard deadline kills;
* :mod:`repro.service.faults` — :class:`FaultPlan`, the deterministic
  fault-injection harness (worker crashes, poison requests, delays, hangs,
  corrupted replies) used by the chaos tests and the CI smoke job;
* :mod:`repro.service.cli` — ``python -m repro.service``, serving JSONL
  request files or stdin streams;
* :mod:`repro.service.telemetry` — the observability layer: per-request
  trace spans threaded decode → window → plan → execute → respond (crossing
  the worker process boundary), the central :class:`MetricsRegistry` behind
  the ``{"control": "metrics"}`` line and ``--metrics-dir`` dumps, and the
  per-work-unit kernel cost log fed by :mod:`repro.profiling` counters;
* :mod:`repro.service.snapshot` — durable Γ snapshots: a versioned,
  digest-protected codec for a warm session's Γ, implication-index
  fixpoint and result cache, enabling zero-warmup restores
  of sessions, shard workers and servers (``--snapshot-dir``); it reads
  exactly :data:`SNAPSHOT_VERSION` and refuses any other.

Minimal use::

    from repro.service import QueryRequest, Session

    session = Session(dependencies=["A = A*B", "B = B*C"])
    result = session.execute(QueryRequest(kind="implies", query=PartitionDependency.parse("A = A*C")))
    result.value   # {"implied": True}
"""

from repro.service.api import (
    ConsistencyAnswer,
    CounterexampleAnswer,
    EquivalenceAnswer,
    ImplicationAnswer,
    QuotientAnswer,
    answer_for,
    consistent_request,
    counterexample_request,
    equivalent_request,
    implies_request,
    quotient_request,
)
from repro.service.config import OVERLOAD_POLICIES, ServiceConfig
from repro.service.executor import ShardExecutor
from repro.service.faults import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    clear_fault_plan,
    install_fault_plan,
    installed_plan,
)
from repro.service.microbatch import MicroBatcher, Ticket
from repro.service.planner import Batch, execute_plan, naive_dispatch, plan, plan_summary
from repro.service.result_cache import ResultCache
from repro.service.server import QueryServer, serve_stream
from repro.service.session import DependencyContext, Session
from repro.service.supervisor import SupervisedPool, WorkItem, WorkUnit
from repro.service.telemetry import (
    CostLog,
    MetricsRegistry,
    Span,
    Tracer,
    metrics_export,
    new_trace_id,
    root_span_id,
)
from repro.service.snapshot import (
    SNAPSHOT_VERSION,
    decode_snapshot,
    dump_snapshot,
    encode_snapshot,
    read_snapshot,
    restore_session,
    save_snapshot,
    snapshot_path,
)
from repro.service.wire import (
    CONSISTENT_METHODS,
    REQUEST_KINDS,
    WIRE_VERSION,
    QueryRequest,
    QueryResult,
    canonical_dumps,
    canonical_loads,
    decode_database,
    decode_expression,
    decode_fd,
    decode_pd,
    decode_relation,
    decode_request,
    decode_result,
    dump_request_line,
    dump_result_line,
    encode_database,
    encode_expression,
    encode_fd,
    encode_pd,
    encode_relation,
    encode_request,
    encode_result,
    error_result_for_line,
    load_request_line,
    load_result_line,
    request_cache_key,
    request_id_hint,
    requests_to_jsonl,
)

__all__ = [
    "WIRE_VERSION",
    "REQUEST_KINDS",
    "CONSISTENT_METHODS",
    "QueryRequest",
    "QueryResult",
    "Session",
    "DependencyContext",
    "ServiceConfig",
    "OVERLOAD_POLICIES",
    "QueryServer",
    "serve_stream",
    "MicroBatcher",
    "Ticket",
    "ImplicationAnswer",
    "EquivalenceAnswer",
    "ConsistencyAnswer",
    "QuotientAnswer",
    "CounterexampleAnswer",
    "implies_request",
    "equivalent_request",
    "consistent_request",
    "quotient_request",
    "counterexample_request",
    "answer_for",
    "Batch",
    "plan",
    "plan_summary",
    "execute_plan",
    "naive_dispatch",
    "ShardExecutor",
    "ResultCache",
    "SupervisedPool",
    "WorkItem",
    "WorkUnit",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "install_fault_plan",
    "installed_plan",
    "clear_fault_plan",
    "Span",
    "Tracer",
    "MetricsRegistry",
    "CostLog",
    "metrics_export",
    "new_trace_id",
    "root_span_id",
    "SNAPSHOT_VERSION",
    "encode_snapshot",
    "dump_snapshot",
    "decode_snapshot",
    "restore_session",
    "save_snapshot",
    "read_snapshot",
    "snapshot_path",
    "canonical_dumps",
    "canonical_loads",
    "encode_expression",
    "decode_expression",
    "encode_pd",
    "decode_pd",
    "encode_fd",
    "decode_fd",
    "encode_relation",
    "decode_relation",
    "encode_database",
    "decode_database",
    "encode_request",
    "decode_request",
    "encode_result",
    "decode_result",
    "request_cache_key",
    "request_id_hint",
    "error_result_for_line",
    "dump_request_line",
    "load_request_line",
    "dump_result_line",
    "load_result_line",
    "requests_to_jsonl",
]
