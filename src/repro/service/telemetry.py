"""End-to-end observability: trace spans, a metrics registry, and the cost log.

The service spans five layers (wire → micro-batch → planner → shard executor/
supervisor → kernels); this module is the one place their telemetry meets.
It deliberately changes *nothing* about answers: trace ids are excluded from
cache keys and results (see :func:`repro.service.wire.request_cache_key`), a
traced stream is byte-identical on its result lines to an untraced one, and
every opt-in hook no-ops behind a single ``enabled()`` check when telemetry
is off.

Three coordinated pieces:

**Trace spans** (:class:`Tracer`).  A trace id is minted at decode (or
propagated from the request's optional wire-v3 ``trace`` field).  A span is
recorded whole, once it is over: :meth:`Tracer.record` takes its name, its
``perf_counter`` start and end stamps, its parent and its attrs and events.
The *root span id is derived from the trace id* (``<trace>.r``), so any
layer that knows only ``request.trace`` — the session evaluating in a worker
process, the supervisor recording an escalation — can parent spans to the
request's root without extra plumbing.  :func:`record_request` cuts a
request's root and its ``plan``/``execute``/``respond`` children from the
life-cycle stamps its serving mode already keeps: a micro-batch ticket's in
the server, the whole-stream dispatch stamps in the file CLI.  Recorded
spans buffer in a bounded deque; traced worker processes drain theirs into
the supervisor reply's ``info`` dict (``{"spans": [...], "cost": [...]}``,
empty when untraced) and the parent adopts them, so one request's tree is
whole even when its work crossed process boundaries.

**Metrics registry** (:class:`MetricsRegistry`).  Counters, gauges, and
series (bucket counts plus recent samples) under flat dotted names.  A
server builds one and hands it to its micro-batcher and shard executor,
which count into it directly, always on; the ``stats``, ``health`` and
``metrics`` control lines and the ``--metrics-dir`` dump are views over it,
so each count is kept in one place.

**Cost log** (:class:`CostLog`).  Every executed work unit appends one
``(kind, method, |Γ|, request count, query size, kernel counters, wall
time)`` record.  It answers which work units cost what and why: the kernel
counters say where a slow unit spent its time (closure pops, chase steps,
backtrack nodes), and ``|Γ|`` and the query size say what it was given.

The opt-in pieces are process-global on purpose (one service process, one
telemetry sink; their counters go to the registry :func:`configure` was last
given); ``os.register_at_fork`` clears inherited buffers in forked workers
so parent spans are never double-reported, and :func:`reset` gives tests a
clean slate.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro import profiling
from repro.service.wire import QueryRequest, QueryResult, canonical_dumps

__all__ = [
    "Tracer",
    "MetricsRegistry",
    "CostLog",
    "configure",
    "enabled",
    "reset",
    "registry",
    "tracer",
    "cost_log",
    "new_trace_id",
    "root_span_id",
    "ensure_trace",
    "begin_request",
    "record_request",
    "record_evaluate",
    "work_unit",
    "record_escalation",
    "drain_for_reply",
    "adopt_reply",
    "metrics_export",
    "flush",
]

#: Default histogram bucket upper bounds, in milliseconds.
DEFAULT_BUCKETS_MS = (0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0)

#: Bounded-buffer sizes: old entries are dropped, never blocked on.
SPAN_BUFFER_LIMIT = 65536
COST_LOG_LIMIT = 65536

#: Most recent samples each series keeps for its percentiles.
STATS_WINDOW = 4096

#: Reported percentiles of a series summary.
PERCENTILE_POINTS = (50, 95, 99)

#: Distinct tenant labels per per-tenant counter group; the rest aggregate
#: into :data:`OTHER_TENANTS`.
TENANT_STATS_LIMIT = 64
OTHER_TENANTS = "~other"


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """Mints span ids and buffers recorded spans (bounded, oldest dropped).

    Stamps are ``time.perf_counter()`` values, converted to wall-clock
    milliseconds on record through the tracer's anchor, so spans recorded in
    different processes on one machine land on a shared timeline.
    """

    def __init__(self, limit: int = SPAN_BUFFER_LIMIT) -> None:
        self._spans: deque = deque(maxlen=limit)
        self._counter = itertools.count(1)
        self._prefix = f"{os.getpid():x}"
        # wall(perf_t) = anchor + perf_t: one wall-clock timeline per machine.
        self._anchor = time.time() - time.perf_counter()
        self.recorded = 0
        self.adopted = 0

    def new_id(self, tag: str = "s") -> str:
        """A process-unique id; the pid prefix keeps workers from colliding."""
        return f"{tag}{self._prefix}-{next(self._counter):x}"

    def _wall_ms(self, perf_time: float) -> float:
        return round((self._anchor + perf_time) * 1000.0, 3)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        attrs: Optional[dict] = None,
        events: Sequence[tuple] = (),
    ) -> None:
        """Buffer one finished span.

        ``start``/``end`` and each ``(name, at)`` event stamp are
        ``perf_counter`` values; a missing trace or span id is minted.
        """
        payload: Dict[str, Any] = {
            "trace": trace_id if trace_id is not None else self.new_id("t"),
            "span": span_id if span_id is not None else self.new_id("s"),
            "parent": parent_id,
            "name": name,
            "start_ms": self._wall_ms(start),
            "duration_ms": round(max(0.0, end - start) * 1000.0, 3),
        }
        if attrs:
            payload["attrs"] = attrs
        if events:
            payload["events"] = [{"name": event, "at_ms": self._wall_ms(at)} for event, at in events]
        self._spans.append(payload)
        self.recorded += 1

    def adopt(self, payloads: Sequence[dict]) -> None:
        """Take already-exported span dicts from another process's tracer."""
        for payload in payloads:
            if isinstance(payload, dict):
                self._spans.append(payload)
                self.adopted += 1

    def drain(self) -> List[dict]:
        """Remove and return every buffered span payload."""
        drained: List[dict] = []
        while True:
            try:
                drained.append(self._spans.popleft())
            except IndexError:
                return drained

    def snapshot(self) -> Dict[str, int]:
        return {
            "recorded": self.recorded,
            "adopted": self.adopted,
            "pending": len(self._spans),
        }


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def percentile(samples: Sequence[float], point: float) -> Optional[float]:
    """Nearest-rank percentile of a *sorted* sample list (``None`` when empty)."""
    if not samples:
        return None
    rank = max(1, min(len(samples), math.ceil(point / 100.0 * len(samples))))
    return samples[rank - 1]


class _Series:
    """Observations of one quantity: fixed-bucket counts over its whole life
    plus the :data:`STATS_WINDOW` most recent samples, which the stats
    documents summarize as *recent* percentiles."""

    __slots__ = ("bounds", "counts", "count", "total", "recent")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.recent: deque = deque(maxlen=STATS_WINDOW)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        # The first bound >= value; past the last bound is the overflow slot.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.recent.append(value)

    def as_dict(self) -> dict:
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": round(self.total, 6),
        }


def summarize(samples: Sequence[float]) -> dict:
    """p50/p95/p99, mean and max of a sample set (rounded to 3 places)."""
    ordered = sorted(samples)
    summary: Dict[str, Any] = {
        f"p{point}": None if not ordered else round(percentile(ordered, point), 3)
        for point in PERCENTILE_POINTS
    }
    summary["mean"] = round(sum(ordered) / len(ordered), 3) if ordered else None
    summary["max"] = round(ordered[-1], 3) if ordered else None
    summary["samples"] = len(ordered)
    return summary


def _tenant_prefix(group: str) -> str:
    return f"{group}.per_tenant." if group else "per_tenant."


class MetricsRegistry:
    """Counters, gauges, and bounded series under flat dotted names.

    Each serving layer writes its counts here directly; the ``stats``,
    ``health`` and ``metrics`` documents are views that read them back.
    The export is a plain dict ready for :func:`canonical_dumps`: three
    top-level sections whose keys sort deterministically, so two registries
    fed the same observations export byte-identical documents.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._series: Dict[str, _Series] = {}
        # group -> tenant labels admitted to its per-tenant counters
        self._tenant_labels: Dict[str, set] = {}

    def inc(self, name: str, value: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def inc_tenant(self, name: str, tenant: Optional[str], value: int = 1) -> None:
        """Bump ``name`` and its per-tenant counter ``<group>.per_tenant.<label>.<field>``.

        This is the one label cap of the service: each group admits
        :data:`TENANT_STATS_LIMIT` tenant labels, and traffic from tenants
        beyond them lands on ``"~other"``, so a million-tenant stream cannot
        balloon the registry.  The per-tenant counters always sum to the total;
        the ``None`` tenant is labelled ``"default"``.
        """
        self.inc(name, value)
        group, _, field = name.rpartition(".")
        labels = self._tenant_labels.setdefault(group, set())
        label = "default" if tenant is None else tenant
        if label not in labels:
            if len(labels) >= TENANT_STATS_LIMIT:
                label = OTHER_TENANTS
            labels.add(label)
        self.inc(f"{_tenant_prefix(group)}{label}.{field}", value)

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float, bounds: Sequence[float] = DEFAULT_BUCKETS_MS) -> None:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = _Series(bounds)
        series.observe(value)

    def value(self, name: str) -> float:
        """A counter's or gauge's current value (0 when never written)."""
        return self._counters.get(name, self._gauges.get(name, 0))

    def series(self, name: str) -> _Series:
        """A series (an empty one when never observed)."""
        return self._series.get(name) or _Series(())

    def family(self, prefix: str) -> Dict[str, int]:
        """Every counter under ``prefix``, keyed by the rest of its name (sorted)."""
        return {
            name[len(prefix) :]: self._counters[name]
            for name in sorted(self._counters)
            if name.startswith(prefix)
        }

    def per_tenant(self, group: str, fields: Sequence[str]) -> Dict[str, Dict[str, int]]:
        """The ``inc_tenant`` counters of a group as ``{label: {field: count}}``, sorted by label."""
        out: Dict[str, Dict[str, int]] = {}
        for name, value in self.family(_tenant_prefix(group)).items():
            label, _, field = name.rpartition(".")
            out.setdefault(label, dict.fromkeys(fields, 0))[field] = value
        return dict(sorted(out.items()))

    def export(self) -> dict:
        return {
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "gauges": {
                name: (round(value, 6) if isinstance(value, float) else value)
                for name, value in sorted(self._gauges.items())
            },
            "histograms": {name: self._series[name].as_dict() for name in sorted(self._series)},
        }


# ---------------------------------------------------------------------------
# Cost log
# ---------------------------------------------------------------------------


class CostLog:
    """Bounded buffer of per-work-unit cost records (the planner's feedstock)."""

    def __init__(self, limit: int = COST_LOG_LIMIT) -> None:
        self._records: deque = deque(maxlen=limit)
        self.recorded = 0

    def append(self, record: dict) -> None:
        self._records.append(record)
        self.recorded += 1

    def extend(self, records: Sequence[dict]) -> None:
        for record in records:
            if isinstance(record, dict):
                self.append(record)

    def drain(self) -> List[dict]:
        drained: List[dict] = []
        while True:
            try:
                drained.append(self._records.popleft())
            except IndexError:
                return drained

    def snapshot(self) -> Dict[str, int]:
        return {"recorded": self.recorded, "pending": len(self._records)}


# ---------------------------------------------------------------------------
# Process-global state
# ---------------------------------------------------------------------------


class _TelemetryState:
    def __init__(self) -> None:
        self.enabled = False
        self.metrics_dir: Optional[Path] = None
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.cost_log = CostLog()


_STATE = _TelemetryState()
_FLUSH_LOCK = threading.Lock()


def configure(
    *,
    trace: bool = False,
    metrics_dir: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Turn telemetry on or off for this process.

    Tracing is enabled when either flag asks for it: an explicit ``trace``
    request, or a ``metrics_dir`` (a dump destination implies collection).
    ``registry`` is where the opt-in counters of this process go from now
    on — a server passes its own, so one registry holds all its counts.
    Existing buffers are kept — reconfiguring mid-run must not lose spans.
    """
    _STATE.metrics_dir = Path(metrics_dir) if metrics_dir else None
    _STATE.enabled = bool(trace) or _STATE.metrics_dir is not None
    if registry is not None:
        _STATE.registry = registry


def enabled() -> bool:
    return _STATE.enabled


def reset() -> None:
    """Fresh disabled state — test isolation."""
    _STATE.enabled = False
    _STATE.metrics_dir = None
    _STATE.registry = MetricsRegistry()
    _STATE.tracer = Tracer()
    _STATE.cost_log = CostLog()


def registry() -> MetricsRegistry:
    return _STATE.registry


def tracer() -> Tracer:
    return _STATE.tracer


def cost_log() -> CostLog:
    return _STATE.cost_log


def metrics_dir() -> Optional[Path]:
    return _STATE.metrics_dir


def _after_fork() -> None:
    # A forked worker inherits the parent's buffers; drop them (they are the
    # parent's to report) and re-anchor ids on the child's pid.  The enabled
    # flag is inherited on purpose — a traced parent wants traced workers —
    # but the child never writes the parent's dump files.
    _STATE.metrics_dir = None
    _STATE.registry = MetricsRegistry()
    _STATE.tracer = Tracer()
    _STATE.cost_log = CostLog()


os.register_at_fork(after_in_child=_after_fork)


# ---------------------------------------------------------------------------
# Request-level spans
# ---------------------------------------------------------------------------


def new_trace_id() -> str:
    return _STATE.tracer.new_id("t")


def root_span_id(trace_id: str) -> str:
    """The request root's span id, derivable from the trace id alone.

    This convention is what lets spans parent correctly across process
    boundaries: a worker that knows only ``request.trace`` can still attach
    its evaluate span to the right root.
    """
    return f"{trace_id}.r"


def ensure_trace(request: QueryRequest) -> QueryRequest:
    """The request with a trace id — the caller's if present, minted otherwise."""
    if request.trace is not None:
        return request
    return replace(request, trace=new_trace_id())


def begin_request(request: QueryRequest) -> QueryRequest:
    """Mint/propagate the trace id at decode and count the request as started."""
    _STATE.registry.inc("trace.requests_started")
    return ensure_trace(request)


#: Error types whose spans carry an event an operator looks for.
_OUTCOME_EVENTS = {"Timeout": "deadline_exceeded", "Overloaded": "shed", "WorkerCrashed": "worker_crashed"}


def _add_outcome(attrs: dict, events: list, result: Optional[QueryResult], at: float) -> None:
    """Add ``result``'s ``ok``/``error_type`` attrs to a span, and the event
    an operator looks for on its error, stamped ``at``.  An interrupted span
    (``result`` is ``None``) has no outcome."""
    if result is None:
        return
    attrs["ok"] = result.ok
    error_type = None if result.ok else (result.error or {}).get("type")
    if error_type:
        attrs["error_type"] = error_type
    if error_type in _OUTCOME_EVENTS:
        events.append((_OUTCOME_EVENTS[error_type], at))


def record_request(
    request: QueryRequest,
    result: Optional[QueryResult],
    *,
    enqueued_at: float,
    responded_at: float,
    planned_at: Optional[float] = None,
    executed_at: Optional[float] = None,
    window_closed_at: Optional[float] = None,
    window_size: Optional[int] = None,
    window_reason: Optional[str] = None,
    rejected: bool = False,
) -> None:
    """Record a finished request's root span and its stage children.

    Every stamp is a ``perf_counter`` value the serving mode already holds:
    a micro-batch ticket's life cycle in the server, the whole stream's
    dispatch stamps in the file CLI.  ``plan`` runs from enqueue to plan,
    ``execute`` from plan to results, ``respond`` from results to the write;
    a stage missing either stamp (a shed or refused request) is left out.
    """
    trace = request.trace
    if trace is None:
        return
    root = root_span_id(trace)
    for name, start, end in (
        ("plan", enqueued_at, planned_at),
        ("execute", planned_at, executed_at),
        ("respond", executed_at, responded_at),
    ):
        if start is not None and end is not None:
            _STATE.tracer.record(name, start, end, trace_id=trace, parent_id=root)
    attrs: Dict[str, Any] = {"kind": request.kind, "id": request.id, "tenant": request.tenant}
    events: list = []
    if rejected:
        events.append(("rejected", responded_at))
    if window_size is not None:
        attrs["window_size"] = window_size
        attrs["window_closed_by"] = window_reason
    if window_closed_at is not None:
        events.append(("window_closed", window_closed_at))
    _add_outcome(attrs, events, result, responded_at)
    _STATE.tracer.record(
        "request", enqueued_at, responded_at, trace_id=trace, span_id=root, attrs=attrs, events=events
    )
    _STATE.registry.inc("trace.requests_finished")


def record_evaluate(
    request: QueryRequest, result: Optional[QueryResult], start: float, prof: profiling.KernelProfile
) -> None:
    """Record a session ``evaluate`` span, from ``start`` to now, under the request's root."""
    end = time.perf_counter()
    attrs = {"kind": request.kind, "id": request.id, "kernel": prof.as_dict()}
    events: list = []
    _add_outcome(attrs, events, result, end)
    _STATE.tracer.record(
        "evaluate",
        start,
        end,
        trace_id=request.trace,
        parent_id=root_span_id(request.trace),
        attrs=attrs,
        events=events,
    )


# ---------------------------------------------------------------------------
# Work units and escalations
# ---------------------------------------------------------------------------


@contextmanager
def work_unit(
    kind: str,
    *,
    method: str = "",
    gamma: int = 0,
    requests: int = 1,
    query_size: int = 0,
) -> Iterator[Optional[profiling.KernelProfile]]:
    """Profile one planner dispatch quantum and append its cost record.

    The record lands even when the wrapped kernel call raises (the fallback
    path still did the work), so "one record per executed work unit" holds
    under faults too.
    """
    if not _STATE.enabled:
        yield None
        return
    state = _STATE
    start = time.perf_counter()
    with profiling.profile() as prof:
        try:
            yield prof
        finally:
            record = {
                "kind": kind,
                "method": method,
                "gamma": gamma,
                "requests": requests,
                "query_size": query_size,
                "kernel": prof.as_dict(),
                "wall_ms": round((time.perf_counter() - start) * 1000.0, 3),
            }
            state.cost_log.append(record)
            _count_cost_record(state.registry, record)


def _count_cost_record(registry: MetricsRegistry, record: Any) -> None:
    """Count one cost record into ``registry``: ``costlog.records``, its
    non-zero ``kernel.*`` counters and its ``work_unit.wall_ms`` sample.

    Records adopted from a worker reply crossed a pipe, so fields of the
    wrong type are skipped rather than trusted.
    """
    registry.inc("costlog.records")
    if not isinstance(record, dict):
        return
    kernel = record.get("kernel")
    if isinstance(kernel, dict):
        for name, value in kernel.items():
            if isinstance(value, int) and value:
                registry.inc(f"kernel.{name}", value)
    wall = record.get("wall_ms")
    if isinstance(wall, (int, float)):
        registry.observe("work_unit.wall_ms", float(wall))


def request_query_size(request: QueryRequest) -> int:
    """A size proxy for the request's question (AST nodes / FD count / rows)."""
    if request.query is not None:
        return request.query.left.size() + request.query.right.size()
    if request.left is not None and request.right is not None:
        return request.left.size() + request.right.size()
    if request.fds is not None:
        return len(request.fds) + (1 if request.target is not None else 0)
    if request.database is not None:
        return sum(len(relation.rows) for relation in request.database.relations)
    if request.pool is not None:
        return sum(expression.size() for expression in request.pool)
    return 0


def record_escalation(trace: Optional[str], step: str, reason: str, **attrs: Any) -> None:
    """One annotated instantaneous span per escalation step on a request.

    ``step`` is the ladder rung (``retry`` / ``split`` / ``quarantine`` /
    ``timeout``); the span parents to the affected request's root when the
    request carried a trace id.
    """
    if not _STATE.enabled:
        return
    now = time.perf_counter()
    _STATE.tracer.record(
        "escalation",
        now,
        now,
        trace_id=trace,
        parent_id=root_span_id(trace) if trace is not None else None,
        attrs={"step": step, "reason": reason, **attrs},
        events=[("deadline_exceeded", now)] if step == "timeout" else (),
    )


def record_unit_dispatch(
    traces: Sequence[Optional[str]],
    *,
    worker: int,
    items: int,
    dispatched_at: float,
    attempt: int,
) -> None:
    """One span per supervised work-unit round trip, from its dispatch until
    now, parented to its first traced request's root (the others are listed
    in the attrs)."""
    if not _STATE.enabled:
        return
    now = time.perf_counter()
    traced = [trace for trace in traces if trace]
    parent_trace = traced[0] if traced else None
    _STATE.tracer.record(
        "work_unit_dispatch",
        dispatched_at,
        now,
        trace_id=parent_trace,
        parent_id=root_span_id(parent_trace) if parent_trace is not None else None,
        attrs={"worker": worker, "items": items, "attempt": attempt, "traces": traced},
    )
    _STATE.registry.observe("unit_dispatch.wall_ms", (now - dispatched_at) * 1000.0)


# ---------------------------------------------------------------------------
# Cross-process transport and export
# ---------------------------------------------------------------------------


def drain_for_reply() -> Dict[str, Any]:
    """Worker side: the reply's info dict.

    Buffered spans and cost records are packed when telemetry is on; an
    untraced reply carries an empty dict.
    """
    payload: Dict[str, Any] = {}
    if not _STATE.enabled:
        return payload
    spans = _STATE.tracer.drain()
    if spans:
        payload["spans"] = spans
    records = _STATE.cost_log.drain()
    if records:
        payload["cost"] = records
    return payload


def adopt_reply(info: dict, registry: Optional[MetricsRegistry] = None) -> None:
    """Parent side: take a worker reply's spans and cost records.

    Both are adopted when telemetry is on; each cost record is counted into
    ``registry`` (this process's registry when omitted).  Pops every key it
    consumes.
    """
    spans = info.pop("spans", None)
    cost = info.pop("cost", None)
    if not _STATE.enabled:
        return
    if spans:
        _STATE.tracer.adopt(spans)
    if cost:
        _STATE.cost_log.extend(cost)
        registry = _STATE.registry if registry is None else registry
        for record in cost:
            _count_cost_record(registry, record)


def metrics_export(registry: Optional[MetricsRegistry] = None) -> dict:
    """The one deterministic metrics document (ready for canonical JSON).

    ``registry`` defaults to this process's; the trace and cost-log
    sections describe this process's buffers.
    """
    document = (_STATE.registry if registry is None else registry).export()
    document["trace"] = _STATE.tracer.snapshot()
    document["costlog"] = _STATE.cost_log.snapshot()
    return document


def flush(document: Optional[dict] = None, directory: Optional[str] = None) -> Optional[Dict[str, int]]:
    """Append buffered telemetry to the metrics directory's JSONL files.

    Writes ``trace.jsonl`` (one span per line), ``costlog.jsonl`` (one work
    unit per line), and ``metrics.jsonl`` (one metrics document per flush:
    ``document``, or :func:`metrics_export` when omitted).  Returns per-file
    appended counts, or ``None`` when no directory is configured.
    """
    target = Path(directory) if directory else _STATE.metrics_dir
    if target is None:
        return None
    with _FLUSH_LOCK:
        target.mkdir(parents=True, exist_ok=True)
        spans = _STATE.tracer.drain()
        records = _STATE.cost_log.drain()
        if spans:
            with (target / "trace.jsonl").open("a", encoding="utf-8") as handle:
                for span in spans:
                    handle.write(canonical_dumps(span) + "\n")
        if records:
            with (target / "costlog.jsonl").open("a", encoding="utf-8") as handle:
                for record in records:
                    handle.write(canonical_dumps(record) + "\n")
        with (target / "metrics.jsonl").open("a", encoding="utf-8") as handle:
            handle.write(canonical_dumps(document if document is not None else metrics_export()) + "\n")
    return {"spans": len(spans), "cost": len(records)}
