"""End-to-end observability: trace spans, the metrics registry, kernel profiling.

The observability contract, pinned at every layer:

* telemetry changes **nothing** about answers — a traced run of the
  200-request acceptance stream is byte-identical on its result lines to an
  untraced run, in-process and sharded, fault-free and under a seeded fault
  plan;
* every admitted request yields a well-formed span tree — a root span
  (``<trace>.r``) with ``plan`` / ``execute`` / ``respond`` children — and
  every executed work unit appends one cost record with kernel counters;
* tracing's cost is pinned as a count of the work it does, not as a
  wall-clock share: exact span and cost-record totals on the acceptance
  stream, at most five spans per request, and nothing at all recorded with
  telemetry off;
* supervised fault escalation (crash → retry → split → quarantine) leaves
  one annotated ``escalation`` span per rung, parented to the victim's root,
  and a hard-killed deadline carries a ``deadline_exceeded`` event;
* ``{"control": "stats"}`` / ``{"control": "health"}`` / ``{"control":
  "metrics"}`` export deterministic canonical JSON (sorted keys, stable
  tier/tenant ordering) that two identically-driven servers reproduce
  byte-for-byte.
"""

import asyncio
import dataclasses
import json
import multiprocessing

import pytest

from repro import profiling
from repro.deadline import check_deadline, deadline_scope
from repro.errors import DeadlineExceeded, ServiceError
from repro.sat.formulas import CnfFormula
from repro.sat.nae3sat import nae_backtracking
from repro.service import supervisor, telemetry
from repro.service.cli import serve_lines
from repro.service.config import ServiceConfig
from repro.service.executor import ShardExecutor
from repro.service.faults import Fault, FaultPlan, clear_fault_plan
from repro.service.planner import execute_plan, naive_dispatch, plan_summary
from repro.service.server import QueryServer, serve_stream
from repro.service.session import Session
from repro.service.supervisor import supervision_stats
from repro.service.wire import (
    QueryRequest,
    canonical_dumps,
    decode_request,
    dump_result_line,
    encode_request,
    load_request_line,
    load_result_line,
    request_cache_key,
    requests_to_jsonl,
)
from repro.workloads.random_service import random_service_requests

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout))


@pytest.fixture(autouse=True)
def _pristine_telemetry():
    clear_fault_plan()
    telemetry.reset()
    yield
    clear_fault_plan()
    telemetry.reset()


@pytest.fixture(scope="module")
def acceptance_stream():
    """The mixed 200-request stream of the acceptance criterion (CLI/server seed)."""
    return random_service_requests(
        200,
        seed=20260730,
        attribute_count=5,
        theory_count=2,
        pds_per_theory=3,
        max_complexity=2,
        kind_weights={"implies": 5, "equivalent": 3, "consistent": 3, "counterexample": 1},
    )


@pytest.fixture(scope="module")
def expected_lines(acceptance_stream):
    return [dump_result_line(r) for r in execute_plan(Session(), acceptance_stream)]


def _span_children(spans):
    """Map parent span id -> list of child span names."""
    children = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(span["name"])
    return children


def _roots(spans):
    return [span for span in spans if span["span"].endswith(".r") and span["name"] == "request"]


# ---------------------------------------------------------------------------
# Kernel profiling counters
# ---------------------------------------------------------------------------


class TestKernelProfiling:
    def test_inactive_by_default(self):
        assert profiling.active() is None

    def test_profile_scope_activates_and_deactivates(self):
        with profiling.profile() as prof:
            assert profiling.active() is prof
        assert profiling.active() is None

    def test_nested_scopes_accumulate_into_parent(self):
        with profiling.profile() as outer:
            with profiling.profile() as inner:
                profiling.active().chase_steps += 5
            assert inner.chase_steps == 5
            outer.backtrack_nodes += 1
        assert outer.chase_steps == 5  # merged up on inner exit
        assert outer.backtrack_nodes == 1

    def test_merge_and_as_dict(self):
        a = profiling.KernelProfile()
        b = profiling.KernelProfile()
        a.closure_pops = 3
        b.closure_pops = 4
        b.deadline_checks = 2
        a.merge(b)
        assert a.as_dict() == {
            "chase_steps": 0,
            "closure_pops": 7,
            "backtrack_nodes": 0,
            "deadline_checks": 2,
            "deadline_exceeded": 0,
        }
        assert a.total_work() == 7

    def test_backtracking_sat_counts_nodes(self):
        formula = CnfFormula.of([["x1", "x2", "~x3"], ["~x1", "x2", "x3"], ["x1", "~x2", "x3"]])
        with profiling.profile() as prof:
            assert nae_backtracking(formula) is not None
        assert prof.backtrack_nodes > 0
        assert prof.deadline_checks >= prof.backtrack_nodes

    def test_session_kinds_drive_their_kernels(self):
        # consistent → chase merges; counterexample → the Theorem 8 product
        # closure (quotient_fragment itself has no search loop to count).
        session = Session()
        by_kind = {}
        for kind in ("consistent", "counterexample"):
            requests = random_service_requests(8, seed=29, kind_weights={kind: 1})
            with profiling.profile() as prof:
                for request in requests:
                    session.execute(request, use_cache=False)
            by_kind[kind] = prof.as_dict()
        assert by_kind["consistent"]["chase_steps"] > 0
        assert by_kind["counterexample"]["closure_pops"] > 0
        for counters in by_kind.values():
            assert counters["deadline_checks"] > 0

    def test_expired_deadline_increments_exceeded_counter(self):
        with profiling.profile() as prof:
            with pytest.raises(DeadlineExceeded):
                with deadline_scope(0.0):
                    check_deadline()
        assert prof.deadline_exceeded == 1


# ---------------------------------------------------------------------------
# Wire: the optional trace field
# ---------------------------------------------------------------------------


class TestWireTrace:
    def test_trace_roundtrips(self):
        request = load_request_line('{"v":3,"kind":"implies","id":"x","query":"A = A*B","trace":"t1"}')
        assert request.trace == "t1"
        assert decode_request(encode_request(request)).trace == "t1"

    def test_trace_must_be_nonempty_string(self):
        with pytest.raises(ServiceError):
            load_request_line('{"v":3,"kind":"implies","id":"x","query":"A = A*B","trace":""}')

    def test_trace_excluded_from_cache_key(self):
        plain = load_request_line('{"v":3,"kind":"implies","id":"x","query":"A = A*B"}')
        traced = dataclasses.replace(plain, trace="t-123")
        assert request_cache_key(traced) == request_cache_key(plain)

    def test_ensure_trace_mints_and_preserves(self):
        plain = load_request_line('{"v":3,"kind":"implies","id":"x","query":"A = A*B"}')
        minted = telemetry.ensure_trace(plain)
        assert minted.trace is not None
        assert telemetry.ensure_trace(minted) is minted
        assert telemetry.root_span_id(minted.trace) == f"{minted.trace}.r"


# ---------------------------------------------------------------------------
# Registry, tracer, cost log
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_export_is_deterministic_canonical_json(self):
        def feed(registry):
            registry.inc("b.count", 2)
            registry.inc("a.count")
            registry.gauge("z.depth", 3.5)
            registry.observe("lat", 1.2)
            registry.observe("lat", 700.0)

        one, two = telemetry.MetricsRegistry(), telemetry.MetricsRegistry()
        feed(one), feed(two)
        assert canonical_dumps(one.export()) == canonical_dumps(two.export())
        exported = one.export()
        assert list(exported["counters"]) == ["a.count", "b.count"]
        histogram = exported["histograms"]["lat"]
        assert histogram["count"] == 2
        assert sum(histogram["counts"]) == 2

    def test_per_tenant_counters_sum_to_the_total(self):
        registry = telemetry.MetricsRegistry()
        for tenant in (None, "default", "acme"):
            registry.inc_tenant("requests.submitted", tenant)
        assert registry.value("requests.submitted") == 3
        assert registry.per_tenant("requests", ("submitted", "answered")) == {
            "acme": {"submitted": 1, "answered": 0},
            "default": {"submitted": 2, "answered": 0},
        }

    def test_histogram_overflow_slot(self):
        registry = telemetry.MetricsRegistry()
        registry.observe("lat", 10_000_000.0)
        histogram = registry.export()["histograms"]["lat"]
        assert histogram["counts"][-1] == 1


class TestTracer:
    def test_span_payload_shape(self):
        tracer = telemetry.Tracer()
        span = tracer.start_span("request", trace_id="t1", span_id="t1.r")
        span.annotate("kind", "implies")
        span.event("window_closed")
        span.end()
        (payload,) = tracer.drain()
        assert payload["trace"] == "t1"
        assert payload["span"] == "t1.r"
        assert payload["parent"] is None
        assert payload["name"] == "request"
        assert payload["attrs"] == {"kind": "implies"}
        assert payload["events"][0]["name"] == "window_closed"
        assert "at_ms" in payload["events"][0]
        assert payload["duration_ms"] >= 0

    def test_adopt_takes_foreign_payloads(self):
        tracer = telemetry.Tracer()
        tracer.adopt([{"trace": "t9", "span": "t9.r", "name": "evaluate"}, "garbage"])
        assert tracer.snapshot()["adopted"] == 1
        assert [span["trace"] for span in tracer.drain()] == ["t9"]

    def test_buffer_is_bounded(self):
        tracer = telemetry.Tracer(limit=4)
        for index in range(10):
            tracer.start_span(f"s{index}").end()
        drained = tracer.drain()
        assert len(drained) == 4
        assert drained[-1]["name"] == "s9"


class TestWorkUnit:
    def test_disabled_is_a_noop(self):
        with telemetry.work_unit("implies") as prof:
            assert prof is None
        assert telemetry.cost_log().snapshot() == {"recorded": 0, "pending": 0}

    def test_enabled_records_cost_and_metrics(self):
        telemetry.configure(trace=True)
        with telemetry.work_unit("implies", method="", gamma=3, requests=8, query_size=40) as prof:
            prof.closure_pops += 11
        (record,) = telemetry.cost_log().drain()
        assert record["kind"] == "implies"
        assert record["gamma"] == 3
        assert record["requests"] == 8
        assert record["query_size"] == 40
        assert record["kernel"]["closure_pops"] == 11
        assert record["wall_ms"] >= 0
        exported = telemetry.registry().export()
        assert exported["counters"]["costlog.records"] == 1
        assert exported["counters"]["kernel.closure_pops"] == 11

    def test_record_lands_even_when_the_unit_raises(self):
        telemetry.configure(trace=True)
        with pytest.raises(RuntimeError):
            with telemetry.work_unit("consistent"):
                raise RuntimeError("kernel fell over")
        (record,) = telemetry.cost_log().drain()
        assert record["kind"] == "consistent"

    def test_drain_and_adopt_reply_roundtrip(self):
        telemetry.configure(trace=True)
        telemetry.tracer().start_span("evaluate", trace_id="t1", parent_id="t1.r").end()
        with telemetry.work_unit("implies") as prof:
            prof.chase_steps += 2
        payload = telemetry.drain_for_reply()
        assert set(payload) == {"spans", "cost"}
        info = {"answered": 3, **payload}
        telemetry.adopt_reply(info)
        assert info == {"answered": 3}  # telemetry keys popped for downstream consumers
        assert telemetry.tracer().snapshot()["adopted"] == 1
        # 2 from the local work_unit plus 2 re-counted on adopt: in a real
        # deployment the first half lands in the worker's own (discarded)
        # registry, so the parent counts each record exactly once.
        assert telemetry.registry().export()["counters"]["kernel.chase_steps"] == 4


# ---------------------------------------------------------------------------
# File-mode acceptance: byte identity + complete traces
# ---------------------------------------------------------------------------


class TestFileModeAcceptance:
    def test_traced_run_is_byte_identical_and_trace_is_complete(
        self, tmp_path, acceptance_stream, expected_lines
    ):
        lines = requests_to_jsonl(acceptance_stream).strip().split("\n")
        untraced, _ = serve_lines(lines, config=ServiceConfig())
        # telemetry off records nothing: no span, no cost record, no counter
        assert telemetry.tracer().snapshot()["started"] == 0
        assert telemetry.cost_log().recorded == 0
        assert telemetry.registry().export()["counters"] == {}
        telemetry.reset()
        metrics_dir = tmp_path / "telemetry"
        traced, _ = serve_lines(
            lines, config=ServiceConfig(trace=True, metrics_dir=str(metrics_dir))
        )
        assert traced == untraced == expected_lines

        spans = [json.loads(line) for line in (metrics_dir / "trace.jsonl").open()]
        roots = _roots(spans)
        assert len(roots) == len(acceptance_stream)
        children = _span_children(spans)
        for root in roots:
            stages = sorted(n for n in children[root["span"]] if n in ("plan", "execute", "respond"))
            assert stages == ["execute", "plan", "respond"]
        # session-evaluated requests (the batch lattice paths answer whole
        # groups without per-request evaluate calls) parent under their roots
        evaluates = [span for span in spans if span["name"] == "evaluate"]
        assert evaluates
        root_ids = {root["span"] for root in roots}
        assert all(span["parent"] in root_ids for span in evaluates)
        # Tracing work is a fixed count, not a wall-clock share: four spans
        # per request (root + plan/execute/respond), plus one evaluate span
        # per session-evaluated request (the 41 consistent and 16
        # counterexample requests of this stream).
        summary = plan_summary(acceptance_stream)
        kinds = summary["requests_per_kind"]
        assert len(evaluates) == kinds["consistent"] + kinds["counterexample"] == 57
        assert len(spans) == 4 * len(acceptance_stream) + len(evaluates) == 857
        assert len(spans) <= 5 * len(acceptance_stream)

        cost = [json.loads(line) for line in (metrics_dir / "costlog.jsonl").open()]
        assert cost, "executed work units must produce cost records"
        for record in cost:
            assert set(record) == {"kind", "method", "gamma", "requests", "query_size", "kernel", "wall_ms"}
        # one record per *executed* work unit, i.e. per planned batch: every
        # distinct request is covered (the stream's one cache-key duplicate
        # answers from the result cache and is never executed)
        assert len(cost) == summary["batches"] == 7
        distinct = len({request_cache_key(r) for r in acceptance_stream})
        assert sum(record["requests"] for record in cost) >= distinct
        assert any(any(record["kernel"].values()) for record in cost)

        metrics = [json.loads(line) for line in (metrics_dir / "metrics.jsonl").open()]
        counters = metrics[-1]["counters"]
        assert counters["trace.requests_started"] == len(acceptance_stream)
        assert counters["trace.requests_finished"] == len(acceptance_stream)
        assert counters["costlog.records"] == len(cost)

    def test_sharded_traced_run_is_byte_identical_with_worker_spans(
        self, tmp_path, acceptance_stream, expected_lines
    ):
        prefix = acceptance_stream[:60]
        lines = requests_to_jsonl(prefix).strip().split("\n")
        metrics_dir = tmp_path / "telemetry"
        traced, _ = serve_lines(
            lines,
            config=ServiceConfig(shards=2, trace=True, metrics_dir=str(metrics_dir)),
        )
        assert traced == expected_lines[:60]
        spans = [json.loads(line) for line in (metrics_dir / "trace.jsonl").open()]
        assert len(_roots(spans)) == len(prefix)
        # evaluate spans crossed the process boundary and still parent correctly
        evaluates = [span for span in spans if span["name"] == "evaluate"]
        assert evaluates
        assert all(span["parent"] == f"{span['trace']}.r" for span in evaluates)
        assert [json.loads(line) for line in (metrics_dir / "costlog.jsonl").open()]

    def test_traced_run_under_fault_plan_still_traces_every_request(
        self, tmp_path, acceptance_stream, expected_lines
    ):
        prefix = acceptance_stream[:40]
        victim = prefix[7].id
        plan = FaultPlan(seed=5, faults=(Fault(kind="crash_request", request_id=victim),))
        lines = requests_to_jsonl(prefix).strip().split("\n")
        metrics_dir = tmp_path / "telemetry"
        traced, _ = serve_lines(
            lines,
            config=ServiceConfig(
                shards=2, trace=True, metrics_dir=str(metrics_dir), fault_plan=plan.to_json()
            ),
        )
        for index, request in enumerate(prefix):
            if request.id == victim:
                result = load_result_line(traced[index])
                assert not result.ok and result.error["type"] == "WorkerCrashed"
            else:
                assert traced[index] == expected_lines[index]
        spans = [json.loads(line) for line in (metrics_dir / "trace.jsonl").open()]
        assert len(_roots(spans)) == len(prefix)
        escalations = [span for span in spans if span["name"] == "escalation"]
        assert {span["attrs"]["step"] for span in escalations} >= {"retry", "split", "quarantine"}


# ---------------------------------------------------------------------------
# Span trees under injected faults (supervised executor)
# ---------------------------------------------------------------------------


class TestEscalationSpans:
    DEPENDENCIES = ("A = A*B", "B = B*C")
    QUERIES = ("A = A*C", "C = C*A", "B = B*A", "A = A*D", "D = D*A", "C = C*B")

    def _stream(self, deadline_on=None, deadline_ms=None):
        from repro.dependencies.pd import PartitionDependency

        return [
            QueryRequest(
                kind="implies",
                id=f"q{i}",
                query=PartitionDependency.parse(text),
                trace=f"tr{i}",
                deadline_ms=deadline_ms if f"q{i}" == deadline_on else None,
            )
            for i, text in enumerate(self.QUERIES)
        ]

    def _execute(self, requests, plan):
        telemetry.configure(trace=True)
        with ShardExecutor(
            shards=2, dependencies=self.DEPENDENCIES, fault_plan=plan.to_json()
        ) as executor:
            lines = [dump_result_line(r) for r in executor.execute_many(requests)]
        return lines, telemetry.tracer().drain()

    def test_poison_request_leaves_one_span_per_escalation_rung(self):
        requests = self._stream()
        victim = "q2"
        victim_trace = next(r.trace for r in requests if r.id == victim)
        plan = FaultPlan(seed=2, faults=(Fault(kind="crash_request", request_id=victim),))
        lines, spans = self._execute(requests, plan)

        result = load_result_line(lines[2])
        assert not result.ok and result.error["type"] == "WorkerCrashed"

        escalations = [span for span in spans if span["name"] == "escalation"]
        victim_steps = [
            span["attrs"]["step"] for span in escalations if span["trace"] == victim_trace
        ]
        # the ladder: unit crash retries, retry crash splits, singleton crash quarantines
        assert victim_steps.count("quarantine") == 1
        assert "retry" in victim_steps or "split" in victim_steps
        # every escalation span parents to its victim's root, derived from the trace alone
        for span in escalations:
            assert span["parent"] == f"{span['trace']}.r"
            assert span["attrs"]["reason"]

    def test_hard_killed_deadline_carries_deadline_exceeded_event(self, monkeypatch):
        monkeypatch.setattr(supervisor, "DEADLINE_GRACE_MS", 400.0)
        requests = self._stream(deadline_on="q1", deadline_ms=100)
        plan = FaultPlan(seed=4, faults=(Fault(kind="hang", request_id="q1", delay_ms=30_000.0),))
        lines, spans = self._execute(requests, plan)

        result = load_result_line(lines[1])
        assert not result.ok and result.error["type"] == "Timeout"

        timeouts = [
            span
            for span in spans
            if span["name"] == "escalation" and span["attrs"]["step"] == "timeout"
        ]
        assert timeouts, "a hard-killed singleton must leave a timeout escalation span"
        for span in timeouts:
            assert span["trace"] == "tr1"
            assert span["parent"] == "tr1.r"
            assert any(event["name"] == "deadline_exceeded" for event in span["events"])

    def test_fault_free_run_records_unit_dispatch_spans(self):
        requests = self._stream()
        plan = FaultPlan(seed=9, faults=())
        lines, spans = self._execute(requests, plan)
        assert all(load_result_line(line).ok for line in lines)
        dispatches = [span for span in spans if span["name"] == "work_unit_dispatch"]
        assert dispatches
        for span in dispatches:
            assert span["attrs"]["items"] >= 1
            assert span["parent"] == f"{span['trace']}.r"


# ---------------------------------------------------------------------------
# Server: traced serving, metrics control line, deterministic stats/health
# ---------------------------------------------------------------------------


class TestServerTelemetry:
    def test_traced_server_is_byte_identical_with_complete_span_trees(
        self, tmp_path, acceptance_stream, expected_lines
    ):
        prefix = acceptance_stream[:80]
        stream = requests_to_jsonl(prefix)
        untraced, _ = run(serve_stream(stream, ServiceConfig(max_batch=16)))
        telemetry.reset()
        metrics_dir = tmp_path / "telemetry"
        traced, _ = run(
            serve_stream(
                stream,
                ServiceConfig(max_batch=16, trace=True, metrics_dir=str(metrics_dir)),
            )
        )
        assert traced == untraced == expected_lines[:80]

        spans = [json.loads(line) for line in (metrics_dir / "trace.jsonl").open()]
        roots = _roots(spans)
        assert len(roots) == len(prefix)
        children = _span_children(spans)
        for root in roots:
            stages = sorted(n for n in children[root["span"]] if n in ("plan", "execute", "respond"))
            assert stages == ["execute", "plan", "respond"]
            assert root["attrs"]["window_size"] >= 1
            assert any(event["name"] == "window_closed" for event in root.get("events", ()))
        cost = [json.loads(line) for line in (metrics_dir / "costlog.jsonl").open()]
        assert sum(record["requests"] for record in cost) >= len(prefix)

    def test_metrics_control_line(self, acceptance_stream):
        prefix = acceptance_stream[:10]
        lines = requests_to_jsonl(prefix).strip().split("\n") + ['{"control":"metrics"}']
        answers, _ = run(serve_stream("\n".join(lines), ServiceConfig(trace=True)))
        payload = json.loads(answers[-1])
        assert payload["control"] == "metrics"
        metrics = payload["metrics"]
        # the snapshot is cut when the control line is *read*, so decode-time
        # counters are visible while respond-time histograms may still be empty
        assert metrics["counters"]["trace.requests_started"] == len(prefix)
        assert metrics["counters"]["server.connections_served"] == 1
        assert set(metrics) == {"counters", "costlog", "gauges", "histograms", "trace"}
        assert metrics["trace"]["started"] > 0
        # canonical export: the line itself re-serializes byte-identically
        assert answers[-1] == canonical_dumps({"control": "metrics", "metrics": metrics})

    def test_stats_and_health_are_canonical_and_reproducible(self, acceptance_stream):
        prefix = acceptance_stream[:12]
        lines = requests_to_jsonl(prefix).strip().split("\n") + [
            '{"control":"stats"}',
            '{"control":"health"}',
        ]

        def drive():
            answers, _ = run(serve_stream("\n".join(lines), ServiceConfig(max_batch=len(prefix) + 4)))
            return answers[-2], answers[-1]

        stats_one, health_one = drive()
        stats_two, health_two = drive()
        for line in (stats_one, health_one):
            payload = json.loads(line)
            assert line == canonical_dumps(payload)  # canonical bytes on the wire
        # health is time-free and must reproduce byte-for-byte across runs
        assert health_one == health_two
        # control lines answer at their turn: every request before them counts
        assert json.loads(health_one)["health"]["requests"]["answered"] == len(prefix)
        stats = json.loads(stats_one)["stats"]
        assert list(stats["result_cache"]["per_tenant"]) == sorted(
            stats["result_cache"]["per_tenant"]
        )
        assert json.loads(stats_two)["stats"]["result_cache"] == stats["result_cache"]

    def test_supervision_reports_per_worker_restart_latency(self):
        from repro.dependencies.pd import PartitionDependency

        requests = [
            QueryRequest(kind="implies", id=f"q{i}", query=PartitionDependency.parse(text))
            for i, text in enumerate(("A = A*C", "C = C*A", "B = B*A", "A = A*D"))
        ]
        plan = FaultPlan(
            seed=1, faults=(Fault(kind="crash_worker", worker=0, unit=0, incarnation=0),)
        )
        with ShardExecutor(
            shards=2, dependencies=("A = A*B",), fault_plan=plan.to_json()
        ) as executor:
            executor.execute_many(requests)
            supervision = supervision_stats(executor.metrics)
        # this is the document {"control": "health"} serves under "supervision"
        assert supervision["restarts"] >= 1
        assert supervision["last_restart_ms"] > 0
        assert supervision["restart_mean_ms"] > 0
        assert supervision["restarts_by_worker"].get("0", 0) >= 1

    def test_untraced_fresh_supervision_reports_null_restart_latency(self):
        with ShardExecutor(shards=2, dependencies=()) as executor:
            stats = supervision_stats(executor.metrics)
        assert stats["restarts"] == 0
        assert stats["restart_mean_ms"] is None
        assert stats["last_restart_ms"] is None
        assert stats["restarts_by_worker"] == {}


# ---------------------------------------------------------------------------
# One registry per server: stats / health / metrics are views over it
# ---------------------------------------------------------------------------


async def _converse(host, port, lines):
    """Send lines on a fresh connection and read one answer per line."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write("".join(line + "\n" for line in lines).encode("utf-8"))
    await writer.drain()
    writer.write_eof()
    answers = [json.loads(await reader.readline()) for _ in lines]
    writer.close()
    await writer.wait_closed()
    return answers


def _leaves(document, prefix=""):
    """Dotted path -> number for every numeric leaf of a nested document."""
    out = {}
    for key, value in document.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_leaves(value, path + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[path] = value
    return out


#: Stats/health keys derived from counts (rates, means, restart latency);
#: with the config values and the session's own diagnostics they are the
#: only numeric keys that are not a count some series of the metrics export
#: must equal.
_NOT_COUNTS = ("hit_rate", "mean_size", "occupancy", "restart_seconds", "restart_mean_ms", "last_restart_ms")
_NOT_COUNT_SECTIONS = ("session_cache.", "server.window.", "breaker.", "cache.")


def _series_for(path):
    """The metrics-export series a stats/health count path is a view of."""
    path = path.replace("supervision.", "supervisor.")
    if path == "requests.budget_timeouts":  # health's copy of the window counter
        return "windows.budget_timeouts"
    return path


def _assert_documents_match_metrics(stats, health, metrics):
    def series(name):
        for section in ("counters", "gauges"):
            if name in metrics[section]:
                return metrics[section][name]
        return 0  # a series is created on its first write

    checked = 0
    for document in (stats, health):
        for path, value in _leaves(document).items():
            head, _, last = path.rpartition(".")
            if last in _NOT_COUNTS or path.startswith(_NOT_COUNT_SECTIONS):
                continue
            if path.startswith("latency_ms."):
                if last == "samples":
                    histogram = metrics["histograms"].get(head)
                    assert value == (histogram["count"] if histogram else 0), path
                    checked += 1
                continue
            assert value == series(_series_for(path)), (path, value)
            checked += 1
    return checked


class TestOneRegistryPerServer:
    @pytest.fixture(scope="class")
    def stream(self, acceptance_stream):
        # repeats reach the caches; a few tenants exercise the per-tenant series
        prefix = [
            dataclasses.replace(request, tenant=f"t{index % 3}") if index % 4 == 0 else request
            for index, request in enumerate(acceptance_stream[:24])
        ]
        return [line for line in requests_to_jsonl(prefix + prefix).split("\n") if line.strip()]

    @pytest.mark.parametrize(
        "shards", [1, pytest.param(2, marks=pytest.mark.skipif(not HAS_FORK, reason="needs fork"))]
    )
    @pytest.mark.parametrize("trace", [False, True])
    def test_every_count_in_stats_and_health_is_a_series_of_the_metrics_export(self, stream, shards, trace):
        async def scenario():
            config = ServiceConfig(shards=shards, max_batch=8, trace=trace)
            async with QueryServer(config) as server:
                answers = await _converse(server.host, server.port, stream)
                controls = ['{"control":"stats"}', '{"control":"health"}', '{"control":"metrics"}']
                return answers, await _converse(server.host, server.port, controls)

        answers, (stats, health, metrics) = run(scenario())
        assert len(answers) == len(stream)
        stats, health, metrics = stats["stats"], health["health"], metrics["metrics"]
        assert stats["requests"]["submitted"] == len(stream)
        assert stats["latency_ms"]["total"]["samples"] == len(stream)
        assert (health["supervision"] is not None) == (shards > 1)
        if shards > 1:
            # one count, one place: tracing adds no second dispatch counter
            dispatched = metrics["counters"]["supervisor.units_dispatched"]
            assert health["supervision"]["units_dispatched"] == dispatched
            assert not any(name.startswith("supervisor.escalations") for name in metrics["counters"])
        assert "request.latency_ms" not in metrics["histograms"]
        checked = _assert_documents_match_metrics(stats, health, metrics)
        assert checked > 20

    def test_two_servers_in_one_process_count_independently(self, stream):
        async def scenario():
            async with QueryServer(ServiceConfig()) as one, QueryServer(ServiceConfig()) as two:
                await _converse(one.host, one.port, stream[:3])
                await _converse(two.host, two.port, stream[:5])
                await _converse(two.host, two.port, stream[5:7])
                return one.metrics_snapshot(), two.metrics_snapshot(), one.health_snapshot()

        metrics_one, metrics_two, health_one = run(scenario())
        assert metrics_one["counters"]["requests.submitted"] == health_one["requests"]["submitted"] == 3
        assert metrics_two["counters"]["requests.submitted"] == 7
        assert metrics_one["counters"]["server.connections_served"] == 1
        assert metrics_two["counters"]["server.connections_served"] == 2
        assert metrics_one["histograms"]["latency_ms.total"]["count"] == 3
        assert metrics_two["histograms"]["latency_ms.total"]["count"] == 7

    def test_metrics_carries_the_serving_counters_with_telemetry_off(self, stream):
        async def scenario():
            async with QueryServer(ServiceConfig(max_batch=8)) as server:
                await _converse(server.host, server.port, stream)
                (answer,) = await _converse(server.host, server.port, ['{"control":"metrics"}'])
                return answer["metrics"]

        metrics = run(scenario())
        assert not telemetry.enabled()
        counters, gauges, histograms = metrics["counters"], metrics["gauges"], metrics["histograms"]
        assert counters["requests.submitted"] == counters["requests.answered"] == len(stream)
        assert counters["windows.count"] >= len(stream) // 8
        assert counters["server.connections_served"] == 2
        assert histograms["latency_ms.total"]["count"] == len(stream)
        assert gauges["result_cache.tiers.session.hits"] > 0
        assert "trace.requests_started" not in counters

    def test_metrics_reports_the_parse_memo_gauge_within_its_bound(self, stream):
        from repro.expressions.parser import PARSE_MEMO_SIZE, parse_expression

        async def scenario():
            async with QueryServer(ServiceConfig(max_batch=8)) as server:
                await _converse(server.host, server.port, stream)
                controls = ['{"control":"metrics"}', '{"control":"health"}']
                first, health = await _converse(server.host, server.port, controls)
                for index in range(PARSE_MEMO_SIZE + 16):  # more distinct texts than the bound
                    parse_expression(f"G{index} + H")
                (second,) = await _converse(server.host, server.port, ['{"control":"metrics"}'])
                return first["metrics"]["gauges"], health["health"], second["metrics"]["gauges"]

        first, health, second = run(scenario())
        assert 0 < first["parse_memo.entries"] <= first["parse_memo.bound"] == PARSE_MEMO_SIZE
        assert second["parse_memo.entries"] == second["parse_memo.bound"] == PARSE_MEMO_SIZE
        assert "parse_memo" not in json.dumps(health)  # health stays time- and memo-free

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_a_sharded_server_reports_only_the_shared_tier(self, stream):
        async def scenario():
            async with QueryServer(ServiceConfig(shards=2, max_batch=8)) as server:
                await _converse(server.host, server.port, stream)
                controls = ['{"control":"stats"}', '{"control":"health"}', '{"control":"metrics"}']
                return await _converse(server.host, server.port, controls)

        stats, health, metrics = run(scenario())
        stats, health, metrics = stats["stats"], health["health"], metrics["metrics"]
        assert list(stats["result_cache"]["tiers"]) == ["shared"]
        assert list(health["cache"]) == ["shared"]
        assert stats["result_cache"]["tiers"]["shared"]["hits"] > 0  # the stream repeats itself
        for document in (stats, health, metrics):
            text = json.dumps(document)
            assert "worker_cache" not in text and "tiers.worker" not in text

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_a_cache_less_worker_computes_each_duplicate_once(self):
        from repro.dependencies.pd import PartitionDependency

        # 16 requests over 4 distinct questions, one implication group: with
        # the shared tier off all reach the workers as two 8-request units,
        # each holding every question twice.
        questions = ["A = A*C", "B = B*A", "C = C*A", "A = A*B*C"]
        requests = [
            QueryRequest(kind="implies", id=f"q{i}", query=PartitionDependency.parse(questions[i % 4]))
            for i in range(16)
        ]
        dependencies = ("A = A*B", "B = B*C")
        telemetry.configure(trace=True)
        with ShardExecutor(shards=2, dependencies=dependencies, shared_cache_size=0) as executor:
            lines = [dump_result_line(r) for r in executor.execute_many(requests)]
        records = telemetry.cost_log().drain()
        assert sum(record["requests"] for record in records) == 2 * len(questions)
        assert lines == [dump_result_line(r) for r in naive_dispatch(requests, dependencies)]
