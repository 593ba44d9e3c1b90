"""Fault tolerance under deterministic chaos: supervision, deadlines, quarantine.

Every scenario here injects failures through :mod:`repro.service.faults` and
asserts the two invariants of the fault-tolerant executor: victims get
*typed* error results (``WorkerCrashed`` / ``Timeout``), and every other
request still answers **byte-identically** to a fault-free run.
"""

import asyncio
import dataclasses
import json
import multiprocessing
from collections import Counter

import pytest

from repro.dependencies.pd import PartitionDependency
from repro.errors import ServiceError
from repro.service import serve_stream, supervisor
from repro.service.config import ServiceConfig
from repro.service.executor import ShardExecutor
from repro.service.faults import (
    Fault,
    FaultPlan,
    clear_fault_plan,
    install_fault_plan,
    installed_plan,
)
from repro.service.microbatch import MicroBatcher, batch_stats
from repro.service.planner import execute_plan
from repro.service.session import Session
from repro.service.snapshot import dump_snapshot, encode_snapshot
from repro.service.supervisor import SupervisedPool, WorkItem, WorkUnit, supervision_stats
from repro.service.wire import (
    QueryRequest,
    dump_request_line,
    dump_result_line,
    load_request_line,
    load_result_line,
    request_cache_key,
)
from repro.workloads.random_service import random_service_requests

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform has no fork start method")


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout))


@pytest.fixture(autouse=True)
def _pristine_fault_state():
    clear_fault_plan()
    yield
    clear_fault_plan()


def _pd(text: str) -> PartitionDependency:
    return PartitionDependency.parse(text)


DEPENDENCIES = ("A = A*B", "B = B*C")

#: Distinct queries per id — identical queries share session result-cache
#: slots, which would let a "victim" answer from a twin's cached result and
#: dodge its fault entirely.
QUERIES = ("A = A*C", "C = C*A", "B = B*A", "A = A*D", "D = D*A", "C = C*B")


def _stream(deadline_on=None, deadline_ms=None):
    return [
        QueryRequest(
            kind="implies",
            id=f"q{i}",
            query=_pd(text),
            deadline_ms=deadline_ms if f"q{i}" == deadline_on else None,
        )
        for i, text in enumerate(QUERIES)
    ]


def _reference(requests):
    return [
        dump_result_line(r)
        for r in execute_plan(Session(DEPENDENCIES), requests)
    ]


class TestFaultCodec:
    def test_plan_roundtrip_is_canonical(self):
        plan = FaultPlan(
            seed=42,
            faults=(
                Fault(kind="crash_worker", worker=1, unit=3, incarnation=0),
                Fault(kind="crash_request", request_id="q9"),
                Fault(kind="delay", request_id="q2", delay_ms=25.5),
                Fault(kind="hang", request_id="q4", delay_ms=100.0),
                Fault(kind="corrupt", request_id="q7", incarnation=2),
            ),
        )
        text = plan.to_json()
        assert FaultPlan.from_json(text) == plan
        assert FaultPlan.from_json(text).to_json() == text

    def test_crash_worker_needs_worker_and_unit(self):
        with pytest.raises(ServiceError):
            Fault(kind="crash_worker", worker=0)

    def test_request_faults_need_request_id(self):
        with pytest.raises(ServiceError):
            Fault(kind="crash_request")

    def test_delay_needs_positive_delay_ms(self):
        with pytest.raises(ServiceError):
            Fault(kind="delay", request_id="q1")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError):
            Fault(kind="meteor", request_id="q1")

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ServiceError):
            FaultPlan.from_json("{not json")
        with pytest.raises(ServiceError):
            FaultPlan.from_json('{"faults": [{"kind": "delay"}], "extra": 1}')

    def test_install_and_clear(self):
        plan = FaultPlan(seed=1, faults=(Fault(kind="delay", request_id="x", delay_ms=1.0),))
        assert install_fault_plan(plan.to_json()) == plan
        assert installed_plan() == plan
        clear_fault_plan()
        assert installed_plan() is None

    def test_service_config_validates_fault_plan(self):
        with pytest.raises(ServiceError):
            ServiceConfig(fault_plan="{broken")
        plan = FaultPlan(seed=1, faults=())
        assert ServiceConfig(fault_plan=plan.to_json()).fault_plan == plan.to_json()


@needs_fork
class TestSupervisedExecution:
    @pytest.mark.parametrize("warm", [False, True], ids=["replayed", "snapshot"])
    def test_transient_worker_crash_is_invisible(self, warm):
        """A worker SIGKILLed mid-stream restarts; the answers do not change.

        The executor shards either a fresh session or one restored from a
        warm snapshot; every worker boots from the session's snapshot text,
        and a crashed one restarts the same way.  The snapshot's result
        entries answer none of the stream, so the crash still hits a
        dispatched unit.
        """
        requests = _stream()
        session = Session(DEPENDENCIES)
        if warm:
            session.execute_many([QueryRequest(kind="implies", query=_pd("B = B*C"))])
            session = Session.restore(dump_snapshot(session))
        plan = FaultPlan(
            seed=1, faults=(Fault(kind="crash_worker", worker=0, unit=0, incarnation=0),)
        )
        with ShardExecutor(shards=2, session=session, fault_plan=plan.to_json()) as executor:
            lines = [dump_result_line(r) for r in executor.execute_many(requests)]
            stats = supervision_stats(executor.metrics)
        assert lines == _reference(requests)
        assert stats["crashes"] == 1
        assert stats["restarts"] == 1
        assert stats["retries"] == 1
        assert stats["quarantined"] == 0

    def test_poison_request_is_quarantined_alone(self):
        """A request that reliably kills workers costs exactly its own line."""
        requests = _stream()
        victim = "q2"
        plan = FaultPlan(seed=2, faults=(Fault(kind="crash_request", request_id=victim),))
        with ShardExecutor(
            shards=2, session=Session(DEPENDENCIES), fault_plan=plan.to_json()
        ) as executor:
            lines = [dump_result_line(r) for r in executor.execute_many(requests)]
            stats = supervision_stats(executor.metrics)
        reference = _reference(requests)
        for i, request in enumerate(requests):
            if request.id == victim:
                result = load_result_line(lines[i])
                assert not result.ok
                assert result.error["type"] == "WorkerCrashed"
                assert "quarantined" in result.error["message"]
            else:
                assert lines[i] == reference[i]
        assert stats["quarantined"] == 1
        assert stats["splits"] == 1
        assert stats["crashes"] >= 2  # unit crash, retry crash, singleton crash

    def test_cooperative_deadline_timeout(self):
        """A slow request with a budget times out; co-batched requests answer."""
        requests = _stream(deadline_on="q1", deadline_ms=100)
        plan = FaultPlan(seed=3, faults=(Fault(kind="delay", request_id="q1", delay_ms=2000.0),))
        with ShardExecutor(
            shards=2, session=Session(DEPENDENCIES), fault_plan=plan.to_json()
        ) as executor:
            lines = [dump_result_line(r) for r in executor.execute_many(requests)]
            stats = supervision_stats(executor.metrics)
        reference = _reference(requests)
        for i, request in enumerate(requests):
            if request.id == "q1":
                result = load_result_line(lines[i])
                assert not result.ok
                assert result.error["type"] == "Timeout"
                assert "deadline of 100 ms exceeded" in result.error["message"]
            else:
                assert lines[i] == reference[i]
        # Cooperative expiry: the worker stayed alive, nothing was killed.
        assert stats["crashes"] == 0
        assert stats["timeouts"] == 0

    def test_hung_worker_is_hard_killed(self, monkeypatch):
        """A kernel that never reaches a check point is reclaimed by SIGKILL."""
        monkeypatch.setattr(supervisor, "DEADLINE_GRACE_MS", 400.0)
        requests = _stream(deadline_on="q1", deadline_ms=100)
        plan = FaultPlan(seed=4, faults=(Fault(kind="hang", request_id="q1", delay_ms=30_000.0),))
        with ShardExecutor(
            shards=2, session=Session(DEPENDENCIES), fault_plan=plan.to_json()
        ) as executor:
            lines = [dump_result_line(r) for r in executor.execute_many(requests)]
            stats = supervision_stats(executor.metrics)
        reference = _reference(requests)
        for i, request in enumerate(requests):
            if request.id == "q1":
                result = load_result_line(lines[i])
                assert not result.ok
                assert result.error["type"] == "Timeout"
                assert "hard-killed" in result.error["message"]
            else:
                assert lines[i] == reference[i]
        assert stats["timeouts"] >= 1
        assert stats["restarts"] >= 1

    def test_corrupted_reply_is_retried_clean(self):
        """A torn result line is caught by reply validation and re-run."""
        requests = _stream()
        plan = FaultPlan(
            seed=5, faults=(Fault(kind="corrupt", request_id="q3", incarnation=0),)
        )
        with ShardExecutor(
            shards=2, session=Session(DEPENDENCIES), fault_plan=plan.to_json()
        ) as executor:
            lines = [dump_result_line(r) for r in executor.execute_many(requests)]
            stats = supervision_stats(executor.metrics)
        assert lines == _reference(requests)
        assert stats["corrupted"] >= 1
        assert stats["restarts"] >= 1

    def test_graceful_close_exits_zero(self):
        """Workers see the shutdown sentinel and exit cleanly, not by SIGTERM."""
        requests = _stream()
        executor = ShardExecutor(shards=2, session=Session(DEPENDENCIES))
        executor.execute_many(requests)
        processes = [worker.process for worker in executor._pool._workers]
        executor.close()
        assert [process.exitcode for process in processes] == [0, 0]

    def test_worker_side_decode_isolation(self):
        """One undecodable line inside a unit errors alone; the unit survives."""
        good = QueryRequest(kind="implies", id="ok", query=_pd("A = A*B"))
        pool = SupervisedPool(workers=1, snapshot=encode_snapshot(Session()))
        try:
            out = pool.run_units(
                [
                    WorkUnit(
                        items=(
                            WorkItem(index=0, line="{broken json", request_id=None, kind="implies"),
                            WorkItem(
                                index=1,
                                line=dump_request_line(good),
                                request_id="ok",
                                kind="implies",
                            ),
                        )
                    )
                ]
            )
        finally:
            pool.close()
        bad = load_result_line(out[0])
        assert not bad.ok
        assert load_result_line(out[1]).ok
        assert pool.metrics.value("supervisor.crashes") == 0


def _req_line(i, kind, query, **extra):
    return json.dumps({"v": 3, "id": f"q{i}", "kind": kind, "query": query, **extra})


@needs_fork
class TestCircuitBreaker:
    def test_breaker_trips_to_in_process_and_health_reports_it(self):
        from repro.service.server import QueryServer

        plan = FaultPlan(seed=7, faults=(Fault(kind="crash_request", request_id="q2"),))
        config = ServiceConfig(
            shards=2, breaker_threshold=1, fault_plan=plan.to_json()
        )

        async def scenario():
            server = QueryServer(config)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                lines = [
                    _req_line(1, "implies", "A = A*B"),
                    _req_line(2, "implies", "B = B*C"),
                    _req_line(3, "implies", "A = A*C"),
                ]
                writer.write(("".join(line + "\n" for line in lines)).encode())
                await writer.drain()
                answers = {}
                while len(answers) < 3:
                    payload = json.loads(await reader.readline())
                    answers[payload["id"]] = payload
                writer.write(b'{"control":"health"}\n')
                await writer.drain()
                health = json.loads(await reader.readline())["health"]
                writer.close()
                await writer.wait_closed()
                return answers, health
            finally:
                await server.drain()

        answers, health = run(scenario())
        assert health["status"] == "degraded"
        assert health["breaker"]["tripped"] is True
        assert health["backend"] == "session"
        assert health["supervision"]["crashes"] >= 1
        # The poison request was quarantined by the sharded backend before the
        # trip; the healthy requests answered normally.
        assert answers["q1"]["ok"] and answers["q3"]["ok"]
        assert answers["q2"]["error"]["type"] == "WorkerCrashed"

    def test_health_reports_ok_before_any_fault(self):
        config = ServiceConfig()
        out, _ = run(serve_stream('{"control":"health"}', config))
        health = json.loads(out[0])["health"]
        assert health["status"] == "ok"
        assert health["breaker"]["tripped"] is False
        assert health["backend"] == "session"


class TestWindowBudget:
    def test_over_budget_window_degrades_to_retry_lane(self):
        plan = FaultPlan(seed=3, faults=(Fault(kind="delay", request_id="q2", delay_ms=800.0),))
        lines = [
            _req_line(1, "implies", "A = A*B"),
            _req_line(2, "implies", "B = B*C"),
            _req_line(3, "implies", "A = A*C"),
        ]
        install_fault_plan(plan.to_json())

        async def scenario():
            # Submitted back to back, q1-q3 are all queued before the
            # collector runs, so they share the one over-budget window.
            batcher = MicroBatcher(Session().execute_many, max_batch=8, window_budget_ms=150.0)
            async with batcher:
                tickets = [await batcher.submit(load_request_line(line)) for line in lines]
                results = [await ticket.result() for ticket in tickets]
            return results, batch_stats(batcher.metrics, max_batch=8)

        results, stats = run(scenario())
        answers = {result.id: json.loads(dump_result_line(result)) for result in results}
        assert answers["q1"]["ok"] and answers["q3"]["ok"]
        assert answers["q2"]["error"]["type"] == "Timeout"
        assert "window budget" in answers["q2"]["error"]["message"]
        assert stats["windows"]["count"] == 1
        assert stats["windows"]["over_budget"] == 1
        assert stats["windows"]["budget_timeouts"] == 1
        assert stats["windows"]["budget_retried"] == 3

    def test_request_deadline_preempts_window_budget(self):
        # The slow request carries its own (earlier) deadline: it must be
        # reported as that deadline's Timeout, and the window never degrades.
        plan = FaultPlan(seed=3, faults=(Fault(kind="delay", request_id="q2", delay_ms=800.0),))
        lines = [
            _req_line(1, "implies", "A = A*B"),
            _req_line(2, "implies", "B = B*C", deadline_ms=50),
            _req_line(3, "implies", "A = A*C"),
        ]
        config = ServiceConfig(
            window_budget_ms=5_000.0, fault_plan=plan.to_json(), max_batch=8
        )
        out, stats = run(serve_stream("\n".join(lines), config))
        answers = {json.loads(line)["id"]: json.loads(line) for line in out}
        assert answers["q1"]["ok"] and answers["q3"]["ok"]
        assert answers["q2"]["error"]["type"] == "Timeout"
        assert "deadline of 50 ms exceeded" in answers["q2"]["error"]["message"]
        assert stats["windows"]["over_budget"] == 0


@needs_fork
class TestAcceptanceStream:
    """ISSUE 8 acceptance: 200 mixed requests, one crash + one timeout victim."""

    @pytest.fixture(scope="class")
    def modified_stream(self):
        stream = random_service_requests(
            200,
            seed=20260730,
            attribute_count=5,
            theory_count=2,
            pds_per_theory=3,
            max_complexity=2,
            kind_weights={"implies": 5, "equivalent": 3, "consistent": 3, "counterexample": 1},
        )
        key_counts = Counter(request_cache_key(r) for r in stream)

        def unique(request):
            return key_counts[request_cache_key(request)] == 1

        crash_victim = next(r.id for r in stream if r.kind == "implies" and unique(r))
        slow_index = next(
            i for i, r in enumerate(stream) if r.kind == "counterexample" and unique(r)
        )
        stream = list(stream)
        stream[slow_index] = dataclasses.replace(stream[slow_index], deadline_ms=2000)
        plan = FaultPlan(
            seed=20260730,
            faults=(
                Fault(kind="crash_request", request_id=crash_victim),
                Fault(kind="delay", request_id=stream[slow_index].id, delay_ms=30_000.0),
            ),
        )
        return stream, crash_victim, stream[slow_index].id, plan

    def test_two_victims_typed_rest_byte_identical(self, modified_stream):
        stream, crash_victim, slow_victim, plan = modified_stream
        reference = [dump_result_line(r) for r in execute_plan(Session(), stream)]
        with ShardExecutor(shards=2, fault_plan=plan.to_json()) as executor:
            lines = [dump_result_line(r) for r in executor.execute_many(stream)]
            stats = supervision_stats(executor.metrics)
        assert len(lines) == 200
        differing = [i for i in range(200) if lines[i] != reference[i]]
        victims = {stream[i].id for i in differing}
        assert victims == {crash_victim, slow_victim}
        by_id = {stream[i].id: load_result_line(lines[i]) for i in differing}
        assert by_id[crash_victim].error["type"] == "WorkerCrashed"
        assert by_id[slow_victim].error["type"] == "Timeout"
        assert stats["quarantined"] == 1
        assert stats["crashes"] >= 2
