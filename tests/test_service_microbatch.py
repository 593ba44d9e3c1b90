"""Unit tests for the micro-batch window: triggers, backpressure, drain, accounting.

Everything here drives :class:`~repro.service.microbatch.MicroBatcher`
directly (no sockets) with controllable window executors, so the three
window-close triggers (size, timer, drain), both overload policies and the
latency accounting are each pinned deterministically.
"""

import asyncio
import threading

import pytest

from repro.dependencies.pd import PartitionDependency
from repro.errors import ServiceError
from repro.service.microbatch import MicroBatcher, Ticket, batch_stats, record_latencies
from repro.service.telemetry import STATS_WINDOW, MetricsRegistry, percentile
from repro.service.session import Session
from repro.service.wire import QueryRequest, QueryResult

TRIVIAL_PD = PartitionDependency.parse("A = A")


def _request(number: int) -> QueryRequest:
    return QueryRequest(kind="implies", id=f"q{number}", dependencies=(), query=TRIVIAL_PD)


def _echo_executor(requests):
    """A trivial pipeline: answer each request with its own id."""
    return [
        QueryResult(kind=request.kind, ok=True, id=request.id, value={"echo": request.id})
        for request in requests
    ]


class GatedExecutor:
    """A window executor that blocks until released (runs on the worker thread)."""

    def __init__(self):
        self.gate = threading.Event()
        self.windows = []

    def __call__(self, requests):
        self.gate.wait(timeout=30)
        self.windows.append([request.id for request in requests])
        return _echo_executor(requests)


def run(coro):
    return asyncio.run(coro)


class TestWindowTriggers:
    def test_size_trigger_closes_without_waiting(self):
        async def scenario():
            # The timer is effectively infinite: only the size bound can close.
            async with MicroBatcher(_echo_executor, max_wait_ms=60_000, max_batch=3) as mb:
                tickets = [await mb.submit(_request(i)) for i in range(3)]
                results = await asyncio.wait_for(
                    asyncio.gather(*(t.result() for t in tickets)), timeout=5
                )
                return results, mb.metrics

        results, stats = run(scenario())
        assert [r.value["echo"] for r in results] == ["q0", "q1", "q2"]
        assert stats.value("windows.count") == 1
        assert stats.value("windows.closed_by.size") == 1
        assert stats.value("windows.max_size") == 3

    def test_timer_trigger_closes_partial_window(self):
        async def scenario():
            async with MicroBatcher(_echo_executor, max_wait_ms=30, max_batch=100) as mb:
                tickets = [await mb.submit(_request(i)) for i in range(2)]
                results = await asyncio.wait_for(
                    asyncio.gather(*(t.result() for t in tickets)), timeout=5
                )
                return results, mb.metrics

        results, stats = run(scenario())
        assert all(r.ok for r in results)
        assert stats.value("windows.closed_by.timer") == 1
        assert stats.value("windows.max_size") == 2

    def test_backlog_coalesces_into_one_window(self):
        """Requests queued while a window executes all land in the next window."""
        executor = GatedExecutor()

        async def scenario():
            async with MicroBatcher(executor, max_wait_ms=0, max_batch=10) as mb:
                first = await mb.submit(_request(0))
                # Wait until the collector owns the first window (queue empty).
                while mb.metrics.value("windows.count") < 1:
                    await asyncio.sleep(0.001)
                backlog = [await mb.submit(_request(i)) for i in range(1, 5)]
                executor.gate.set()
                await asyncio.wait_for(
                    asyncio.gather(first.result(), *(t.result() for t in backlog)), timeout=5
                )
                return mb.metrics

        stats = run(scenario())
        assert stats.value("windows.count") == 2
        assert executor.windows[0] == ["q0"]
        assert executor.windows[1] == ["q1", "q2", "q3", "q4"]


class TestOverload:
    def test_shed_answers_with_overloaded_error(self):
        executor = GatedExecutor()

        async def scenario():
            async with MicroBatcher(
                executor, max_wait_ms=0, max_batch=1, queue_limit=2, overload="shed"
            ) as mb:
                first = await mb.submit(_request(0))
                while mb.metrics.value("windows.count") < 1:  # collector holds q0, queue empty again
                    await asyncio.sleep(0.001)
                queued = [await mb.submit(_request(i)) for i in (1, 2)]  # queue now full
                shed = await mb.submit(_request(3))
                shed_result = await shed.result()  # already resolved, never queued
                executor.gate.set()
                served = await asyncio.wait_for(
                    asyncio.gather(first.result(), *(t.result() for t in queued)), timeout=5
                )
                return shed, shed_result, served, mb.metrics

        shed, shed_result, served, stats = run(scenario())
        assert shed.shed
        assert not shed_result.ok
        assert shed_result.id == "q3"
        assert shed_result.kind == "implies"
        assert shed_result.error["type"] == "Overloaded"
        assert all(r.ok for r in served)
        assert stats.value("requests.shed") == 1
        assert stats.value("requests.submitted") == 4
        assert stats.value("requests.answered") == 3  # shed requests are answered without execution

    def test_block_policy_delays_submit_until_space_frees(self):
        executor = GatedExecutor()

        async def scenario():
            async with MicroBatcher(
                executor, max_wait_ms=0, max_batch=1, queue_limit=1, overload="block"
            ) as mb:
                first = await mb.submit(_request(0))
                while mb.metrics.value("windows.count") < 1:
                    await asyncio.sleep(0.001)
                second = await mb.submit(_request(1))  # fills the queue
                blocked = asyncio.ensure_future(mb.submit(_request(2)))
                await asyncio.sleep(0.05)
                was_blocked = not blocked.done()  # backpressure: the put is suspended
                executor.gate.set()
                third = await asyncio.wait_for(blocked, timeout=5)
                await asyncio.wait_for(
                    asyncio.gather(first.result(), second.result(), third.result()), timeout=5
                )
                return was_blocked

        assert run(scenario())


class TestDrain:
    def test_drain_answers_everything_admitted(self):
        async def scenario():
            mb = MicroBatcher(_echo_executor, max_wait_ms=60_000, max_batch=100)
            await mb.start()
            tickets = [await mb.submit(_request(i)) for i in range(5)]
            # The window would wait a minute; drain must flush it now.
            await asyncio.wait_for(mb.drain(), timeout=5)
            return [ticket.future.result() for ticket in tickets], mb.metrics

        results, stats = run(scenario())
        assert [r.id for r in results] == [f"q{i}" for i in range(5)]
        assert stats.value("windows.closed_by.drain") == 1

    def test_submit_after_drain_is_rejected(self):
        async def scenario():
            mb = MicroBatcher(_echo_executor)
            await mb.start()
            await mb.drain()
            with pytest.raises(ServiceError):
                await mb.submit(_request(0))

        run(scenario())

    def test_run_exclusive_after_drain_still_runs(self):
        # A control line admitted before a drain is answered after it; its
        # export must not need the joined window worker.
        async def scenario():
            mb = MicroBatcher(_echo_executor)
            await mb.start()
            await mb.drain()
            return await mb.run_exclusive(lambda: "exported")

        assert run(scenario()) == "exported"

    def test_unstarted_batcher_rejects_submit(self):
        async def scenario():
            mb = MicroBatcher(_echo_executor)
            with pytest.raises(ServiceError):
                await mb.submit(_request(0))
            await mb.drain()

        run(scenario())


class TestFaults:
    def test_executor_fault_becomes_per_request_error_results(self):
        def broken(requests):
            raise RuntimeError("window executor exploded")

        async def scenario():
            async with MicroBatcher(broken, max_wait_ms=0, max_batch=4) as mb:
                tickets = [await mb.submit(_request(i)) for i in range(2)]
                return await asyncio.wait_for(
                    asyncio.gather(*(t.result() for t in tickets)), timeout=5
                )

        results = run(scenario())
        assert all(not r.ok for r in results)
        assert [r.id for r in results] == ["q0", "q1"]
        assert all(r.error["type"] == "RuntimeError" for r in results)

    def test_wrong_result_count_is_a_loud_harness_fault(self):
        def lossy(requests):
            return _echo_executor(requests)[:-1]

        async def scenario():
            async with MicroBatcher(lossy, max_wait_ms=0, max_batch=4) as mb:
                tickets = [await mb.submit(_request(i)) for i in range(3)]
                return await asyncio.wait_for(
                    asyncio.gather(*(t.result() for t in tickets)), timeout=5
                )

        results = run(scenario())
        assert all(not r.ok for r in results)
        assert all(r.error["type"] == "ServiceError" for r in results)

    def test_invalid_construction_is_rejected(self):
        for kwargs in (
            {"max_batch": 0},
            {"max_wait_ms": -1},
            {"queue_limit": 0},
            {"overload": "panic"},
        ):
            with pytest.raises(ServiceError):
                MicroBatcher(_echo_executor, **kwargs)


class TestAccounting:
    def test_percentile_nearest_rank(self):
        samples = sorted([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        assert percentile(samples, 50) == 5.0
        assert percentile(samples, 95) == 10.0
        assert percentile(samples, 99) == 10.0
        assert percentile([], 50) is None
        assert percentile([7.5], 99) == 7.5

    def test_snapshot_reports_stage_percentiles_and_occupancy(self):
        async def scenario():
            async with MicroBatcher(_echo_executor, max_wait_ms=5, max_batch=4) as mb:
                for round_index in range(3):
                    tickets = [await mb.submit(_request(round_index * 4 + i)) for i in range(4)]
                    for ticket in tickets:
                        await ticket.result()
                        ticket.mark_responded()
                return batch_stats(mb.metrics, max_batch=4)

        snapshot = run(scenario())
        assert snapshot["requests"]["submitted"] == 12
        assert snapshot["requests"]["answered"] == 12
        latency = snapshot["latency_ms"]["total"]
        assert latency["samples"] == 12
        assert latency["p50"] is not None
        assert latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]
        windows = snapshot["windows"]
        assert windows["count"] >= 3
        assert 0 < windows["occupancy"] <= 1
        assert windows["mean_size"] == pytest.approx(12 / windows["count"], rel=1e-6)

    def test_mark_responded_is_idempotent(self):
        async def scenario():
            async with MicroBatcher(_echo_executor, max_wait_ms=0, max_batch=1) as mb:
                ticket = await mb.submit(_request(0))
                await ticket.result()
                ticket.mark_responded()
                stamp = ticket.responded_at
                ticket.mark_responded()
                return stamp, ticket.responded_at, batch_stats(mb.metrics, max_batch=1)

        stamp, stamp_again, snapshot = run(scenario())
        assert stamp == stamp_again
        assert snapshot["latency_ms"]["total"]["samples"] == 1

    def test_latency_reservoirs_keep_the_most_recent_stats_window_samples(self):
        metrics = MetricsRegistry()
        for number in range(STATS_WINDOW + 10):
            ticket = Ticket(_request(number), None, metrics)
            ticket.window_closed_at = ticket.planned_at = ticket.enqueued_at + 0.001
            ticket.executed_at = ticket.planned_at + 0.002
            ticket.responded_at = ticket.executed_at + (0.5 if number < 10 else 0.003)
            record_latencies(metrics, ticket)
        latency = batch_stats(metrics, max_batch=4)["latency_ms"]
        for stage in ("total", "queue_wait", "execute", "respond"):
            assert latency[stage]["samples"] == STATS_WINDOW
        # The ten slow first samples fell out of the window.
        assert latency["respond"]["max"] < 100


class TestRealPipeline:
    def test_windows_through_a_real_session_are_byte_identical(self):
        """The batcher over Session.execute_many answers like the session itself."""
        from repro.service.wire import dump_result_line
        from repro.workloads.random_service import random_service_requests

        requests = random_service_requests(30, seed=7, theory_count=2, pds_per_theory=3)
        expected = [dump_result_line(r) for r in Session().execute_many(requests)]

        async def scenario():
            session = Session()
            async with MicroBatcher(session.execute_many, max_wait_ms=5, max_batch=8) as mb:
                tickets = [await mb.submit(request) for request in requests]
                return [await ticket.result() for ticket in tickets]

        produced = [dump_result_line(r) for r in run(scenario())]
        assert produced == expected
