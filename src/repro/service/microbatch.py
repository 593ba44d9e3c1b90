"""Micro-batch windows: re-batch continuous traffic so amortization survives live load.

The batch planner's 1.5–7× group-by amortization (PR 5) only materializes
when requests arrive *pre-collected*; a live socket delivers them one at a
time.  :class:`MicroBatcher` closes that gap the way modern inference-serving
stacks do — continuous batching with a bounded window:

* **Admission** — :meth:`MicroBatcher.submit` puts each request into a
  *bounded* queue.  When the queue is full, the ``block`` policy makes the
  put await (the submitting reader coroutine stalls, its socket stops being
  read, TCP pushes back on the client), while the ``shed`` policy answers
  immediately with a well-formed ``ok=false`` result whose error type is
  ``"Overloaded"`` — the client still gets exactly one answer per request.
* **Windowing** — a single collector loop drains the queue into windows
  bounded in size (``max_batch``) and time (``max_wait_ms`` measured from the
  first request of the window).  A backlog (requests that queued while the
  previous window executed) is drained without waiting, so the system
  degrades into *larger* windows under load — exactly when amortization pays
  most.  Each closed window goes to the pipeline executor **whole**, so the
  planner sees the same batch shape a request file would give it.
* **Execution** — windows run on one dedicated worker thread
  (:class:`~concurrent.futures.ThreadPoolExecutor` of size 1), keeping the
  event loop free to accumulate the next window while the current one
  computes, and keeping window execution *sequential* against one session —
  which is what makes served results byte-identical to the file CLI.
* **Accounting** — every request is stamped at enqueue → window-close →
  plan (hand-off to the worker) → execute (results ready) → respond (written
  back), and :class:`MicroBatchStats` reports p50/p95/p99 latency per stage
  plus window-occupancy statistics (mean/max window size, close reasons).

The batcher is transport-agnostic: :mod:`repro.service.server` feeds it from
sockets, the EXP-SVC open-loop benchmark feeds it directly.  Graceful drain
(:meth:`MicroBatcher.drain`) answers everything admitted before shutdown.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional

from repro.deadline import deadline_scope
from repro.errors import DeadlineExceeded, ServiceError
from repro.service.result_cache import tenant_label
from repro.service.wire import QueryRequest, QueryResult

#: Queue sentinel that tells the collector loop to finish (FIFO order makes
#: it drain everything admitted before it).
_DRAIN = object()

#: Reported latency percentiles (×100 for exact integer keys).
PERCENTILE_POINTS = (50, 95, 99)

#: Distinct tenants tracked in the per-tenant request counters; traffic from
#: tenants beyond the cap aggregates into one ``"~other"`` bucket so a
#: million-tenant stream cannot balloon the stats surface.
TENANT_STATS_LIMIT = 64

#: Most recent requests kept in each latency reservoir.
STATS_WINDOW = 4096


def percentile(samples: Sequence[float], point: float) -> Optional[float]:
    """Nearest-rank percentile of a *sorted* sample list (``None`` when empty)."""
    if not samples:
        return None
    rank = max(1, min(len(samples), math.ceil(point / 100.0 * len(samples))))
    return samples[rank - 1]


def _stage_summary(samples: Sequence[float]) -> dict:
    """p50/p95/p99, mean and max of a latency sample set, in milliseconds."""
    ordered = sorted(samples)
    summary: dict[str, Any] = {
        f"p{point}": None if not ordered else round(percentile(ordered, point) * 1000.0, 3)
        for point in PERCENTILE_POINTS
    }
    summary["mean"] = round(sum(ordered) / len(ordered) * 1000.0, 3) if ordered else None
    summary["max"] = round(ordered[-1] * 1000.0, 3) if ordered else None
    summary["samples"] = len(ordered)
    return summary


class Ticket:
    """One admitted request and its life-cycle timestamps.

    ``future`` resolves to the :class:`~repro.service.wire.QueryResult`;
    awaiting callers should call :meth:`mark_responded` once they have
    delivered the answer (the server does it after the socket write, the
    benchmark driver after its ``await``) so the total-latency sample covers
    the full enqueue→respond span.
    """

    __slots__ = (
        "request",
        "future",
        "enqueued_at",
        "window_closed_at",
        "planned_at",
        "executed_at",
        "responded_at",
        "shed",
        "window_size",
        "window_reason",
        "_stats",
    )

    def __init__(self, request: QueryRequest, future: "asyncio.Future[QueryResult]", stats: "MicroBatchStats") -> None:
        self.request = request
        self.future = future
        self.enqueued_at = time.perf_counter()
        self.window_closed_at: Optional[float] = None
        self.planned_at: Optional[float] = None
        self.executed_at: Optional[float] = None
        self.responded_at: Optional[float] = None
        self.shed = False
        # Telemetry annotations: the size of the window this ticket rode in
        # and why it closed ("full" / "timer" / "drain"), stamped at close.
        self.window_size: Optional[int] = None
        self.window_reason: Optional[str] = None
        self._stats = stats

    async def result(self) -> QueryResult:
        """The answer (delivery is up to the caller; see :meth:`mark_responded`)."""
        return await self.future

    def mark_responded(self) -> None:
        """Stamp the respond time and feed this ticket's stage latencies to the stats."""
        if self.responded_at is not None:
            return
        self.responded_at = time.perf_counter()
        self._stats.record_ticket(self)


class MicroBatchStats:
    """Counters and bounded latency reservoirs for one batcher.

    Latency samples are kept in bounded deques (the :data:`STATS_WINDOW`
    most recent requests), so a long-lived server reports *recent*
    percentiles instead of averaging over its whole life.
    """

    def __init__(self, max_batch: int) -> None:
        self._max_batch = max_batch
        self.submitted = 0
        self.answered = 0
        self.shed = 0
        self.windows = 0
        self.window_size_sum = 0
        self.window_size_max = 0
        self.closed_by = {"size": 0, "timer": 0, "drain": 0}
        self.over_budget = 0
        self.budget_retried = 0
        self.budget_timeouts = 0
        self.per_tenant: dict[str, dict[str, int]] = {}
        self._total: deque[float] = deque(maxlen=STATS_WINDOW)
        self._queue_wait: deque[float] = deque(maxlen=STATS_WINDOW)
        self._execute: deque[float] = deque(maxlen=STATS_WINDOW)
        self._respond: deque[float] = deque(maxlen=STATS_WINDOW)

    def record_tenant(self, tenant: Optional[str], field: str) -> None:
        """Bump one tenant's ``submitted``/``answered`` counter (capped keyspace)."""
        label = tenant_label(tenant)
        bucket = self.per_tenant.get(label)
        if bucket is None:
            if len(self.per_tenant) >= TENANT_STATS_LIMIT:
                label = "~other"
                bucket = self.per_tenant.get(label)
            if bucket is None:
                bucket = {"submitted": 0, "answered": 0}
                self.per_tenant[label] = bucket
        bucket[field] += 1

    def record_window(self, size: int, reason: str) -> None:
        self.windows += 1
        self.window_size_sum += size
        self.window_size_max = max(self.window_size_max, size)
        self.closed_by[reason] += 1

    def record_ticket(self, ticket: Ticket) -> None:
        if ticket.shed:
            return  # shed answers are counted, not sampled: ~0 latency would skew p50 down
        if ticket.window_closed_at is not None:
            self._queue_wait.append(ticket.window_closed_at - ticket.enqueued_at)
        if ticket.executed_at is not None and ticket.planned_at is not None:
            self._execute.append(ticket.executed_at - ticket.planned_at)
        if ticket.responded_at is not None:
            if ticket.executed_at is not None:
                self._respond.append(ticket.responded_at - ticket.executed_at)
            self._total.append(ticket.responded_at - ticket.enqueued_at)

    def snapshot(self) -> dict:
        """The stats dict the ``--stats`` endpoint and EXP-SVC report."""
        mean_size = self.window_size_sum / self.windows if self.windows else None
        return {
            "requests": {
                "submitted": self.submitted,
                "answered": self.answered,
                "shed": self.shed,
                "per_tenant": {label: dict(bucket) for label, bucket in self.per_tenant.items()},
            },
            "windows": {
                "count": self.windows,
                "mean_size": round(mean_size, 3) if mean_size is not None else None,
                "max_size": self.window_size_max,
                "occupancy": round(mean_size / self._max_batch, 4) if mean_size else None,
                "closed_by": dict(self.closed_by),
                "over_budget": self.over_budget,
                "budget_retried": self.budget_retried,
                "budget_timeouts": self.budget_timeouts,
            },
            "latency_ms": {
                "total": _stage_summary(self._total),
                "queue_wait": _stage_summary(self._queue_wait),
                "execute": _stage_summary(self._execute),
                "respond": _stage_summary(self._respond),
            },
        }


class MicroBatcher:
    """Accumulate continuous requests into bounded windows for the batch pipeline.

    ``execute_window`` is the whole-window pipeline — a backend's
    ``execute_many`` (``Session`` or ``ShardExecutor``) — called on the
    worker thread with the window's requests, returning one result per
    request in order.  Use as an async context manager (or call
    :meth:`start` / :meth:`drain` explicitly).
    """

    def __init__(
        self,
        execute_window: Callable[[list[QueryRequest]], Sequence[QueryResult]],
        max_wait_ms: float = 20.0,
        max_batch: int = 32,
        queue_limit: int = 256,
        overload: str = "block",
        window_budget_ms: Optional[float] = None,
    ) -> None:
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ServiceError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if queue_limit < 1:
            raise ServiceError(f"queue_limit must be >= 1, got {queue_limit}")
        if overload not in ("block", "shed"):
            raise ServiceError(f"unknown overload policy {overload!r}")
        if window_budget_ms is not None and window_budget_ms <= 0:
            raise ServiceError(f"window_budget_ms must be positive, got {window_budget_ms}")
        self._execute_window = execute_window
        self._window_budget_ms = window_budget_ms
        self._max_wait = max_wait_ms / 1000.0
        self._max_batch = max_batch
        self._queue_limit = queue_limit
        self._overload = overload
        self.stats = MicroBatchStats(max_batch)
        self._queue: "asyncio.Queue[Any]" = asyncio.Queue(maxsize=queue_limit)
        self._worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-window")
        self._collector: Optional[asyncio.Task] = None
        self._draining = False

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        if self._collector is None:
            self._collector = asyncio.ensure_future(self._collect())

    async def __aenter__(self) -> "MicroBatcher":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.drain()

    async def drain(self) -> None:
        """Graceful shutdown: answer everything admitted, then stop.

        The sentinel goes through the same FIFO queue as the tickets, so the
        collector necessarily windows and executes every admitted request
        before it sees the stop signal.
        """
        if self._draining:
            if self._collector is not None:
                await asyncio.shield(self._collector)
            return
        self._draining = True
        if self._collector is None:
            self._worker.shutdown(wait=False)
            return
        await self._queue.put(_DRAIN)
        await self._collector
        self._worker.shutdown(wait=True)

    async def run_exclusive(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` on the window worker thread, serialized against windows.

        Windows execute one at a time on the batcher's single worker thread;
        submitting ``fn`` to the same thread means it can never interleave
        with a window that is mutating the session.  The live-snapshot
        control line uses this to export a consistent Γ state from a serving
        process without pausing admission.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._worker, fn)

    # -- admission -------------------------------------------------------------

    async def submit(self, request: QueryRequest) -> Ticket:
        """Admit one request; returns its :class:`Ticket` (await ``ticket.result()``).

        Under the ``block`` policy a full queue delays this coroutine — and
        therefore the reader that called it — until a window frees space.
        Under ``shed`` the ticket comes back already resolved with an
        ``Overloaded`` error result.
        """
        if self._draining:
            raise ServiceError("micro-batcher is draining; no new requests are admitted")
        if self._collector is None:
            raise ServiceError("micro-batcher is not started")
        loop = asyncio.get_running_loop()
        ticket = Ticket(request, loop.create_future(), self.stats)
        self.stats.submitted += 1
        self.stats.record_tenant(request.tenant, "submitted")
        if self._overload == "shed" and self._queue.full():
            ticket.shed = True
            self.stats.shed += 1
            ticket.future.set_result(
                QueryResult(
                    kind=request.kind,
                    ok=False,
                    id=request.id,
                    error={
                        "type": "Overloaded",
                        "message": (
                            f"admission queue full ({self._queue_limit} requests); "
                            "request shed by overload policy"
                        ),
                    },
                )
            )
            return ticket
        await self._queue.put(ticket)
        return ticket

    # -- the collector loop ----------------------------------------------------

    async def _collect(self) -> None:
        while True:
            first = await self._queue.get()
            if first is _DRAIN:
                return
            window = [first]
            reason = await self._fill_window(window)
            now = time.perf_counter()
            for ticket in window:
                ticket.window_closed_at = now
                ticket.window_size = len(window)
                ticket.window_reason = reason
            self.stats.record_window(len(window), reason)
            await self._run_window(window)
            if reason == "drain":
                return

    async def _fill_window(self, window: list) -> str:
        """Grow the window to ``max_batch`` or the timer; returns the close reason.

        Backlog is drained synchronously (no await), so requests that queued
        while the previous window executed coalesce immediately.
        """
        deadline = time.perf_counter() + self._max_wait
        while len(window) < self._max_batch:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                timeout = deadline - time.perf_counter()
                if timeout <= 0:
                    return "timer"
                try:
                    item = await asyncio.wait_for(self._queue.get(), timeout)
                except asyncio.TimeoutError:
                    return "timer"
            if item is _DRAIN:
                return "drain"
            window.append(item)
        return "size"

    async def _run_window(self, window: list) -> None:
        """Execute one closed window on the worker thread and resolve its tickets."""
        loop = asyncio.get_running_loop()
        requests = [ticket.request for ticket in window]
        now = time.perf_counter()
        for ticket in window:
            ticket.planned_at = now
        try:
            results = await loop.run_in_executor(
                self._worker, self._execute_window_checked, requests
            )
        except Exception as exc:  # the pipeline answers per request; this is a harness fault
            results = [
                QueryResult(
                    kind=request.kind,
                    ok=False,
                    id=request.id,
                    error={"type": type(exc).__name__, "message": str(exc)},
                )
                for request in requests
            ]
        now = time.perf_counter()
        for ticket, result in zip(window, results):
            ticket.executed_at = now
            self.stats.answered += 1
            self.stats.record_tenant(ticket.request.tenant, "answered")
            if not ticket.future.done():  # a cancelled waiter must not crash the loop
                ticket.future.set_result(result)

    def _execute_window_checked(self, requests: list[QueryRequest]) -> Sequence[QueryResult]:
        """Execute a window, optionally under the per-window execution budget.

        The budget is a :func:`~repro.deadline.deadline_scope` around the
        whole window: when it expires (cooperatively, inside a kernel's
        ``check_deadline``), the window degrades to a per-request **retry
        lane** — each request re-runs alone under a fresh budget, so one
        pathological request costs only itself a ``Timeout`` while its window
        neighbors still answer (typically from the session cache, since
        results computed before the expiry were already stored).  The budget
        only bites executors that compute on this thread (the in-process
        session); a sharded backend's workers enforce deadlines in their own
        processes under the supervisor's wall clock.
        """
        if self._window_budget_ms is None:
            results = list(self._execute_window(requests))
        else:
            scope = None
            try:
                with deadline_scope(self._window_budget_ms) as scope:
                    results = list(self._execute_window(requests))
            except DeadlineExceeded as exc:
                if scope is None or exc.scope is not scope:
                    raise  # a request-level budget leaked; not ours to handle
                return self._retry_individually(requests)
        if len(results) != len(requests):  # loud, not misaligned
            raise ServiceError(
                f"window executor answered {len(results)} of {len(requests)} requests"
            )
        return results

    def _retry_individually(self, requests: list[QueryRequest]) -> list[QueryResult]:
        """The over-budget retry lane: one request at a time, fresh budget each."""
        self.stats.over_budget += 1
        out: list[QueryResult] = []
        for request in requests:
            self.stats.budget_retried += 1
            scope = None
            try:
                with deadline_scope(self._window_budget_ms) as scope:
                    answers = list(self._execute_window([request]))
            except DeadlineExceeded as exc:
                if scope is None or exc.scope is not scope:
                    raise
                self.stats.budget_timeouts += 1
                out.append(
                    QueryResult(
                        kind=request.kind,
                        ok=False,
                        id=request.id,
                        error={
                            "type": "Timeout",
                            "message": (
                                f"request exhausted the {self._window_budget_ms:g} ms "
                                "micro-batch window budget even when retried alone"
                            ),
                        },
                    )
                )
                continue
            if len(answers) != 1:  # loud, not misaligned
                raise ServiceError(
                    f"window executor answered {len(answers)} of 1 retried request"
                )
            out.append(answers[0])
        return out
