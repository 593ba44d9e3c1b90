"""Micro-batch windows: re-batch continuous traffic so amortization survives live load.

The batch planner's group-by amortization (one ALG engine and one
normalization per distinct Γ, not per request) only materializes when
requests arrive *pre-collected*; a live socket delivers them one at a
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
  back).  The batcher counts requests, windows and per-stage latencies into
  its :class:`~repro.service.telemetry.MetricsRegistry`, and
  :func:`batch_stats` reads p50/p95/p99 latency per stage plus window
  occupancy (mean/max window size, close reasons) back from it.

The batcher is transport-agnostic: :mod:`repro.service.server` feeds it from
sockets, tests feed it directly.  Graceful drain
(:meth:`MicroBatcher.drain`) answers everything admitted before shutdown.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional

from repro.deadline import deadline_scope
from repro.errors import DeadlineExceeded, ServiceError
from repro.service.telemetry import MetricsRegistry, summarize
from repro.service.wire import QueryRequest, QueryResult

#: Queue sentinel that tells the collector loop to finish (FIFO order makes
#: it drain everything admitted before it).
_DRAIN = object()


class Ticket:
    """One admitted request and its life-cycle timestamps.

    ``future`` resolves to the :class:`~repro.service.wire.QueryResult`;
    awaiting callers should call :meth:`mark_responded` once they have
    delivered the answer (the server does it after the socket write, a
    direct caller after its ``await``) so the total-latency sample covers
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
        "_metrics",
    )

    def __init__(
        self, request: QueryRequest, future: "asyncio.Future[QueryResult]", metrics: MetricsRegistry
    ) -> None:
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
        self._metrics = metrics

    async def result(self) -> QueryResult:
        """The answer (delivery is up to the caller; see :meth:`mark_responded`)."""
        return await self.future

    def mark_responded(self) -> None:
        """Stamp the respond time and feed this ticket's stage latencies to the registry."""
        if self.responded_at is not None:
            return
        self.responded_at = time.perf_counter()
        record_latencies(self._metrics, self)


def record_latencies(metrics: MetricsRegistry, ticket: Ticket) -> None:
    """Observe a ticket's stage latencies, in milliseconds, on the ``latency_ms.*`` series."""
    if ticket.shed:
        return  # shed answers are counted, not sampled: ~0 latency would skew p50 down
    if ticket.window_closed_at is not None:
        metrics.observe("latency_ms.queue_wait", (ticket.window_closed_at - ticket.enqueued_at) * 1000.0)
    if ticket.executed_at is not None and ticket.planned_at is not None:
        metrics.observe("latency_ms.execute", (ticket.executed_at - ticket.planned_at) * 1000.0)
    if ticket.responded_at is not None:
        if ticket.executed_at is not None:
            metrics.observe("latency_ms.respond", (ticket.responded_at - ticket.executed_at) * 1000.0)
        metrics.observe("latency_ms.total", (ticket.responded_at - ticket.enqueued_at) * 1000.0)


def batch_stats(metrics: MetricsRegistry, max_batch: int) -> dict:
    """The batcher's part of the stats document, read from its registry.

    Latency percentiles cover each series' :data:`~repro.service.telemetry.STATS_WINDOW`
    most recent samples, so a long-lived server reports *recent* latency.
    """
    windows = metrics.value("windows.count")
    mean_size = metrics.value("windows.size_sum") / windows if windows else None
    return {
        "requests": {
            "submitted": metrics.value("requests.submitted"),
            "answered": metrics.value("requests.answered"),
            "shed": metrics.value("requests.shed"),
            "per_tenant": metrics.per_tenant("requests", ("submitted", "answered")),
        },
        "windows": {
            "count": windows,
            "mean_size": round(mean_size, 3) if mean_size is not None else None,
            "max_size": metrics.value("windows.max_size"),
            "occupancy": round(mean_size / max_batch, 4) if mean_size else None,
            "closed_by": {
                reason: metrics.value(f"windows.closed_by.{reason}") for reason in ("size", "timer", "drain")
            },
            "over_budget": metrics.value("windows.over_budget"),
            "budget_retried": metrics.value("windows.budget_retried"),
            "budget_timeouts": metrics.value("windows.budget_timeouts"),
        },
        "latency_ms": {
            stage: summarize(metrics.series(f"latency_ms.{stage}").recent)
            for stage in ("total", "queue_wait", "execute", "respond")
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
        metrics: Optional[MetricsRegistry] = None,
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
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._queue: "asyncio.Queue[Any]" = asyncio.Queue(maxsize=queue_limit)
        self._worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-window")
        self._collector: Optional[asyncio.Task] = None
        self._draining = False
        self._worker_closed = False

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
            self._worker_closed = True
            return
        await self._queue.put(_DRAIN)
        await self._collector
        self._worker.shutdown(wait=True)
        self._worker_closed = True

    async def run_exclusive(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` on the window worker thread, serialized against windows.

        Windows execute one at a time on the batcher's single worker thread;
        submitting ``fn`` to the same thread means it can never interleave
        with a window that is mutating the session.  The live-snapshot
        control line uses this to export a consistent Γ state from a serving
        process without pausing admission.  After :meth:`drain` has run every
        admitted window and joined the worker, nothing can interleave with
        ``fn``, so it runs here (a control line admitted before the drain
        still gets its answer).
        """
        if self._worker_closed:
            return fn()
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
        ticket = Ticket(request, loop.create_future(), self.metrics)
        self.metrics.inc_tenant("requests.submitted", request.tenant)
        if self._overload == "shed" and self._queue.full():
            ticket.shed = True
            self.metrics.inc("requests.shed")
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
            metrics = self.metrics
            metrics.inc("windows.count")
            metrics.inc("windows.size_sum", len(window))
            metrics.inc(f"windows.closed_by.{reason}")
            if len(window) > metrics.value("windows.max_size"):
                metrics.gauge("windows.max_size", len(window))
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
            self.metrics.inc_tenant("requests.answered", ticket.request.tenant)
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
        self.metrics.inc("windows.over_budget")
        out: list[QueryResult] = []
        for request in requests:
            self.metrics.inc("windows.budget_retried")
            scope = None
            try:
                with deadline_scope(self._window_budget_ms) as scope:
                    answers = list(self._execute_window([request]))
            except DeadlineExceeded as exc:
                if scope is None or exc.scope is not scope:
                    raise
                self.metrics.inc("windows.budget_timeouts")
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
