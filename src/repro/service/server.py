"""The always-on front door: an asyncio socket server over the micro-batcher.

``python -m repro.service serve`` turns the batch pipeline of PR 5 into a
continuously serving process.  The protocol is exactly the file CLI's JSONL
wire format — one :class:`~repro.service.wire.QueryRequest` per line in, one
result line out — so anything that could be piped into the CLI can be
streamed over a socket instead, and the answers are **byte-identical**
(``tests/test_service_server.py`` pins this on the 200-request acceptance
stream, including under 8 concurrent connections).

Shape of the thing:

* every connection gets a **reader loop** (decode lines, admit requests into
  the shared :class:`~repro.service.microbatch.MicroBatcher`) and a **writer
  loop** (emit answers strictly in that connection's request order, awaiting
  each ticket in turn) — per-connection ordering is preserved while the
  batcher windows requests *across* connections, which is where the
  planner's group-by amortization comes back under live load;
* **backpressure** is physical: the batcher's admission queue is bounded, so
  under the ``block`` policy a full queue suspends the reader coroutine,
  the socket stops being read and TCP pushes back on the client.  Under
  ``shed`` the client instead receives a well-formed ``ok=false`` result
  with error type ``"Overloaded"``;
* **control lines** — the server's batcher and executor count into its one
  :class:`~repro.service.telemetry.MetricsRegistry`, and three lines are
  views over it: ``{"control": "stats"}`` (per-stage p50/p95/p99 latency,
  window occupancy, cache tiers), ``{"control": "health"}`` (circuit
  breaker, supervision counters and restart latency, request totals)
  and ``{"control": "metrics"}`` (the registry itself, plus gauges for the
  values read at request time).  ``{"control": "ping"}`` answers
  ``{"control": "pong"}`` and ``{"control": "snapshot"}`` exports a durable
  Γ snapshot of the *live* session into ``--snapshot-dir`` (the export runs
  on the window worker thread, so it never races a mutating window); each
  is evaluated at its turn in the connection's order, once every earlier
  line has its answer, so its counts cover the requests sent before it;
* **observability** — with ``--trace`` or ``--metrics-dir`` the server mints
  a trace id per request at decode (or propagates the wire ``trace`` field);
  once the answer is written, the ticket records the request's root span and
  its ``plan``/``execute``/``respond`` children from its stage stamps (a
  line refused by a draining batcher records its root alone).
  ``--metrics-dir`` additionally dumps spans, cost records and the metrics
  document to JSONL files every second (and once at drain);
* **graceful degradation** — with a sharded backend, repeated worker crashes
  (``breaker_threshold`` of them) trip a circuit breaker: the executor is
  closed and the server falls back to in-process execution on the
  executor's session (its cache included), answering every subsequent
  request itself rather than feeding a crash loop;
* **graceful drain** — :meth:`QueryServer.drain` stops accepting
  connections, stops reading new lines, then answers every request already
  admitted before shutting the batcher down: accepted requests always get
  answers;
* undecodable lines become structured error results in place, echoing the
  request ``id`` whenever the line parsed far enough to carry one
  (:func:`~repro.service.wire.error_result_for_line`).

The compute backend is :meth:`ServiceConfig.make_backend
<repro.service.config.ServiceConfig.make_backend>`'s choice over one session
(the one passed to :class:`QueryServer`, else the config's), and every window
goes to its ``execute_many``: that :class:`~repro.service.session.Session`
in-process by default, a multiprocess
:class:`~repro.service.executor.ShardExecutor` sharding it for ``shards > 1``
(its worker pool is created eagerly at :meth:`start`, before any serving
thread exists).  Either way the session is what drain and the ``snapshot``
control line save.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

from repro.errors import ServiceError
from repro.expressions.parser import parse_memo_info
from repro.service import telemetry
from repro.service.config import ServiceConfig
from repro.service.executor import ShardExecutor
from repro.service.microbatch import MicroBatcher, Ticket, batch_stats
from repro.service.session import Session
from repro.service.supervisor import supervision_stats
from repro.service.telemetry import MetricsRegistry
from repro.service.wire import (
    canonical_dumps,
    canonical_loads,
    decode_request,
    dump_result_line,
    error_result_for_line,
)

#: Writer-queue sentinel: the reader is done, flush and close.
_END = object()

#: Seconds between serve-mode ``--metrics-dir`` dumps (one more runs at drain).
METRICS_DUMP_INTERVAL = 1.0


class QueryServer:
    """One listening socket, one shared micro-batcher, many ordered connections."""

    def __init__(self, config: Optional[ServiceConfig] = None, session: Optional[Session] = None) -> None:
        self.config = config or ServiceConfig()
        self._session = session
        self._executor = None
        self._breaker_tripped = False
        # Every count this server's layers keep: the batcher and executor it
        # builds write here, and stats/health/metrics are views over it.
        self.metrics = MetricsRegistry()
        self._batcher: Optional[MicroBatcher] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._metrics_task: Optional[asyncio.Task] = None
        self._drain_event = asyncio.Event()
        self._drained = False
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and serve; returns the bound ``(host, port)`` (port 0 → ephemeral)."""
        if self._server is not None:
            raise ServiceError("server is already started")
        config = self.config
        # Arm the hooks before the executor exists so forked/spawned workers
        # inherit the telemetry enablement and ship their spans back in replies.
        config.install_hooks(self.metrics)
        backend = config.make_backend(self.metrics, self._session)
        if isinstance(backend, ShardExecutor):
            self._executor = backend
            self._session = backend.session
            # Create the worker pool now, in the main thread, so fork happens
            # before the window worker thread exists.
            backend.__enter__()
            execute = self._execute_sharded
        else:
            self._session = backend
            execute = backend.execute_many
        self._batcher = MicroBatcher(
            execute,
            max_batch=config.max_batch,
            queue_limit=config.queue_limit,
            overload=config.overload,
            window_budget_ms=config.window_budget_ms,
            metrics=self.metrics,
        )
        await self._batcher.start()
        self._server = await asyncio.start_server(self._handle_connection, config.host, config.port)
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]
        if config.metrics_dir is not None:
            self._metrics_task = asyncio.ensure_future(self._metrics_dump_loop())
        return self.host, self.port

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, answer everything admitted, stop.

        Order matters: the listener closes first (no new connections), then
        readers are told to stop (no new lines admitted), then the batcher
        flushes its open window — its drain sentinel rides the same FIFO
        queue as the tickets, so everything admitted resolves first — and the
        open writers finish delivering every admitted answer.  The batcher
        drain must not wait for the writers: they are waiting on *it* for
        the answers to the requests it still holds.
        """
        if self._drained:
            return
        self._drained = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._drain_event.set()
        conn_tasks = list(self._conn_tasks)
        if self._batcher is not None:
            await self._batcher.drain()
        if conn_tasks:
            await asyncio.gather(*conn_tasks, return_exceptions=True)
        if self._metrics_task is not None:
            self._metrics_task.cancel()
            try:
                await self._metrics_task
            except (asyncio.CancelledError, Exception):
                pass
            self._metrics_task = None
        if self.config.metrics_dir is not None:
            # Final flush after the writers finished: every admitted request's
            # spans are closed, so the dump captures the complete trace.
            self._flush_metrics()
        if self.config.snapshot_dir is not None and self._session is not None:
            # Save-on-drain: the batcher is flushed, so the session (the
            # backend's, sharded or not) is quiescent and the export captures
            # everything this run learned.
            from repro.service.snapshot import save_snapshot

            save_snapshot(self._session, self.config.snapshot_dir)
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    async def __aenter__(self) -> "QueryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.drain()

    # -- the circuit breaker ---------------------------------------------------

    def _execute_sharded(self, requests):
        """The sharded window executor, wrapped in the circuit breaker.

        Runs on the batcher's window worker thread.  After every window the
        registry's ``supervisor.crashes`` is checked against ``breaker_threshold``;
        crossing it *trips the breaker*: the executor is closed (gracefully —
        restarted workers are healthy, they are just being crashed faster
        than they can earn their keep) and every later window executes
        in-process, on the executor's own session, so the shared tier's
        answers keep answering.  A tripped breaker stays tripped: flapping
        between backends would re-pay worker start-up on every crash burst.
        """
        executor = self._executor
        if executor is None:  # breaker already tripped
            return self._session.execute_many(requests)
        results = executor.execute_many(requests)
        threshold = self.config.breaker_threshold
        if threshold > 0 and self.metrics.value("supervisor.crashes") >= threshold:
            self._trip_breaker()
        return results

    def _trip_breaker(self) -> None:
        executor = self._executor
        self._executor = None
        self._breaker_tripped = True
        if executor is not None:
            executor.close()

    # -- diagnostics -----------------------------------------------------------

    def _backend_name(self) -> str:
        return "session" if self._breaker_tripped else self.config.backend_name

    def stats_snapshot(self) -> dict:
        """The stats document: the batcher's counts and latency series from the
        registry, plus server, supervision and cache-tier sections."""
        snapshot = batch_stats(self.metrics, self.config.max_batch)
        snapshot["server"] = {
            "connections_open": len(self._conn_tasks),
            "connections_served": self.metrics.value("server.connections_served"),
            "mode": self._backend_name(),
            "window": {
                "max_batch": self.config.max_batch,
                "queue_limit": self.config.queue_limit,
                "overload": self.config.overload,
            },
        }
        if self.config.shards > 1:
            snapshot["supervision"] = supervision_stats(self.metrics)
        if self._session is not None:
            snapshot["session_cache"] = self._session.cache_info()
        snapshot["result_cache"] = self._result_cache_snapshot()
        return snapshot

    def _result_cache_snapshot(self) -> dict:
        """Cache traffic by tier and by tenant.

        The backend's one cache is its session's: reported as the ``shared``
        tier while a sharded executor serves in front of it, else (the
        in-process backend, or a tripped breaker) as the ``session`` tier.
        """

        def _with_rate(tier: dict) -> dict:
            total = tier["hits"] + tier["misses"]
            tier["hit_rate"] = round(tier["hits"] / total, 6) if total else 0.0
            return tier

        if self._session is None:
            return {"tiers": {}, "per_tenant": {}}
        info = self._session.cache_info()
        tier = "shared" if self._executor is not None else "session"
        return {
            "tiers": {tier: _with_rate({"hits": info["hits"], "misses": info["misses"]})},
            "per_tenant": {
                tenant: _with_rate(traffic) for tenant, traffic in info["per_tenant"].items()
            },
        }

    def metrics_snapshot(self) -> dict:
        """The metrics document: this server's registry, plus gauges for the
        values read at the moment of the request (open connections, the
        cache tiers named like their stats keys, and this process's parse
        memo: its entry count and bound)."""
        document = telemetry.metrics_export(self.metrics)
        gauges = document["gauges"]
        gauges["server.connections_open"] = len(self._conn_tasks)
        for key, value in parse_memo_info().items():
            gauges[f"parse_memo.{key}"] = value
        caches = self._result_cache_snapshot()
        for tier, counts in caches["tiers"].items():
            for key, value in counts.items():
                gauges[f"result_cache.tiers.{tier}.{key}"] = value
        for label, traffic in caches["per_tenant"].items():
            for key, value in traffic.items():
                gauges[f"result_cache.per_tenant.{label}.{key}"] = value
        return document

    async def _metrics_dump_loop(self) -> None:
        while True:
            await asyncio.sleep(METRICS_DUMP_INTERVAL)
            self._flush_metrics()

    def _flush_metrics(self) -> None:
        telemetry.flush(self.metrics_snapshot())

    def health_snapshot(self) -> dict:
        """Liveness-and-degradation summary: breaker, supervision, request totals."""
        sharded = self.config.shards > 1
        metrics = self.metrics
        return {
            "status": "degraded" if self._breaker_tripped else "ok",
            "backend": self._backend_name(),
            "breaker": {
                "enabled": sharded and self.config.breaker_threshold > 0,
                "threshold": self.config.breaker_threshold,
                "tripped": self._breaker_tripped,
            },
            "supervision": supervision_stats(metrics) if sharded else None,
            "requests": {
                "submitted": metrics.value("requests.submitted"),
                "answered": metrics.value("requests.answered"),
                "shed": metrics.value("requests.shed"),
                "budget_timeouts": metrics.value("windows.budget_timeouts"),
            },
            "cache": {
                name: tier["hit_rate"]
                for name, tier in self._result_cache_snapshot()["tiers"].items()
            },
        }

    @property
    def session(self) -> Optional[Session]:
        """The backend's session: the in-process backend itself, or the one
        the sharded executor keeps parent-side (``None`` before :meth:`start`
        when none was given)."""
        return self._session

    # -- per-connection machinery ----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self.metrics.inc("server.connections_served")
        pending: "asyncio.Queue" = asyncio.Queue()
        writer_task = asyncio.ensure_future(self._write_responses(pending, writer))
        drain_wait = asyncio.ensure_future(self._drain_event.wait())
        line_number = 0
        try:
            while not self._drain_event.is_set():
                read_task = asyncio.ensure_future(reader.readline())
                done, _ = await asyncio.wait(
                    {read_task, drain_wait}, return_when=asyncio.FIRST_COMPLETED
                )
                if read_task not in done:
                    # Draining: stop reading; anything already admitted is
                    # answered by the writer loop below.
                    read_task.cancel()
                    try:
                        await read_task
                    except (asyncio.CancelledError, Exception):
                        pass
                    break
                raw = read_task.result()
                if not raw:
                    break  # client EOF
                line_number += 1
                text = raw.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                await self._handle_line(text, line_number, pending)
        except (ConnectionError, OSError):
            pass  # client went away; the writer loop unwinds below
        finally:
            drain_wait.cancel()
            try:
                await drain_wait
            except (asyncio.CancelledError, Exception):
                pass
            await pending.put(_END)
            await writer_task
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if task is not None:
                self._conn_tasks.discard(task)

    async def _handle_line(self, text: str, line_number: int, pending: "asyncio.Queue") -> None:
        """Decode one line into an ordered response slot (ticket, control op or immediate line)."""
        try:
            payload = canonical_loads(text)
        except ServiceError as exc:
            await pending.put(dump_result_line(error_result_for_line(text, line_number, exc)))
            return
        if isinstance(payload, dict) and "control" in payload:
            await pending.put(payload)  # the writer evaluates it at its turn
            return
        try:
            request = decode_request(payload)
        except ServiceError as exc:
            await pending.put(dump_result_line(error_result_for_line(payload, line_number, exc)))
            return
        traced = telemetry.enabled()
        if traced:
            # Mint (or propagate) the trace id at decode; the ticket records
            # the request's spans once its answer is written.
            request = telemetry.begin_request(request)
            decoded_at = time.perf_counter()
        try:
            ticket = await self._batcher.submit(request)  # blocks under backpressure
        except ServiceError as exc:
            # Lost the race with drain: the line was read but cannot be
            # admitted — still answer it, the stream contract holds.
            refusal = error_result_for_line(payload, line_number, exc)
            if traced:
                telemetry.record_request(
                    request, refusal, enqueued_at=decoded_at, responded_at=time.perf_counter(), rejected=True
                )
            await pending.put(dump_result_line(refusal))
            return
        await pending.put(ticket)

    async def _control_line(self, payload: dict) -> str:
        op = payload.get("control")
        if op == "stats":
            return canonical_dumps({"control": "stats", "stats": self.stats_snapshot()})
        if op == "ping":
            return canonical_dumps({"control": "pong"})
        if op == "health":
            return canonical_dumps({"control": "health", "health": self.health_snapshot()})
        if op == "metrics":
            return canonical_dumps({"control": "metrics", "metrics": self.metrics_snapshot()})
        if op == "snapshot":
            return await self._snapshot_control()
        return canonical_dumps(
            {
                "control": op,
                "error": {
                    "type": "ServiceError",
                    "message": (
                        f"unknown control operation {op!r}; "
                        "expected 'stats', 'ping', 'health', 'metrics' or 'snapshot'"
                    ),
                },
            }
        )

    async def _snapshot_control(self) -> str:
        """Snapshot the live session (either backend's) to ``snapshot_dir`` without pausing service.

        The export runs on the batcher's window worker thread
        (:meth:`~repro.service.microbatch.MicroBatcher.run_exclusive`), so it
        serializes with window execution — no window can mutate the session
        mid-export — while the event loop keeps admitting requests.
        """

        def _error(message: str) -> str:
            return canonical_dumps(
                {
                    "control": "snapshot",
                    "error": {"type": "ServiceError", "message": message},
                }
            )

        if self.config.snapshot_dir is None:
            return _error("no snapshot directory configured; start with --snapshot-dir")
        session = self._session
        directory = self.config.snapshot_dir

        def _save():
            from repro.service.snapshot import save_snapshot

            return save_snapshot(session, directory)

        try:
            path = await self._batcher.run_exclusive(_save)
        except ServiceError as exc:
            return _error(str(exc))
        return canonical_dumps(
            {
                "control": "snapshot",
                "path": str(path),
                "generation": session.generation,
                "bytes": path.stat().st_size,
            }
        )

    async def _write_responses(self, pending: "asyncio.Queue", writer: asyncio.StreamWriter) -> None:
        """Deliver answers strictly in this connection's request order.

        A control op is evaluated here, when every earlier ticket of the
        connection has resolved, so ``stats``/``health``/``metrics`` count
        the requests sent before them and ``snapshot`` captures their work.
        """
        while True:
            item = await pending.get()
            if item is _END:
                return
            if isinstance(item, Ticket):
                line = dump_result_line(await item.result())
            elif isinstance(item, dict):
                line = await self._control_line(item)
            else:
                line = item
            try:
                writer.write(line.encode("utf-8") + b"\n")
                await writer.drain()
            except (ConnectionError, OSError):
                # Client gone: keep consuming slots so admitted tickets are
                # still awaited (and counted), but nothing more is written.
                continue
            if isinstance(item, Ticket):
                item.mark_responded()  # stage latencies and, when traced, the span tree


async def serve_stream(
    requests_jsonl: str, config: Optional[ServiceConfig] = None
) -> tuple[list[str], dict]:
    """Answer a whole JSONL text through an in-process server over a real socket.

    Convenience for tests and examples: starts a :class:`QueryServer` on an
    ephemeral port, plays the stream over one connection, drains, and returns
    (result lines, stats snapshot).
    """
    server = QueryServer(config)
    host, port = await server.start()
    try:
        reader, writer = await asyncio.open_connection(host, port)
        lines = [line for line in requests_jsonl.split("\n") if line.strip()]
        writer.write(("".join(line + "\n" for line in lines)).encode("utf-8"))
        await writer.drain()
        writer.write_eof()
        out = []
        for _ in lines:
            answer = await reader.readline()
            if not answer:
                raise ServiceError("server closed the connection before answering the stream")
            out.append(answer.decode("utf-8").rstrip("\n"))
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        return out, server.stats_snapshot()
    finally:
        await server.drain()
