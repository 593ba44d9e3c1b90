"""The supervised worker pool: crash-isolated, deadline-enforced shard execution.

``multiprocessing.Pool`` is the wrong substrate for a service: a worker
killed mid-task (OOM, segfault, a poison request) loses the whole ``map``
call, and there is no per-task wall-clock control at all.  This module
replaces it with an explicit supervision loop:

* each worker is a plain :class:`multiprocessing.Process` holding one
  cache-less :class:`~repro.service.session.Session` restored from the
  parent session's snapshot payload (the parent session's cache is a sharded
  backend's only result cache), spoken to over a duplex pipe with
  wire-format strings (the executor's transport discipline);
* the parent multiplexes worker pipes *and* process sentinels through
  :func:`multiprocessing.connection.wait`, so a reply, a crash and a blown
  wall clock are all just events on one loop;
* work is dealt dynamically from one queue — largest unit first to
  whichever worker is idle — and every reply is validated (sequence number, index set, each
  line parses as a result object) before it is trusted;
* failures follow a bounded escalation ladder per :class:`WorkUnit`:
  **retry** the unit (a fresh worker may simply succeed), then **split** a
  multi-request unit to singletons (isolating the culprit), then
  **quarantine** the lone survivor with a typed ``WorkerCrashed`` error
  result.  Every other request in the stream still gets its byte-identical
  answer — the blast radius of a poison request is exactly one line;
* a unit whose requests carry ``deadline_ms`` budgets gets a **hard
  wall-clock limit** (max budget + :data:`DEADLINE_GRACE_MS`) on top of
  the workers' cooperative :func:`~repro.deadline.check_deadline` hooks: a
  kernel that never reaches a check point is reclaimed by SIGKILL and the
  request is answered with a typed ``Timeout`` error result.

Every worker boots one way — :func:`~repro.service.snapshot.restore_session`
over the snapshot payload dict the pool was given (the parent encoded it, so
a worker neither re-parses text nor re-checks a digest), so a restarted worker
rebuilds exactly the Γs a fresh one does — and
every restart, crash and escalation step is counted into the pool's
:class:`~repro.service.telemetry.MetricsRegistry` (restart latency on the
``supervisor.restart_ms`` series);
:func:`supervision_stats` reads the health document's supervision section
back from it.  The deterministic chaos hooks live in
:mod:`repro.service.faults`; workers arm them via
:func:`~repro.service.faults.set_worker_context` so a seeded
:class:`~repro.service.faults.FaultPlan` can exercise every branch of this
file from pytest.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Optional

from repro.errors import ServiceError
from repro.service import telemetry
from repro.service.snapshot import restore_session
from repro.service.telemetry import MetricsRegistry
from repro.service.wire import (
    QueryResult,
    dump_result_line,
    error_result_for_line,
    load_request_line,
)


@dataclass(frozen=True)
class WorkItem:
    """One request of a work unit: stream position, wire line, routing facts.

    ``trace`` is the request's trace id (when tracing is on): the supervisor
    parents escalation spans to ``<trace>.r`` so retries, splits and
    quarantines land on the affected request's own tree.
    """

    index: int
    line: str
    request_id: Optional[str]
    kind: str
    deadline_ms: Optional[int] = None
    trace: Optional[str] = None


#: Wall-clock slack a deadline-carrying unit gets past its largest budget
#: before its worker is hard-killed (cooperative expiry normally wins).
DEADLINE_GRACE_MS = 2000.0

#: Delivery attempts of a work unit before the ladder splits or quarantines it.
MAX_UNIT_ATTEMPTS = 2


@dataclass
class WorkUnit:
    """A batch-aligned dispatch quantum with its remaining delivery attempts.

    Any idle worker may take any unit: :meth:`SupervisedPool.run_units`
    deals from one queue.
    """

    items: tuple[WorkItem, ...]
    attempts_left: int = MAX_UNIT_ATTEMPTS

    def __len__(self) -> int:
        return len(self.items)


#: The counter each way of losing a unit bumps (see ``SupervisedPool._lose_unit``).
_LOSS_COUNTERS = {
    "crash": "supervisor.crashes",
    "corrupt": "supervisor.corrupted",
    "timeout": "supervisor.timeouts",
}

#: The escalation and lifecycle events the pool counts, as ``supervisor.<event>``.
SUPERVISOR_COUNTERS = (
    "crashes",
    "restarts",
    "retries",
    "splits",
    "quarantined",
    "timeouts",
    "corrupted",
    "units_dispatched",
)


def supervision_stats(metrics: MetricsRegistry) -> dict:
    """The supervision document ``{"control": "health"}`` serves, read from a pool's registry.

    Restart latency — the mean and the most recent restart — comes from
    the ``supervisor.restart_ms`` series; ``restarts_by_worker`` maps each
    restarted worker slot's string index to its restart count.
    """
    document: dict = {name: metrics.value(f"supervisor.{name}") for name in SUPERVISOR_COUNTERS}
    restart = metrics.series("supervisor.restart_ms")
    document["restart_seconds"] = round(restart.total / 1000.0, 6)
    document["restart_mean_ms"] = round(restart.total / restart.count, 3) if restart.count else None
    document["last_restart_ms"] = round(restart.recent[-1], 3) if restart.recent else None
    document["restarts_by_worker"] = metrics.family("supervisor.restarts_by_worker.")
    return document


def _worker_main(
    conn,
    worker_index: int,
    incarnation: int,
    snapshot: dict,
    fault_plan_json: Optional[str],
    telemetry_enabled: bool = False,
) -> None:
    """One supervised worker: restore a session, then serve units until the sentinel.

    The session keeps no result cache: the parent probes its session's cache
    before dealing a unit, so a worker only sees requests that cache missed.
    Each unit is answered request-by-request through the worker's planner —
    an undecodable line becomes an in-place error result (the rest of the
    unit still computes), mirroring the CLI's per-line isolation.
    """
    from repro.service import faults

    if telemetry_enabled:
        # Collect spans/cost in this process too; the reply carries them back
        # (the fork hook already cleared any buffers inherited from the parent).
        telemetry.configure(trace=True)
    faults.set_worker_context(worker_index, incarnation)
    if fault_plan_json is not None:
        faults.install_fault_plan(fault_plan_json)
    session = restore_session(snapshot, result_cache_size=0)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # the parent is gone; so are we
            break
        if message is None:
            break
        unit_seq, lines = message
        faults.on_unit_start()
        requests = []
        positions: list[int] = []
        encoded: dict[int, str] = {}
        for original_index, line in lines:
            try:
                requests.append(load_request_line(line))
                positions.append(original_index)
            except Exception as exc:  # isolate the bad line, answer the rest
                encoded[original_index] = dump_result_line(
                    error_result_for_line(line, original_index + 1, exc)
                )
        results = session.execute_many(requests, batch=True)
        for original_index, request, result in zip(positions, requests, results):
            encoded[original_index] = faults.corrupt_result_line(
                request.id, dump_result_line(result)
            )
        # Spans and cost records ride back with the reply when traced — that
        # is how a trace crosses the process boundary.
        info = telemetry.drain_for_reply()
        conn.send((unit_seq, [(index, encoded[index]) for index, _ in lines], info))
    conn.close()


class _WorkerHandle:
    """Parent-side record of one worker: process, pipe, and in-flight unit."""

    __slots__ = (
        "index",
        "incarnation",
        "process",
        "conn",
        "unit",
        "unit_seq",
        "expires_at",
        "budget_ms",
        "dispatched_at",
    )

    def __init__(self, index: int, incarnation: int, process, conn) -> None:
        self.index = index
        self.incarnation = incarnation
        self.process = process
        self.conn = conn
        self.unit: Optional[WorkUnit] = None
        self.unit_seq = -1
        self.expires_at: Optional[float] = None
        self.budget_ms: Optional[float] = None
        self.dispatched_at: Optional[float] = None


class SupervisedPool:
    """A pool of supervised workers executing :class:`WorkUnit` streams.

    The pool is synchronous from the caller's side — :meth:`run_units` blocks
    until every unit has a result line for every item — while internally the
    supervision loop juggles replies, crashes, restarts and wall clocks.
    ``snapshot`` is the verified snapshot payload every worker restores from:
    the dict :func:`~repro.service.snapshot.encode_snapshot` returns.
    """

    def __init__(
        self,
        workers: int,
        snapshot: dict,
        start_method: str = "fork",
        fault_plan_json: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"worker count must be positive, got {workers}")
        self._context = multiprocessing.get_context(start_method)
        self._snapshot = snapshot
        self._fault_plan_json = fault_plan_json
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._workers = [self._spawn(index, 0) for index in range(workers)]

    # -- worker lifecycle ------------------------------------------------------

    def _spawn(self, index: int, incarnation: int) -> _WorkerHandle:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn,
                index,
                incarnation,
                self._snapshot,
                self._fault_plan_json,
                telemetry.enabled(),
            ),
            daemon=True,
            name=f"repro-shard-{index}.{incarnation}",
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(index, incarnation, process, parent_conn)

    def _respawn(self, worker: _WorkerHandle) -> None:
        """Replace a dead (or killed) worker in place, timing the restart."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        started = time.perf_counter()
        fresh = self._spawn(worker.index, worker.incarnation + 1)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.metrics.inc("supervisor.restarts")
        self.metrics.inc(f"supervisor.restarts_by_worker.{worker.index}")
        self.metrics.observe("supervisor.restart_ms", elapsed_ms)
        self._workers[worker.index] = fresh

    def close(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: sentinel every worker, join, escalate only if stuck.

        Workers finish their in-flight unit (replies are simply dropped),
        see the ``None`` sentinel and exit 0; a worker that does not make the
        deadline is terminated, then killed.
        """
        if not self._workers:
            return
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (OSError, BrokenPipeError, ValueError):
                pass  # already dead; join below reaps it
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = []

    # -- the supervision loop --------------------------------------------------

    def run_units(self, units: list[WorkUnit]) -> dict[int, str]:
        """Execute units to completion; returns stream index → result line.

        Deals from one queue, largest unit first, to whichever worker is
        idle, then waits on pipes, sentinels and the nearest wall-clock
        expiry; failures re-enter the front of the queue via the retry →
        split → quarantine ladder, so the returned mapping always covers
        every item of every unit.
        """
        if not self._workers:
            raise ServiceError("the supervised pool is closed")
        results: dict[int, str] = {}
        queue: deque[WorkUnit] = deque(sorted(units, key=len, reverse=True))
        next_seq = 0
        while queue or any(worker.unit is not None for worker in self._workers):
            for worker in self._workers:
                if worker.unit is None and queue:
                    self._dispatch(worker, queue.popleft(), next_seq, results, queue)
                    next_seq += 1
            busy = [worker for worker in self._workers if worker.unit is not None]
            if not busy:
                continue
            now = time.monotonic()
            expiries = [w.expires_at for w in busy if w.expires_at is not None]
            timeout = max(0.0, min(expiries) - now) if expiries else None
            waitable = [w.conn for w in busy] + [w.process.sentinel for w in busy]
            ready = set(connection.wait(waitable, timeout=timeout))
            now = time.monotonic()
            for worker in busy:
                if worker.unit is None:
                    continue  # already handled earlier in this sweep
                if worker.conn in ready:
                    self._handle_reply(worker, results, queue)
                elif worker.process.sentinel in ready:
                    self._lose_unit(worker, "crash", results, queue)
                elif worker.expires_at is not None and now >= worker.expires_at:
                    self._lose_unit(worker, "timeout", results, queue)
        return results

    def _dispatch(
        self,
        worker: _WorkerHandle,
        unit: WorkUnit,
        seq: int,
        results: dict[int, str],
        queue: deque,
    ) -> None:
        budgets = [item.deadline_ms for item in unit.items if item.deadline_ms is not None]
        budget_ms = max(budgets) + DEADLINE_GRACE_MS if budgets else None
        worker.unit = unit
        worker.unit_seq = seq
        worker.budget_ms = budget_ms
        worker.expires_at = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        worker.dispatched_at = time.perf_counter()
        payload = (seq, [(item.index, item.line) for item in unit.items])
        try:
            worker.conn.send(payload)
        except (OSError, BrokenPipeError, ValueError):
            # The worker died idle (e.g. between units): a crash of this unit.
            self._lose_unit(worker, "crash", results, queue)
            return
        self.metrics.inc("supervisor.units_dispatched")

    def _handle_reply(self, worker: _WorkerHandle, results: dict[int, str], queue: deque) -> None:
        unit = worker.unit
        assert unit is not None
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._lose_unit(worker, "crash", results, queue)
            return
        validated = self._validate_reply(worker, message)
        if validated is None:
            # The reply channel lied (torn write, codec bug): the worker's
            # state is no longer trusted.
            self._lose_unit(worker, "corrupt", results, queue)
            return
        lines, info = validated
        results.update(lines)
        telemetry.adopt_reply(info, self.metrics)
        telemetry.record_unit_dispatch(
            [item.trace for item in unit.items],
            worker=worker.index,
            items=len(unit.items),
            dispatched_at=worker.dispatched_at,
            attempt=unit.attempts_left,
        )
        worker.unit = None
        worker.expires_at = None

    def _lose_unit(self, worker: _WorkerHandle, reason: str, results: dict[int, str], queue: deque) -> None:
        """The one loss path: ``worker`` lost its unit to ``reason`` (a key of
        :data:`_LOSS_COUNTERS`).  Count it, replace the worker, escalate the unit."""
        unit = worker.unit
        assert unit is not None
        budget_ms = worker.budget_ms
        self.metrics.inc(_LOSS_COUNTERS[reason])
        worker.unit = None
        self._respawn(worker)
        self._fail_unit(unit, reason, results, queue, budget_ms=budget_ms)

    def _validate_reply(
        self, worker: _WorkerHandle, message
    ) -> Optional[tuple[dict[int, str], dict]]:
        """The reply's (index → line mapping, info dict), or ``None`` if untrusted."""
        unit = worker.unit
        assert unit is not None
        if not isinstance(message, tuple) or len(message) != 3:
            return None
        seq, payload, info = message
        if seq != worker.unit_seq or not isinstance(payload, list):
            return None
        if not isinstance(info, dict):
            return None
        for key, value in info.items():
            # Telemetry payloads are lists of dicts; anything else means the
            # channel is torn.
            if key not in ("spans", "cost") or not isinstance(value, list):
                return None
        expected = {item.index for item in unit.items}
        out: dict[int, str] = {}
        for entry in payload:
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                return None
            index, line = entry
            if index not in expected or index in out or not isinstance(line, str):
                return None
            try:
                parsed = json.loads(line)
            except (ValueError, TypeError):
                return None
            if not isinstance(parsed, dict) or "ok" not in parsed:
                return None
            out[index] = line
        if set(out) != expected:
            return None
        return out, info

    # -- the escalation ladder -------------------------------------------------

    def _fail_unit(
        self,
        unit: WorkUnit,
        reason: str,
        results: dict[int, str],
        queue: deque,
        budget_ms: Optional[float] = None,
    ) -> None:
        if reason == "timeout":
            if len(unit.items) == 1:
                # The culprit is isolated: answer it as a typed timeout (no
                # retry — the wall clock already ran once, in full).
                item = unit.items[0]
                telemetry.record_escalation(
                    item.trace, "timeout", reason, request_id=item.request_id
                )
                results[item.index] = self._timeout_line(item, budget_ms)
                return
            # Re-run each request alone so only the slow one pays.
            split_attempts = unit.attempts_left
        else:
            unit.attempts_left -= 1
            if unit.attempts_left > 0:
                self.metrics.inc("supervisor.retries")
                for item in unit.items:
                    telemetry.record_escalation(
                        item.trace, "retry", reason, request_id=item.request_id, unit_size=len(unit.items)
                    )
                queue.appendleft(unit)
                return
            if len(unit.items) == 1:
                item = unit.items[0]
                self.metrics.inc("supervisor.quarantined")
                telemetry.record_escalation(item.trace, "quarantine", reason, request_id=item.request_id)
                results[item.index] = dump_result_line(
                    QueryResult(
                        kind=item.kind,
                        ok=False,
                        id=item.request_id,
                        error={
                            "type": "WorkerCrashed",
                            "message": (
                                f"request repeatedly crashed its shard worker ({reason}) "
                                "and was quarantined"
                            ),
                        },
                    )
                )
                return
            # The unit killed a worker twice: isolate the culprit by retrying
            # every request as its own singleton (one attempt each).
            split_attempts = 1
        self.metrics.inc("supervisor.splits")
        for item in unit.items:
            telemetry.record_escalation(
                item.trace, "split", reason, request_id=item.request_id, unit_size=len(unit.items)
            )
        for item in reversed(unit.items):
            queue.appendleft(WorkUnit(items=(item,), attempts_left=split_attempts))

    def _timeout_line(self, item: WorkItem, budget_ms: float) -> str:
        """The typed ``Timeout`` answer of a hard-killed singleton (only a
        deadline-carrying unit has a wall clock to blow)."""
        message = (
            f"deadline of {item.deadline_ms} ms exceeded; the shard worker was "
            f"hard-killed after {budget_ms:g} ms wall clock"
        )
        return dump_result_line(
            QueryResult(
                kind=item.kind,
                ok=False,
                id=item.request_id,
                error={"type": "Timeout", "message": message},
            )
        )
