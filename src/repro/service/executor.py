"""The multiprocess shard executor: fan a request stream out across workers.

Python's decision kernels are CPU-bound and single-threaded, so horizontal
scale means processes.  :class:`ShardExecutor` partitions a stream across
``shards`` supervised worker processes behind the in-process
:class:`~repro.service.session.Session`'s stream contract,
:meth:`ShardExecutor.execute_many` (decoded requests in, results out in
input order):

* **One parent-side session** — the executor's only state is a
  :class:`~repro.service.session.Session` (:attr:`ShardExecutor.session`):
  its tenant keyspace is the Γs the workers answer against, and its result
  cache is the sharded backend's only cache, the *shared tier*.  The parent
  sees every request, so it probes that cache (``cache_lookup``) before any
  unit is formed and fills it (``cache_store``) from every worker's reply;
  any shard's work warms the cache for every later caller, and the workers'
  sessions keep none.  Snapshots, restores and Γ-mismatch checks are the
  session's own (:meth:`ServiceConfig.make_session
  <repro.service.config.ServiceConfig.make_session>`), so the sharded
  backend saves and restores exactly like the in-process one.
* **Transport is the wire format** — requests cross the process boundary as
  canonical JSONL strings and results come back the same way, so the worker
  boundary exercises exactly the codecs a networked deployment would (and
  the hash-consed AST re-interns per process via the parser, never by
  pickling live objects).
* **One worker boot path** — when the pool starts, the parent session is
  encoded once as a snapshot payload (:func:`~repro.service.snapshot.encode_snapshot`)
  and every worker restores a cache-less session from that dict, rebuilding
  each Γ's index; the payload is the parent's own, so no worker re-parses
  snapshot text or re-checks its digest.  Each worker then answers its units
  through the batch planner.  Workers therefore amortize exactly like the
  in-process service; the executor adds parallelism on top.  Workers keep
  the Γs they booted with, so a Γ write to :attr:`~ShardExecutor.session`
  restarts the pool before the next stream.
* **Plan-aware units** — the parent plans the stream first
  (:func:`repro.service.planner.plan`) and deals the shared tier's misses
  as *batch-aligned work units* instead of raw requests round-robin.
  Amortization lives in the batches (one Γ closure per implication group,
  one normalization per consistency group); a round-robin deal would
  scatter every batch over every worker and re-pay each group's setup
  ``shards`` times — measured, it made 4 shards *slower* than one process.
  Units are dealt from one queue, largest first, to whichever worker is
  idle.
* **Supervision, not hope** — the unit loop lives in
  :class:`~repro.service.supervisor.SupervisedPool`: a crashed worker is
  restarted from the same snapshot payload, its unit retried, split
  and at worst quarantined to a single typed ``WorkerCrashed`` error line;
  budget-carrying units get a hard wall-clock kill surfacing as typed
  ``Timeout`` results.  The pool counts every supervision event into the
  executor's :attr:`~ShardExecutor.metrics` registry, which the server's
  health endpoint and circuit breaker read and which outlives the pool.
* **Deterministic ordering** — every result is reassembled at the request's
  original stream position, so a fault-free run is byte-identical to the
  single-process planner run on the same stream, regardless of worker
  scheduling (``tests/test_service_executor.py`` asserts this).

The default start method is ``fork`` where available (cheap start-up —
children inherit the parent's interned AST; safe since PR 5's
``os.register_at_fork`` hooks rebuild the weak intern tables and drop the
Whitman memo in the child) with ``spawn`` as the portable fallback.  The
pool is created lazily and kept alive across :meth:`execute_many` calls so
benchmark loops measure steady-state throughput; use the executor as a
context manager (or call :meth:`close`, which shuts workers down
*gracefully* — in-flight units finish, terminate is the fallback).
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Sequence
from typing import Optional

from repro.errors import ServiceError
from repro.service.planner import plan
from repro.service.session import Session
from repro.service.snapshot import encode_snapshot
from repro.service.supervisor import SupervisedPool, WorkItem, WorkUnit
from repro.service.telemetry import MetricsRegistry
from repro.service.wire import (
    QueryRequest,
    QueryResult,
    dump_request_line,
    load_result_line,
    request_cache_key,
)


class ShardExecutor:
    """Execute request streams across a supervised pool of worker processes.

    ``session`` is the parent-side session the executor shards (a fresh
    ``Session()`` when omitted): its Γs boot the workers and its result
    cache is the shared tier.  ``metrics`` is the registry the pool counts
    into (a fresh one when omitted; a server passes its own).
    """

    def __init__(
        self,
        shards: int = 2,
        session: Optional[Session] = None,
        start_method: Optional[str] = None,
        fault_plan: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if shards < 1:
            raise ServiceError(f"shard count must be positive, got {shards}")
        self.shards = shards
        self.session = Session() if session is None else session
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._fault_plan = fault_plan
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._start_method = start_method
        self._pool: Optional[SupervisedPool] = None
        self._booted_keyspace: dict = {}

    # -- lifecycle -------------------------------------------------------------

    def _keyspace(self) -> dict:
        """Each tenant's Γ generation in :attr:`session` (a Γ write bumps one)."""
        session = self.session
        return {tenant: session.generation_for(tenant) for tenant in session.tenant_names()}

    def _ensure_pool(self) -> SupervisedPool:
        """The worker pool, booted from the session's snapshot payload.

        Workers answer against the Γs they booted with, so a pool whose
        session has had a Γ write since is closed and booted again.
        """
        keyspace = self._keyspace()
        if self._pool is not None and keyspace != self._booted_keyspace:
            self.close()
        if self._pool is None:
            self._pool = SupervisedPool(
                workers=self.shards,
                snapshot=encode_snapshot(self.session),
                start_method=self._start_method,
                fault_plan_json=self._fault_plan,
                metrics=self.metrics,
            )
            self._booted_keyspace = keyspace
        return self._pool

    def close(self, timeout: float = 5.0) -> None:
        """Gracefully shut the workers down (a later :meth:`execute_many` re-creates them).

        Workers finish whatever unit they hold and exit on the shutdown
        sentinel; only a worker that outlives ``timeout`` is terminated.
        """
        if self._pool is not None:
            self._pool.close(timeout=timeout)
            self._pool = None

    def __enter__(self) -> "ShardExecutor":
        self._ensure_pool()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- sharding --------------------------------------------------------------

    def _work_units(self, requests: Sequence[QueryRequest], misses: set[int]) -> list[list[int]]:
        """Batch-aligned work units over the shared tier's misses.

        The whole stream is planned, then each batch keeps only its misses.
        An :attr:`~repro.service.planner.Batch.amortized` batch splits into
        at most ``shards`` slices (one warm context per slice); every other
        batch splits all the way down — a budgeted request must be its own
        unit so a hard kill takes nobody else with it.
        """
        units: list[list[int]] = []
        for batch in plan(requests):
            indices = [i for i in batch.indices if i in misses]
            step = max(1, -(-len(indices) // self.shards)) if batch.amortized else 1
            for start in range(0, len(indices), step):
                units.append(indices[start : start + step])
        return units

    # -- execution -------------------------------------------------------------

    def execute_many(self, requests: Sequence[QueryRequest]) -> list[QueryResult]:
        """Answer a decoded request stream; results come back in input order.

        The same stream contract as :meth:`Session.execute_many
        <repro.service.session.Session.execute_many>`, so callers pick a
        backend without changing how they call it.  Hits in the session's
        cache are answered parent-side; every miss is encoded once to cross
        the process boundary, and every worker reply line is decoded once on
        the way back.
        """
        session = self.session
        # Shared-tier probe: answer hits parent-side, before any unit is
        # formed — a hit never crosses a process boundary at all.
        keys = [request_cache_key(request) for request in requests]
        out: list[Optional[QueryResult]] = [
            session.cache_lookup(request, key=key) for request, key in zip(requests, keys)
        ]
        misses = [i for i, result in enumerate(out) if result is None]
        units = [
            WorkUnit(
                items=tuple(
                    WorkItem(
                        index=i,
                        line=dump_request_line(requests[i]),
                        request_id=requests[i].id,
                        kind=requests[i].kind,
                        deadline_ms=requests[i].deadline_ms,
                        trace=requests[i].trace,
                    )
                    for i in unit_indices
                ),
            )
            for unit_indices in self._work_units(requests, set(misses))
        ]
        if units:
            for index, line in self._ensure_pool().run_units(units).items():
                out[index] = load_result_line(line)
        # Publish every computed miss into the shared tier, so any shard's
        # work answers every later caller (error results are never cached).
        for i in misses:
            session.cache_store(requests[i], out[i], key=keys[i])
        missing = [i for i, result in enumerate(out) if result is None]
        if missing:  # pragma: no cover - reassembly invariant
            raise ServiceError(f"shard executor lost results for requests {missing[:5]}")
        return out  # type: ignore[return-value]
