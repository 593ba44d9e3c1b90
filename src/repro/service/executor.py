"""The multiprocess shard executor: fan a request stream out across workers.

Python's decision kernels are CPU-bound and single-threaded, so horizontal
scale means processes.  :class:`ShardExecutor` partitions a stream across
``shards`` supervised worker processes behind the in-process
:class:`~repro.service.session.Session`'s stream contract,
:meth:`ShardExecutor.execute_many` (decoded requests in, results out in
input order):

* **Transport is the wire format** — requests cross the process boundary as
  canonical JSONL strings and results come back the same way, so the worker
  boundary exercises exactly the codecs a networked deployment would (and
  the hash-consed AST re-interns per process via the parser, never by
  pickling live objects).
* **Per-worker session warm-up** — each worker builds one
  :class:`~repro.service.session.Session` over the executor's base Γ (or
  restores the configured snapshot), then answers its units through the
  batch planner.  Workers therefore amortize exactly like the in-process
  service; the executor adds parallelism on top.
* **One result cache, in the parent** — the parent holds one
  :class:`~repro.service.result_cache.ResultCache` (the class every session
  uses too), the shared tier.  It answers repeats before any unit is formed,
  and every worker's computed results are published back into it, so any
  shard's work warms the cache for every later caller.  It is the sharded
  backend's only cache: the parent sees every request, so a repeat never
  reaches a worker, and the workers' sessions keep none.  A configured
  snapshot's result entries seed it at construction; with no Γ write path,
  its stamps are the snapshot's generations, so a stale entry never answers.
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
  restarted (warm, when a snapshot is configured), its unit retried, split
  and at worst quarantined to a single typed ``WorkerCrashed`` error line;
  budget-carrying units get a hard wall-clock kill surfacing as typed
  ``Timeout`` results.  The pool counts every supervision event into the
  executor's :attr:`~ShardExecutor.metrics` registry, which the server's
  health endpoint and circuit breaker read and which outlives the pool.
* **Deterministic ordering** — every result is reassembled at the request's
  original stream position, so a fault-free run is byte-identical to the
  single-process planner run on the same stream, regardless of worker
  scheduling (``tests/test_service_executor.py`` asserts this).

The default start method is ``fork`` where available (cheap warm-up —
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
from collections.abc import Iterable, Sequence
from typing import Optional

from repro.dependencies.pd import PartitionDependencyLike, as_partition_dependency
from repro.errors import ServiceError
from repro.service.planner import plan
from repro.service.result_cache import ResultCache, cache_stamp
from repro.service.supervisor import SupervisedPool, WorkItem, WorkUnit
from repro.service.telemetry import MetricsRegistry
from repro.service.wire import (
    QueryRequest,
    QueryResult,
    dump_request_line,
    encode_pd,
    load_result_line,
    request_cache_key,
)


class ShardExecutor:
    """Execute request streams across a supervised pool of warm worker processes.

    ``metrics`` is the registry the pool counts into (a fresh one when
    omitted; a server passes its own).
    """

    def __init__(
        self,
        shards: int = 2,
        dependencies: Iterable[PartitionDependencyLike] = (),
        start_method: Optional[str] = None,
        snapshot: Optional[str] = None,
        fault_plan: Optional[str] = None,
        result_cache_size: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if shards < 1:
            raise ServiceError(f"shard count must be positive, got {shards}")
        self.shards = shards
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._dependencies = [as_partition_dependency(pd) for pd in dependencies]
        warm_results: list = []
        generations: dict[Optional[str], int] = {}  # fixed at boot: no Γ write path
        if snapshot is not None:
            # Validate once in the parent — a corrupt or mismatched snapshot
            # should fail loudly at construction, not inside every worker.
            from repro.service.snapshot import decode_snapshot, snapshot_results
            from repro.service.wire import decode_pd

            payload = decode_snapshot(snapshot)
            if self._dependencies:
                encoded = [encode_pd(pd) for pd in self._dependencies]
                if encoded != list(payload["dependencies"]):
                    raise ServiceError(
                        "snapshot Γ mismatch: the snapshot captures "
                        f"{payload['dependencies']!r} but the executor was "
                        f"configured with {encoded!r}"
                    )
            else:
                self._dependencies = [decode_pd(text) for text in payload["dependencies"]]
            warm_results = snapshot_results(payload)
            tenants = [(None, payload), *payload["tenants"]]  # the top level is the default tenant
            generations = {name: state["generation"] for name, state in tenants}
        self._generation_of = lambda tenant: generations.get(tenant, 0)
        # The shared result tier (off with result_cache_size=0: a sharded
        # backend then caches nothing).
        self._shared_cache = ResultCache(result_cache_size, warm_results)
        self._snapshot = snapshot
        self._fault_plan = fault_plan
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._start_method = start_method
        self._pool: Optional[SupervisedPool] = None

    # -- lifecycle -------------------------------------------------------------

    def _ensure_pool(self) -> SupervisedPool:
        if self._pool is None:
            self._pool = SupervisedPool(
                workers=self.shards,
                encoded_dependencies=[encode_pd(pd) for pd in self._dependencies],
                snapshot=self._snapshot,
                start_method=self._start_method,
                fault_plan_json=self._fault_plan,
                metrics=self.metrics,
            )
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

    def shared_cache_info(self) -> dict:
        """The shared result tier's counters."""
        return self._shared_cache.info()

    # -- sharding --------------------------------------------------------------

    def _work_units(self, requests: Sequence[QueryRequest], misses: set[int]) -> list[list[int]]:
        """Batch-aligned work units over the shared tier's misses.

        The whole stream is planned, then each batch keeps only its misses.
        Implication/equivalence, consistency and FD-implication groups split
        into at most ``shards`` slices (one warm Γ context — overlays on its
        index, one normalization, one translated engine — per slice); the
        per-request kinds (CAD, quotient, counterexample) and every
        deadline-carrying batch split all the way down — a budgeted request
        must be its own unit so a hard kill takes nobody else with it.
        """
        units: list[list[int]] = []
        for batch in plan(requests):
            indices = [i for i in batch.indices if i in misses]
            if batch.deadline:
                step = 1
            elif batch.kind in ("implies", "equivalent", "consistent", "fd_implies") and (
                batch.method != "cad"
            ):
                step = max(1, -(-len(indices) // self.shards))
            else:
                step = 1
            for start in range(0, len(indices), step):
                units.append(indices[start : start + step])
        return units

    # -- execution -------------------------------------------------------------

    def execute_many(self, requests: Sequence[QueryRequest]) -> list[QueryResult]:
        """Answer a decoded request stream; results come back in input order.

        The same stream contract as :meth:`Session.execute_many
        <repro.service.session.Session.execute_many>`, so callers pick a
        backend without changing how they call it.  Shared-cache hits are
        answered parent-side; every miss is encoded once to cross the process
        boundary, and every worker reply line is decoded once on the way back.
        """
        out: list[Optional[QueryResult]] = [None] * len(requests)
        # Shared-tier probe: answer hits parent-side, before any unit is
        # formed — a hit never crosses a process boundary at all.
        keys: dict[int, str] = {}
        if self._shared_cache.enabled:
            for i, request in enumerate(requests):
                keys[i] = request_cache_key(request)
                stamp = cache_stamp(request, self._generation_of)
                out[i] = self._shared_cache.lookup(keys[i], request.id, request.tenant, stamp)
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
        if self._shared_cache.enabled:
            self._publish(requests, keys, out, misses)
        missing = [i for i, result in enumerate(out) if result is None]
        if missing:  # pragma: no cover - reassembly invariant
            raise ServiceError(f"shard executor lost results for requests {missing[:5]}")
        return out  # type: ignore[return-value]

    def _publish(
        self,
        requests: Sequence[QueryRequest],
        keys: dict[int, str],
        out: list[Optional[QueryResult]],
        misses: list[int],
    ) -> None:
        """Publish computed miss results into the shared tier on reassembly.

        Any shard's computation warms the cache for every future caller.
        Error results (timeouts, quarantines, kernel failures) are never
        published.
        """
        for i in misses:
            self._shared_cache.store(keys[i], out[i], cache_stamp(requests[i], self._generation_of))
