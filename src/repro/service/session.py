"""Stateful query sessions: a tenant keyspace of implication indexes and caches.

A :class:`Session` is the in-process front door of the query service.  It
is **multi-tenant**: requests carry an optional ``tenant`` field, and the
session keeps one :class:`DependencyContext` per tenant — the tenant's own
PD set Γ, its generation counter, and the lazily built per-Γ artifacts.
Requests without a tenant run under the *default* tenant, the session's own
Γ.  Per tenant the session owns:

* one persistent :class:`~repro.implication.index.ImplicationIndex` (wrapped
  in an :class:`~repro.implication.alg.ImplicationEngine`), shared by every
  ALG read of that tenant — each read answers inside one
  :meth:`~repro.implication.index.ImplicationIndex.overlay`, so only Γ
  writes (and the normalization below) grow the index;
* the Theorem 12 **normalization cache**: the
  :class:`~repro.consistency.normalization.NormalizedDependencies` artifacts
  and the preprocessed :class:`~repro.relational.chase_engine.ChaseEngine`
  are built once per Γ generation and reused by every weak-instance
  consistency query (the normalization's closure step reads that same
  index);
* a slice of the session's result cache, one
  :class:`~repro.service.result_cache.ResultCache` (the class every cache
  tier uses) keyed on the canonical wire bytes of each request
  (:func:`repro.service.wire.request_cache_key`, which embeds the tenant —
  tenants can never share or poison each other's slots).  Entries answered
  against the tenant's Γ carry its generation, which :meth:`add_dependencies`
  bumps without touching an entry: the stale ones miss and age out, and
  every other entry stays live.

Hash-consed expression ASTs remain **shared globally across tenants** (the
intern table is process-wide), so a million tenants asking about the same
subexpressions pay for them once.  Requests carrying an explicit
``dependencies`` field are served from a bounded LRU of per-Γ contexts
(engine + normalization artifacts per foreign dependency set) that is
likewise shared across tenants — the context is a pure function of the
dependency set; only the *result cache slot* is tenant-scoped.  The context
LRU holds :data:`FOREIGN_CONTEXT_LIMIT` contexts and keeps hit/miss/eviction
counters (:meth:`Session.cache_info`).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from typing import Optional

from repro import profiling
from repro.consistency.cad import cad_consistency_for_fpds
from repro.consistency.normalization import NormalizedDependencies, normalize_dependencies
from repro.consistency.pd_consistency import pd_consistency
from repro.deadline import deadline_scope
from repro.dependencies.pd import PartitionDependency, PartitionDependencyLike, as_partition_dependency
from repro.errors import DeadlineExceeded, ServiceError
from repro.expressions.printer import to_infix
from repro.implication.alg import ImplicationEngine
from repro.implication.fd_implication import fd_implies_via_pds
from repro.lattice.quotient import finite_counterexample, quotient_fragment
from repro.relational.chase_engine import ChaseEngine
from repro.service.result_cache import Entry, ResultCache, cache_stamp
from repro.service.wire import (
    QueryRequest,
    QueryResult,
    dependencies_key,
    request_cache_key,
    validate_request,
)

#: Per-Γ contexts the foreign-dependency LRU keeps (requests carrying their
#: own ``dependencies``); the least recently used one is evicted beyond it.
FOREIGN_CONTEXT_LIMIT = 16

_FAULTS = None


def _faults():
    """The fault-injection module, imported lazily (hot path stays import-free)."""
    global _FAULTS
    if _FAULTS is None:
        from repro.service import faults

        _FAULTS = faults
    return _FAULTS


_TELEMETRY = None


def _telemetry():
    """The telemetry module, imported lazily (same discipline as :func:`_faults`)."""
    global _TELEMETRY
    if _TELEMETRY is None:
        from repro.service import telemetry

        _TELEMETRY = telemetry
    return _TELEMETRY


class DependencyContext:
    """Per-Γ artifacts, built lazily and shared by every query over that Γ.

    ``engine`` is the incremental ALG engine (the shared implication index,
    which reads use only inside overlays);
    ``normalized``/``chase_engine`` are the Theorem 12 step-1 artifacts.
    Each is constructed on first use and cached until :meth:`extend`, which
    resumes the engine's closure delta-wise and drops only the chase-side
    artifacts.  Normalization reads Γ's composite classes and its closure
    step off ``engine``, so building ``normalized`` forces the engine, and
    re-normalizing after a write costs one row read per distinct
    subexpression of Γ on the resumed index plus the FD emission.  Every
    artifact is a function of Γ, so a snapshot stores only Γ and
    ``generation`` (the count of writes that changed Γ, every cached answer's
    stamp), and a restored context re-derives each artifact on first use.
    """

    __slots__ = ("_dependencies", "_engine", "_normalized", "_chase_engine", "generation")

    def __init__(self, dependencies: Sequence[PartitionDependency], generation: int = 0) -> None:
        self._dependencies: tuple[PartitionDependency, ...] = tuple(dependencies)
        self.generation = generation
        self._engine: Optional[ImplicationEngine] = None
        self._normalized: Optional[NormalizedDependencies] = None
        self._chase_engine: Optional[ChaseEngine] = None

    @property
    def dependencies(self) -> tuple[PartitionDependency, ...]:
        return self._dependencies

    @property
    def engine(self) -> ImplicationEngine:
        if self._engine is None:
            self._engine = ImplicationEngine(self._dependencies)
        return self._engine

    @property
    def normalized(self) -> NormalizedDependencies:
        if self._normalized is None:
            self._normalized = normalize_dependencies(list(self._dependencies), engine=self.engine)
        return self._normalized

    @property
    def chase_engine(self) -> ChaseEngine:
        if self._chase_engine is None:
            self._chase_engine = ChaseEngine(self.normalized.coded_fds)
        return self._chase_engine

    def extend(self, dependencies: Sequence[PartitionDependency]) -> None:
        """Grow Γ in place; the ALG engine resumes, the chase artifacts rebuild.

        Γ is read back from the engine, also when a deadline stops its growth
        part-way, so Γ is always the PD set the index has committed; a write
        that changed Γ, stopped or not, bumps ``generation``.
        """
        self._normalized = None
        self._chase_engine = None
        before = len(self._dependencies)
        try:
            if self._engine is None:
                self._dependencies += tuple(dependencies)
            else:
                self._engine.add_dependencies(dependencies)
        finally:
            if self._engine is not None:
                self._dependencies = tuple(self._engine.dependencies)
            if len(self._dependencies) != before:
                self.generation += 1


class Session:
    """The stateful ``QueryRequest → QueryResult`` surface over a tenant keyspace."""

    def __init__(
        self,
        dependencies: Iterable[PartitionDependencyLike] = (),
        result_cache_size: int = 1024,
    ) -> None:
        base = tuple(as_partition_dependency(pd) for pd in dependencies)
        context = DependencyContext(base)
        context.engine  # noqa: B018 - property access builds the default tenant's index
        # tenant key (None = default) -> its Γ context; the default tenant
        # always exists, others are created on first use.
        self._tenants: "OrderedDict[Optional[str], DependencyContext]" = OrderedDict()
        self._tenants[None] = context
        self._results = ResultCache(result_cache_size)
        self._foreign: "OrderedDict[tuple[str, ...], DependencyContext]" = OrderedDict()
        self._context_hits = 0
        self._context_misses = 0
        self._context_evictions = 0

    # -- durable snapshots -----------------------------------------------------

    def export_snapshot(self) -> str:
        """This session's warm Γ state as one canonical snapshot document.

        See :mod:`repro.service.snapshot` for the format.  The export never
        computes anything new — it captures each tenant's Γ and generation
        and the result cache as they stand — so it is cheap enough to run on
        a live server's worker thread between micro-batch windows.
        """
        from repro.service.snapshot import dump_snapshot

        return dump_snapshot(self)

    @classmethod
    def restore(
        cls,
        snapshot,
        result_cache_size: int = 1024,
        expected_generation: Optional[int] = None,
        expected_dependencies=None,
    ) -> "Session":
        """A session rebuilt from :meth:`export_snapshot` output.

        Γ and results re-enter through the wire codecs (and hence the
        hash-consed AST).  Each tenant's index is re-derived from its Γ as
        in :meth:`__init__` (the default tenant's at once, a named tenant's
        on its first read), so the restored session answers
        byte-identically to the one it was captured from, and the shipped
        result cache answers its captured requests without kernel work.
        ``expected_generation`` /
        ``expected_dependencies`` refuse stale or mismatched snapshots with a
        :class:`~repro.errors.ServiceError`.
        """
        from repro.service.snapshot import restore_session

        return restore_session(
            snapshot,
            result_cache_size=result_cache_size,
            expected_generation=expected_generation,
            expected_dependencies=expected_dependencies,
        )

    def _snapshot_state(self) -> dict:
        """The raw material the snapshot codec serializes (internal).

        ``generation``/``dependencies`` describe the *default* tenant (which
        is what pre-tenancy snapshot consumers — the executor's warm-boot
        check, the CLI staleness guard — care about); ``tenants`` carries
        every named tenant's ``(name, Γ, generation)``.
        """
        default = self._tenants[None]
        return {
            "generation": default.generation,
            "dependencies": default.dependencies,
            "tenants": [
                (name, context.dependencies, context.generation)
                for name, context in self._tenants.items()
                if name is not None
            ],
            "results": self._results.entries(),
        }

    @classmethod
    def _from_restored(
        cls,
        dependencies: Sequence[PartitionDependency],
        generation: int,
        results: Sequence[tuple[str, Entry]],
        result_cache_size: int,
        tenants: Sequence[tuple[str, Sequence[PartitionDependency], int]] = (),
    ) -> "Session":
        """A session over restored Γs, generations and cache entries (codec-only).

        The default tenant is built and warmed by :meth:`__init__`; named
        tenants get lazy contexts, as :meth:`_tenant_state` creates them.
        Hit/miss counters start at zero — they are per-process diagnostics,
        not Γ state — and cache entries beyond the configured capacity are
        dropped from the cold (least recent) end.
        """
        session = cls(dependencies, result_cache_size=0)
        session._tenants[None].generation = generation
        for name, tenant_dependencies, tenant_generation in tenants:
            session._tenants[name] = DependencyContext(tenant_dependencies, tenant_generation)
        session._results = ResultCache(result_cache_size, results)
        return session

    # -- Γ management ----------------------------------------------------------

    def _tenant_state(self, tenant: Optional[str]) -> DependencyContext:
        """The tenant's Γ context, created on first use (empty Γ)."""
        context = self._tenants.get(tenant)
        if context is None:
            context = self._tenants[tenant] = DependencyContext(())
        return context

    @property
    def dependencies(self) -> list[PartitionDependency]:
        """The default tenant's base PD set Γ."""
        return list(self._tenants[None].dependencies)

    @property
    def generation(self) -> int:
        """The default tenant's generation (bumped per :meth:`add_dependencies`)."""
        return self._tenants[None].generation

    def dependencies_for(self, tenant: Optional[str]) -> list[PartitionDependency]:
        """A tenant's base PD set Γ (empty for tenants never seen)."""
        context = self._tenants.get(tenant)
        return list(context.dependencies) if context is not None else []

    def generation_for(self, tenant: Optional[str]) -> int:
        """A tenant's Γ generation, its cache stamp (0 for tenants never seen)."""
        context = self._tenants.get(tenant)
        return context.generation if context is not None else 0

    def tenant_names(self) -> list[Optional[str]]:
        """Every tenant key with a keyspace entry (``None`` = default, first)."""
        return list(self._tenants)

    def add_dependencies(
        self,
        dependencies: Iterable[PartitionDependencyLike],
        tenant: Optional[str] = None,
    ) -> None:
        """Grow one tenant's Γ, which bumps its generation when Γ changed.

        No cache entry is touched: the entries answered against the old Γ
        carry the old generation, so they miss from now on.  Every other
        tenant's entries — and entries for requests that carried their own
        explicit dependency set — stay live.
        """
        added = [as_partition_dependency(pd) for pd in dependencies]
        if added:
            self._tenant_state(tenant).extend(added)

    def context_for(self, request: QueryRequest) -> DependencyContext:
        """The dependency context a request runs against (tenant Γ or its own).

        Requests without an explicit ``dependencies`` field run against their
        tenant's base Γ (the tenant's context is created on demand — tenant
        contexts are cheap and never evicted).  Requests *with* explicit
        dependencies share a bounded LRU of per-Γ contexts across tenants.
        """
        if request.dependencies is None:
            return self._tenant_state(request.tenant)
        key = dependencies_key(request.dependencies)
        context = self._foreign.get(key)
        if context is not None:
            self._foreign.move_to_end(key)
            self._context_hits += 1
            return context
        self._context_misses += 1
        context = DependencyContext(request.dependencies)
        self._foreign[key] = context
        while len(self._foreign) > FOREIGN_CONTEXT_LIMIT:
            self._foreign.popitem(last=False)
            self._context_evictions += 1
        return context

    # -- the query surface -----------------------------------------------------

    def execute(self, request: QueryRequest, use_cache: bool = True) -> QueryResult:
        """Answer one request (uniformly, whatever its kind).

        Failures of the decision procedures are captured as ``ok=False``
        results — a service must answer every line of its stream — but a
        *malformed request* (unknown kind, missing fields) raises
        :class:`~repro.errors.ServiceError` so programming errors stay loud.
        Error results are never cached.
        """
        validate_request(request)
        key = None
        if use_cache and self._results.enabled:
            key = request_cache_key(request)
            cached = self.cache_lookup(request, key=key)
            if cached is not None:
                return cached
        result = self._evaluate(request)
        if key is not None:
            self.cache_store(request, result, key=key)
        return result

    def cache_lookup(self, request: QueryRequest, key: Optional[str] = None) -> Optional[QueryResult]:
        """The cached result for a request (re-stamped with its id), or ``None``.

        Exposed for the batch planner, which probes the cache up front so
        that only genuinely uncached requests enter the grouped dispatch.
        Callers holding the canonical key already (the planner, or
        :meth:`execute` itself) pass it to skip re-encoding the request —
        the encode is the expensive part for database-carrying requests.
        """
        if not self._results.enabled:
            return None
        if key is None:
            key = request_cache_key(request)
        return self._results.lookup(
            key, request.id, request.tenant, cache_stamp(request, self.generation_for)
        )

    def cache_store(
        self, request: QueryRequest, result: QueryResult, key: Optional[str] = None
    ) -> None:
        """Insert a computed result (error results are never cached)."""
        if not self._results.enabled or not result.ok:
            return
        if key is None:
            key = request_cache_key(request)
        self._results.store(key, result, cache_stamp(request, self.generation_for))

    def execute_many(self, requests: Sequence[QueryRequest], batch: bool = True) -> list[QueryResult]:
        """Answer a request stream; with ``batch=True`` the planner groups it first."""
        if batch:
            from repro.service.planner import execute_plan

            return execute_plan(self, requests)
        return [self.execute(request) for request in requests]

    # -- the typed convenience surface -----------------------------------------
    #
    # Thin factories over the uniform execute(): each builds the canonical
    # QueryRequest (repro.service.api), runs it through the same caches and
    # dispatch as any wire request, and returns a typed answer — failures
    # raise QueryFailedError instead of coming back as ok=false results.

    def implies(self, query, rhs=None, *, dependencies=None, deadline_ms=None, tenant=None):
        """Does Γ imply the PD (``implies(pd)`` or ``implies(lhs, rhs)``)?"""
        from repro.service import api

        request = api.implies_request(
            query, rhs, dependencies=dependencies, deadline_ms=deadline_ms, tenant=tenant
        )
        return api.answer_for(self.execute(request))

    def equivalent(self, left, right, *, dependencies=None, deadline_ms=None, tenant=None):
        """Are two expressions Γ-equivalent?"""
        from repro.service import api

        request = api.equivalent_request(
            left, right, dependencies=dependencies, deadline_ms=deadline_ms, tenant=tenant
        )
        return api.answer_for(self.execute(request))

    def consistent(
        self,
        database,
        *,
        method="weak_instance",
        dependencies=None,
        max_nodes=None,
        deadline_ms=None,
        tenant=None,
    ):
        """Is a database consistent with Γ (Theorem 12 weak-instance or Theorem 11 CAD)?"""
        from repro.service import api

        request = api.consistent_request(
            database,
            method=method,
            dependencies=dependencies,
            max_nodes=max_nodes,
            deadline_ms=deadline_ms,
            tenant=tenant,
        )
        return api.answer_for(self.execute(request))

    def quotient(self, expressions, *, dependencies=None, deadline_ms=None, tenant=None):
        """The Γ-congruence classes and order of an expression pool."""
        from repro.service import api

        request = api.quotient_request(
            expressions, dependencies=dependencies, deadline_ms=deadline_ms, tenant=tenant
        )
        return api.answer_for(self.execute(request))

    def counterexample(
        self, query, *, max_pool=400, dependencies=None, deadline_ms=None, tenant=None
    ):
        """A finite lattice refuting Γ ⊨ query, or the verdict that none exists."""
        from repro.service import api

        request = api.counterexample_request(
            query,
            max_pool=max_pool,
            dependencies=dependencies,
            deadline_ms=deadline_ms,
            tenant=tenant,
        )
        return api.answer_for(self.execute(request))

    def cache_info(self) -> dict:
        """Result-cache, tenant, and context diagnostics.

        The result cache's :meth:`~repro.service.result_cache.ResultCache.info`
        (``hits``/``misses``/``stores``/``evictions``/``size``/``maxsize`` and
        ``per_tenant`` traffic sorted by tenant label; ``size`` counts stale
        entries until a lookup or an eviction drops them) plus ``generation``
        (the default tenant's), ``foreign_contexts``, ``tenants`` (keyspace
        entries) and ``contexts``, the foreign-context LRU's counters.
        """
        return {
            **self._results.info(),
            "generation": self._tenants[None].generation,
            "foreign_contexts": len(self._foreign),
            "tenants": len(self._tenants),
            "contexts": {
                "hits": self._context_hits,
                "misses": self._context_misses,
                "evictions": self._context_evictions,
                "size": len(self._foreign),
                "maxsize": FOREIGN_CONTEXT_LIMIT,
            },
        }

    # -- evaluation ------------------------------------------------------------

    def _evaluate(self, request: QueryRequest) -> QueryResult:
        telemetry = _telemetry()
        if not telemetry.enabled() or request.trace is None:
            return self._evaluate_inner(request)
        start = time.perf_counter()
        result = None
        with profiling.profile() as prof:
            try:
                result = self._evaluate_inner(request)
            finally:
                # An enclosing budget (window) may expire mid-evaluate: the
                # span is recorded, without an outcome, before its owner
                # sees the exception.
                telemetry.record_evaluate(request, result, start, prof)
        return result

    def _evaluate_inner(self, request: QueryRequest) -> QueryResult:
        scope = None
        try:
            with deadline_scope(request.deadline_ms) as scope:
                _faults().on_request(request.id)
                value = self._value_for(request)
        except ServiceError:
            raise
        except DeadlineExceeded as exc:
            if scope is None or exc.scope is not scope:
                # An enclosing budget (e.g. the micro-batcher's window budget)
                # expired, not this request's — let its owner handle it.
                raise
            return QueryResult(
                kind=request.kind,
                ok=False,
                id=request.id,
                error={"type": "Timeout", "message": str(exc)},
            )
        except Exception as exc:  # a service answers every request
            return QueryResult(
                kind=request.kind,
                ok=False,
                id=request.id,
                error={"type": type(exc).__name__, "message": str(exc)},
            )
        return QueryResult(kind=request.kind, ok=True, id=request.id, value=value)

    def _value_for(self, request: QueryRequest) -> dict:
        kind = request.kind
        if kind == "fd_implies":
            return {"implied": fd_implies_via_pds(request.fds, request.target)}
        context = self.context_for(request)
        if kind == "consistent":
            return self._consistency_value(request, context)
        # Every ALG read answers on the context's one index, in an overlay that
        # forgets its vertices on any exit (Lemma 9.2: same verdicts as a fresh engine).
        engine = context.engine
        with engine.index.overlay():
            if kind == "implies":
                return {"implied": engine.implies(request.query)}
            if kind == "equivalent":
                return {"equivalent": engine.index.equivalent(request.left, request.right)}
            if kind == "quotient":
                fragment = quotient_fragment(context.dependencies, request.pool, engine=engine)
                return {
                    "classes": [to_infix(r) for r in fragment.representatives],
                    "order": sorted([i, j] for (i, j) in fragment.order),
                }
            if kind == "counterexample":
                lattice = finite_counterexample(
                    context.dependencies, request.query, max_pool=request.max_pool, engine=engine
                )
                if lattice is None:
                    return {"implied": True, "size": None, "constants": []}
                return {
                    "implied": False,
                    "size": len(lattice),
                    "constants": sorted(lattice.constants),
                }
        raise ServiceError(f"unknown request kind {kind!r}")  # unreachable after validate

    def _consistency_value(self, request: QueryRequest, context: DependencyContext) -> dict:
        if request.method == "weak_instance":
            outcome = pd_consistency(
                request.database,
                list(context.dependencies),
                engine=context.chase_engine,
                normalized=context.normalized,
            )
            witness_rows = len(outcome.weak_instance) if outcome.consistent else None
            return {
                "consistent": outcome.consistent,
                "method": "weak_instance",
                "witness_rows": witness_rows,
            }
        outcome = cad_consistency_for_fpds(
            request.database, list(context.dependencies), max_nodes=request.max_nodes
        )
        return {
            "consistent": outcome.consistent,
            "method": "cad",
            "search_nodes": outcome.search_nodes,
        }
