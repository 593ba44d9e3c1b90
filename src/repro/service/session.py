"""Stateful query sessions: a tenant keyspace of implication indexes and caches.

A :class:`Session` is the in-process front door of the query service.  It
is **multi-tenant**: requests carry an optional ``tenant`` field, and the
session keeps one :class:`TenantState` per tenant — the tenant's own PD set
Γ, generation counter, and lazily built per-Γ artifacts
(:class:`DependencyContext`).  Requests without a tenant run under the
*default* tenant, the session's own Γ.  Per tenant the
session owns:

* one persistent :class:`~repro.implication.index.ImplicationIndex` (wrapped
  in an :class:`~repro.implication.alg.ImplicationEngine`), shared by every
  implication, equivalence and quotient query of that tenant — each query
  only extends the incremental closure instead of recomputing it;
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
  tenants can never share or poison each other's slots).  Invalidation is
  *scoped to the growing tenant*: :meth:`add_dependencies` bumps that
  tenant's generation and evicts exactly the entries that were answered
  against that tenant's Γ — every other tenant's entries, and results for
  requests that carried their *own* dependency set, are unaffected.

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
from repro.service.result_cache import Entry, ResultCache, gamma_dependent
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

    ``engine`` is the incremental ALG engine (the shared implication index);
    ``normalized``/``chase_engine`` are the Theorem 12 step-1 artifacts.
    Each is constructed on first use and cached until :meth:`extend`, which
    resumes the engine's closure delta-wise and drops only the chase-side
    artifacts.  Normalization reads its closure step off ``engine``, so
    building ``normalized`` forces the engine, and re-normalizing after a
    write costs a binarization plus row reads on the resumed index.  The
    normalization is a function of Γ and the index, so a snapshot stores
    only the engine (:meth:`from_engine`); a restored context re-derives
    the chase-side artifacts on its first weak-instance read.
    """

    __slots__ = ("_dependencies", "_engine", "_normalized", "_chase_engine")

    def __init__(self, dependencies: Sequence[PartitionDependency]) -> None:
        self._dependencies: tuple[PartitionDependency, ...] = tuple(dependencies)
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

    def peek_engine(self) -> Optional[ImplicationEngine]:
        """The implication engine if already built, without forcing it.

        The snapshot codec exports non-default tenants lazily: a tenant that
        never ran an implication query snapshots ``index: null`` and stays
        lazy through the restore.
        """
        return self._engine

    def extend(self, dependencies: Sequence[PartitionDependency]) -> None:
        """Grow Γ in place; the ALG engine resumes, the chase artifacts rebuild."""
        self._dependencies = self._dependencies + tuple(dependencies)
        if self._engine is not None:
            self._engine.add_dependencies(dependencies)
        self._normalized = None
        self._chase_engine = None

    def warm_up(self) -> None:
        """Force the implication engine into existence (worker warm-up hook)."""
        self.engine  # noqa: B018 - property access builds the engine

    @classmethod
    def from_engine(
        cls, dependencies: Sequence[PartitionDependency], engine: ImplicationEngine
    ) -> "DependencyContext":
        """A context over a pre-built engine (the snapshot restore path)."""
        context = cls(dependencies)
        context._engine = engine
        return context


class TenantState:
    """One tenant's keyspace entry: its Γ context and cache-invalidation marker."""

    __slots__ = ("context", "generation")

    def __init__(self, context: DependencyContext, generation: int = 0) -> None:
        self.context = context
        self.generation = generation


class Session:
    """The stateful ``QueryRequest → QueryResult`` surface over a tenant keyspace."""

    def __init__(
        self,
        dependencies: Iterable[PartitionDependencyLike] = (),
        result_cache_size: int = 1024,
    ) -> None:
        base = tuple(as_partition_dependency(pd) for pd in dependencies)
        context = DependencyContext(base)
        context.warm_up()
        # tenant key (None = default) -> TenantState; the default tenant
        # always exists, others are created on first use.
        self._tenants: "OrderedDict[Optional[str], TenantState]" = OrderedDict()
        self._tenants[None] = TenantState(context)
        self._results = ResultCache(result_cache_size)
        self._foreign: "OrderedDict[tuple[str, ...], DependencyContext]" = OrderedDict()
        self._context_hits = 0
        self._context_misses = 0
        self._context_evictions = 0

    # -- durable snapshots -----------------------------------------------------

    def export_snapshot(self) -> str:
        """This session's warm Γ state as one canonical snapshot document.

        See :mod:`repro.service.snapshot` for the format.  The export never
        computes anything new — it captures Γ, the implication index
        fixpoint and the result cache as they stand — so it is cheap enough
        to run on a live server's worker thread between micro-batch windows.
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
        """A warm session rebuilt from :meth:`export_snapshot` output.

        Expressions and results re-enter through the wire codecs (and hence
        the hash-consed AST), so the restored session answers byte-identically
        to the warm one it was captured from.  ``expected_generation`` /
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

        ``generation``/``context`` describe the *default* tenant (which is
        what pre-tenancy snapshot consumers — the executor's warm-boot check,
        the CLI staleness guard — care about); ``tenants`` carries every
        named tenant's keyspace entry.
        """
        default = self._tenants[None]
        return {
            "generation": default.generation,
            "context": default.context,
            "tenants": [
                (name, state.context, state.generation)
                for name, state in self._tenants.items()
                if name is not None
            ],
            "results": self._results.entries(),
        }

    @classmethod
    def _from_restored(
        cls,
        base: DependencyContext,
        generation: int,
        results: Sequence[tuple[str, Entry]],
        result_cache_size: int,
        tenants: Sequence[tuple[str, DependencyContext, int]] = (),
    ) -> "Session":
        """Assemble a session around restored artifacts (internal; codec-only).

        Hit/miss counters restart at zero — they are per-process diagnostics,
        not Γ state — and cache entries beyond the configured capacity are
        dropped from the cold (least recent) end.
        """
        session = cls.__new__(cls)
        session._tenants = OrderedDict()
        session._tenants[None] = TenantState(base, generation)
        for name, context, tenant_generation in tenants:
            session._tenants[name] = TenantState(context, tenant_generation)
        session._results = ResultCache(result_cache_size, results)
        session._foreign = OrderedDict()
        session._context_hits = 0
        session._context_misses = 0
        session._context_evictions = 0
        return session

    # -- Γ management ----------------------------------------------------------

    def _tenant_state(self, tenant: Optional[str]) -> TenantState:
        """The tenant's keyspace entry, created on first use (empty Γ)."""
        state = self._tenants.get(tenant)
        if state is None:
            state = TenantState(DependencyContext(()))
            self._tenants[tenant] = state
        return state

    @property
    def dependencies(self) -> list[PartitionDependency]:
        """The default tenant's base PD set Γ."""
        return list(self._tenants[None].context.dependencies)

    @property
    def generation(self) -> int:
        """The default tenant's generation (bumped per :meth:`add_dependencies`)."""
        return self._tenants[None].generation

    def dependencies_for(self, tenant: Optional[str]) -> list[PartitionDependency]:
        """A tenant's base PD set Γ (empty for tenants never seen)."""
        state = self._tenants.get(tenant)
        return list(state.context.dependencies) if state is not None else []

    def generation_for(self, tenant: Optional[str]) -> int:
        """A tenant's cache-invalidation generation (0 for tenants never seen)."""
        state = self._tenants.get(tenant)
        return state.generation if state is not None else 0

    def tenant_names(self) -> list[Optional[str]]:
        """Every tenant key with a keyspace entry (``None`` = default, first)."""
        return list(self._tenants)

    def add_dependencies(
        self,
        dependencies: Iterable[PartitionDependencyLike],
        tenant: Optional[str] = None,
    ) -> None:
        """Grow one tenant's Γ and invalidate exactly that tenant's Γ-results.

        Entries answered against the *growing tenant's* base Γ are evicted;
        every other tenant's entries — and entries for requests that carried
        their own explicit dependency set — survive untouched.
        """
        added = [as_partition_dependency(pd) for pd in dependencies]
        if not added:
            return
        state = self._tenant_state(tenant)
        state.context.extend(added)
        state.generation += 1
        self._results.invalidate_tenant(tenant)

    def context_for(self, request: QueryRequest) -> DependencyContext:
        """The dependency context a request runs against (tenant Γ or its own).

        Requests without an explicit ``dependencies`` field run against their
        tenant's base Γ (the tenant keyspace entry is created on demand —
        tenant states are cheap and never evicted).  Requests *with* explicit
        dependencies share a bounded LRU of per-Γ contexts across tenants.
        """
        if request.dependencies is None:
            return self._tenant_state(request.tenant).context
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

    def execute(
        self, request: QueryRequest, use_cache: bool = True, cache_key: Optional[str] = None
    ) -> QueryResult:
        """Answer one request (uniformly, whatever its kind).

        Failures of the decision procedures are captured as ``ok=False``
        results — a service must answer every line of its stream — but a
        *malformed request* (unknown kind, missing fields) raises
        :class:`~repro.errors.ServiceError` so programming errors stay loud.
        Error results are never cached.  ``cache_key`` lets the planner pass
        the canonical key it already computed for its own cache probe.
        """
        validate_request(request)
        key = None
        if use_cache and self._results.enabled:
            key = cache_key if cache_key is not None else request_cache_key(request)
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
        return self._results.lookup(key, request.id, request.tenant)

    def cache_store(
        self, request: QueryRequest, result: QueryResult, key: Optional[str] = None
    ) -> None:
        """Insert a computed result (error results are never cached)."""
        if not self._results.enabled or not result.ok:
            return
        if key is None:
            key = request_cache_key(request)
        self._results.store(key, result, request.tenant, gamma_dependent(request))

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
        ``per_tenant`` traffic sorted by tenant label) plus ``generation``
        (the default tenant's), ``foreign_contexts``, ``tenants`` (keyspace
        entries) and ``contexts``, the foreign-context LRU's
        hit/miss/eviction counters.
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
        if not telemetry.enabled():
            return self._evaluate_inner(request)
        span = telemetry.evaluate_span(request)
        with profiling.profile() as prof:
            try:
                result = self._evaluate_inner(request)
            except BaseException:
                # An enclosing budget (window) expired mid-evaluate; close the
                # span before handing the exception to its owner.
                telemetry.finish_evaluate(span, None, prof)
                raise
        telemetry.finish_evaluate(span, result, prof)
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
        if kind == "implies":
            engine = self.context_for(request).engine
            return {"implied": engine.implies(request.query)}
        if kind == "equivalent":
            engine = self.context_for(request).engine
            equal = engine.implies(PartitionDependency(request.left, request.right))
            return {"equivalent": equal}
        if kind == "fd_implies":
            return {"implied": fd_implies_via_pds(request.fds, request.target)}
        if kind == "consistent":
            return self._consistency_value(request)
        if kind == "quotient":
            context = self.context_for(request)
            fragment = quotient_fragment(
                context.dependencies, request.pool, engine=context.engine
            )
            return {
                "classes": [to_infix(r) for r in fragment.representatives],
                "order": sorted([i, j] for (i, j) in fragment.order),
            }
        if kind == "counterexample":
            context = self.context_for(request)
            lattice = finite_counterexample(
                context.dependencies, request.query, max_pool=request.max_pool
            )
            if lattice is None:
                return {"implied": True, "size": None, "constants": []}
            return {
                "implied": False,
                "size": len(lattice),
                "constants": sorted(lattice.constants),
            }
        raise ServiceError(f"unknown request kind {kind!r}")  # unreachable after validate

    def _consistency_value(self, request: QueryRequest) -> dict:
        context = self.context_for(request)
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
