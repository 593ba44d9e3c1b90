"""The batch planner: group a mixed request stream into amortized dispatches.

A raw stream interleaves kinds and dependency sets arbitrarily; answering it
one request at a time pays the per-Γ setup (ALG closure, Theorem 12
normalization, chase-engine preprocessing) over and over.  The planner
groups requests by kind, method, theory and deadline flag, then runs each
group in one of two lanes:

* **The grouped lane** (:func:`_execute_grouped`) takes a deadline-free
  group of a :data:`GROUPED_KINDS` kind: many queries against one theory,
  answered by one kernel call.  ``implies`` / ``equivalent`` groups over one
  Γ are one :func:`repro.implication.word_problems.lattice_word_problems`
  call on the Γ context's warm ALG engine, one
  :meth:`~repro.implication.index.ImplicationIndex.overlay` per query, so Γ
  is never re-closed and every query's subexpressions leave the index again
  (Theorem 9).  ``fd_implies`` groups over one FD set Σ are one
  :func:`repro.implication.fd_implication.fd_implies_all_via_pds` call, one
  engine over the FPD translation of Σ for all targets (§5.3).  A kernel
  that raises falls back to the per-request loop.
* **The per-request lane** (:func:`_execute_each`) answers every other group
  one :meth:`Session.execute` at a time, inside one telemetry work unit per
  group.  A ``weak_instance`` group still shares its Γ context's
  normalization and preprocessed chase engine (built by its first request),
  so only the per-database chase is marginal work.  A *deadline* group runs
  one work unit per request, each under its own
  :func:`~repro.deadline.deadline_scope`: a shared kernel call cannot charge
  one caller's budget.

:attr:`Batch.amortized` names the groups that share per-theory work (the
grouped kinds and ``weak_instance``, never a deadline group); the shard
executor deals those in a few slices and every other group request by
request.

Grouping is *stable*: batches are emitted in first-appearance order and every
request keeps its stream position, so :func:`execute_plan` returns results in
input order, byte-identical to one-at-a-time :meth:`Session.execute` calls
(``tests/test_service_planner.py`` asserts this on randomized mixed streams).

:func:`naive_dispatch` is the deliberately unamortized baseline — a fresh
:class:`~repro.service.session.Session` per request, the "import the library
and hand-wire an engine per query" workflow the service replaces.  It builds
an ALG engine (and, for consistency, a Theorem 12 normalization) per request
where the planner builds one per distinct Γ; ``tests/test_service_planner.py``
counts both.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Optional

from repro.dependencies.pd import PartitionDependency, PartitionDependencyLike
from repro.errors import DeadlineExceeded, ServiceError
from repro.implication.fd_implication import fd_implies_all_via_pds
from repro.implication.word_problems import lattice_word_problems
from repro.service import telemetry
from repro.service.session import Session, _faults
from repro.service.wire import (
    QueryRequest,
    QueryResult,
    canonical_dumps,
    dependencies_key,
    encode_fd,
    request_cache_key,
    validate_request,
)

#: Group key: (kind, consistency method or "", dependency-set key or None,
#: carries-a-deadline flag).
BatchKey = tuple[str, str, Optional[tuple[str, ...]], bool]

#: The kinds whose deadline-free groups are decided by one kernel call.
GROUPED_KINDS = ("implies", "equivalent", "fd_implies")


@dataclass(frozen=True)
class Batch:
    """One planned dispatch group: same kind, method, dependency set and deadline flag.

    ``deadline`` marks a group of budget-carrying requests, which run one
    request at a time, each under its own scope.
    """

    kind: str
    method: str
    dep_key: Optional[tuple[str, ...]]
    indices: tuple[int, ...]
    deadline: bool = False

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def amortized(self) -> bool:
        """Whether the batch shares per-theory work: a grouped kind's kernel call,
        a ``weak_instance`` Γ's normalization and chase engine.  A deadline
        batch shares nothing."""
        return not self.deadline and (
            self.kind in GROUPED_KINDS or self.kind == "consistent" and self.method == "weak_instance"
        )


def _dependency_key(request: QueryRequest) -> Optional[tuple[str, ...]]:
    """The grouping key of a request's reasoning context.

    ``fd_implies`` requests group on their FD set Σ (that is what the batch
    API amortizes over); everything else groups on the PD set Γ.  Requests
    without an explicit dependency set run against *their tenant's* base Γ,
    so the key carries the tenant — two tenants' base-Γ requests must never
    share a batch (their Γs differ even when both streams look identical).
    The ``"\\x00tenant"`` marker cannot collide with encoded PDs (those are
    canonical JSON strings, which never start with a NUL).
    """
    if request.kind == "fd_implies":
        return tuple(canonical_dumps(encode_fd(fd)) for fd in request.fds)
    if request.dependencies is None:
        return None if request.tenant is None else ("\x00tenant", request.tenant)
    return dependencies_key(request.dependencies)


def plan(requests: Sequence[QueryRequest]) -> list[Batch]:
    """Group a stream into batches, stable in first-appearance order."""
    groups: "OrderedDict[BatchKey, list[int]]" = OrderedDict()
    for index, request in enumerate(requests):
        validate_request(request)
        method = request.method if request.kind == "consistent" else ""
        key: BatchKey = (
            request.kind,
            method,
            _dependency_key(request),
            request.deadline_ms is not None,
        )
        groups.setdefault(key, []).append(index)
    return [
        Batch(kind=kind, method=method, dep_key=dep_key, indices=tuple(indices), deadline=deadline)
        for (kind, method, dep_key, deadline), indices in groups.items()
    ]


def plan_summary(requests: Sequence[QueryRequest]) -> dict:
    """Shape diagnostics for a stream (batch count, sizes per kind)."""
    batches = plan(requests)
    per_kind: dict[str, int] = {}
    for batch in batches:
        per_kind[batch.kind] = per_kind.get(batch.kind, 0) + len(batch)
    return {
        "requests": len(requests),
        "batches": len(batches),
        "largest_batch": max((len(b) for b in batches), default=0),
        "requests_per_kind": dict(sorted(per_kind.items())),
    }


def execute_plan(session: Session, requests: Sequence[QueryRequest]) -> list[QueryResult]:
    """Answer a stream through the planner, preserving input order exactly.

    Results are identical (same values, same errors) to calling
    ``session.execute`` on each request in turn — batching changes the
    amortization, never the answers.
    """
    results: list[Optional[QueryResult]] = [None] * len(requests)
    # Canonical keys are computed once per request and threaded through the
    # probe, the dispatch and the store (encoding a database-carrying request
    # three times was measurable on the hot path).  They are computed even
    # when the session keeps no cache (a shard worker's): they are also what
    # finds a repeat inside the stream.
    keys: dict[int, str] = {}
    for batch in plan(requests):
        pending: list[int] = []
        duplicates: list[tuple[int, int]] = []  # (stream index, index of first occurrence)
        first_by_key: dict[str, int] = {}
        for index in batch.indices:
            key = keys[index] = request_cache_key(requests[index])
            cached = session.cache_lookup(requests[index], key=key)
            if cached is not None:
                results[index] = cached
                continue
            # Identical requests always share a batch (same canonical key ⇒
            # same group key): dispatch the first occurrence, copy the rest.
            first = first_by_key.get(key)
            if first is not None:
                duplicates.append((index, first))
                continue
            first_by_key[key] = index
            pending.append(index)
        if pending and not batch.deadline and batch.kind in GROUPED_KINDS:
            _execute_grouped(session, batch.kind, requests, results, pending, keys)
        elif pending:
            # A deadline batch runs one unit per request, so each runs under
            # its own scope and a blown budget costs nobody else anything.
            for unit in [[index] for index in pending] if batch.deadline else [pending]:
                with telemetry.work_unit(
                    batch.kind,
                    method=batch.method,
                    gamma=_gamma_size(session, requests[unit[0]]),
                    requests=len(unit),
                    query_size=_batch_query_size(requests, unit),
                ):
                    _execute_each(session, requests, results, unit, keys)
        for index, first in duplicates:
            prior = results[first]
            if prior is not None and prior.ok:
                results[index] = replace(prior, id=requests[index].id, cached=True)
            else:
                # Error results are never cached; match the sequential path
                # and recompute (the probe above already counted the miss).
                _execute_each(session, requests, results, [index], keys)
    missing = [i for i, result in enumerate(results) if result is None]
    if missing:  # loud, not misaligned: a dropped slot would shift the CLI stream
        raise ServiceError(f"planner produced no result for requests {missing[:5]}")
    return results  # type: ignore[return-value]


def _gamma_size(session: Session, request: QueryRequest) -> int:
    """|Γ| for the cost log: the dependency-set size the request reasons over."""
    if request.kind == "fd_implies":
        return len(request.fds or ())
    if request.dependencies is not None:
        return len(request.dependencies)
    return len(session.dependencies_for(request.tenant))


def _batch_query_size(requests: Sequence[QueryRequest], indices: Sequence[int]) -> int:
    return sum(telemetry.request_query_size(requests[index]) for index in indices)


def _execute_grouped(
    session: Session,
    kind: str,
    requests: Sequence[QueryRequest],
    results: list[Optional[QueryResult]],
    pending: list[int],
    keys: dict[int, str],
) -> None:
    """Decide a same-theory group of a :data:`GROUPED_KINDS` kind in one kernel call.

    ``fd_implies`` targets go to one engine over the FPD translation of Σ;
    implication and equivalence queries to the Γ context's warm index, each
    in an overlay that rolls the index back.  A kernel that raises leaves
    its one cost record and falls back to :func:`_execute_each`.
    """
    # The kernel bypasses Session._evaluate, so the injection hook fires
    # here: a poison request kills its worker whichever lane it rides in
    # (a no-op without an installed fault plan).
    for index in pending:
        _faults().on_request(requests[index].id)
    first = requests[pending[0]]
    context = None if kind == "fd_implies" else session.context_for(first)
    try:
        with telemetry.work_unit(
            kind,
            gamma=_gamma_size(session, first),
            requests=len(pending),
            query_size=_batch_query_size(requests, pending),
        ):
            if context is None:
                verdicts = fd_implies_all_via_pds(first.fds, [requests[i].target for i in pending])
            else:
                queries = [
                    requests[i].query
                    if kind == "implies"
                    else PartitionDependency(requests[i].left, requests[i].right)
                    for i in pending
                ]
                verdicts = lattice_word_problems(context.dependencies, queries, engine=context.engine)
    except DeadlineExceeded:
        raise  # an enclosing budget (window budget) owns this, not a line
    except Exception:
        _execute_each(session, requests, results, pending, keys)
        return
    field = "equivalent" if kind == "equivalent" else "implied"
    for index, verdict in zip(pending, verdicts):
        request = requests[index]
        result = QueryResult(kind=kind, ok=True, id=request.id, value={field: verdict})
        session.cache_store(request, result, key=keys[index])
        results[index] = result


def _execute_each(
    session: Session,
    requests: Sequence[QueryRequest],
    results: list[Optional[QueryResult]],
    pending: list[int],
    keys: dict[int, str],
) -> None:
    """Evaluate each pending request and store it (errors are reported per line).

    The planner's probe already counted each request's miss, so this never
    probes the cache a second time.  It is the per-request loop of every
    batch outside the grouped lane, the grouped lane's fallback, and the
    recompute of a duplicate whose first occurrence failed.
    """
    for index in pending:
        result = session.execute(requests[index], use_cache=False)
        session.cache_store(requests[index], result, key=keys[index])
        results[index] = result


def naive_dispatch(
    requests: Sequence[QueryRequest],
    dependencies: Sequence[PartitionDependencyLike] = (),
) -> list[QueryResult]:
    """The unamortized baseline: a fresh session (and hence fresh engines) per request.

    This is what "import the library and wire up an engine for each query"
    costs; it produces byte-identical results to :func:`execute_plan` because
    every decision procedure is deterministic in its inputs.  The tests and
    ``perfbench/`` use it as the reference every serving mode must match.
    """
    base: list[PartitionDependency] = list(dependencies)  # type: ignore[arg-type]
    out: list[QueryResult] = []
    for request in requests:
        fresh = Session(base, result_cache_size=0)
        out.append(fresh.execute(request, use_cache=False))
    return out
