"""Random mixed query-service streams: the service's workload generator.

The query service is exercised by *mixed* streams — implication, equivalence,
consistency, quotient and counterexample requests interleaved over a handful
of PD theories — which is exactly what neither the per-kind generators nor
the benchmarks produced before.  :func:`random_service_requests` builds such
a stream, seeded and deterministic:

* ``theory_count`` distinct PD sets are drawn up front; each request reasons
  over one of them, so the batch planner sees real grouping work (several
  dependency keys interleaved in one stream, not one);
* implication queries mix derived consequences with random equations (the
  :func:`~repro.workloads.random_implication.implication_query_stream`
  recipe), so both verdicts occur;
* consistency requests draw small multi-relation databases; CAD requests
  (optional) use an FPD-only theory, as Theorem 11 requires;
* everything stays deliberately small — the stream's purpose is breadth of
  dispatch shape, not depth of any single decision procedure.

``embed_dependencies=True`` (the default) attaches each request's theory
explicitly, making streams self-contained for the CLI and the shard
executor; ``False`` produces bare implication/equivalence/weak-instance
requests for sessions that own Γ.  CAD and counterexample requests keep
their dedicated theories even then — CAD is only defined for FPD-only
constraint sets (Theorem 11) and the counterexample construction needs its
deliberately tiny theory, so pointing either at an arbitrary session Γ
would just manufacture error results.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional, Union

from repro.dependencies.conversion import fd_to_pd
from repro.dependencies.pd import PartitionDependency
from repro.service.wire import QueryRequest
from repro.workloads.random_dependencies import random_fd, random_fd_set, random_pd
from repro.workloads.random_expressions import random_expression
from repro.workloads.random_implication import implication_query_stream
from repro.workloads.random_relations import attribute_names, random_database

RandomLike = Union[int, random.Random]


def poisson_arrival_times(
    count: int, rate: float, seed: RandomLike = 0, start: float = 0.0
) -> list[float]:
    """``count`` Poisson-process arrival offsets (seconds) at ``rate`` arrivals/second.

    The open-loop serving workload: inter-arrival gaps are i.i.d.
    exponential with mean ``1/rate``, so the stream models independent
    clients who do *not* wait for answers before sending — exactly the load
    shape where a micro-batch window either recovers the planner's
    amortization or the per-request baseline falls behind.  Deterministic
    per seed; strictly increasing.
    """
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    rng = _rng(seed)
    times: list[float] = []
    now = start
    for _ in range(count):
        now += rng.expovariate(rate)
        times.append(now)
    return times


def open_loop_service_workload(
    count: int, rate: float, seed: RandomLike = 0, **request_kwargs
) -> list[tuple[float, "QueryRequest"]]:
    """A seeded open-loop stream: ``(arrival_seconds, request)`` pairs.

    Requests come from :func:`random_service_requests` (``request_kwargs``
    forwarded), arrivals from :func:`poisson_arrival_times`; both draw from
    one generator so a single seed pins the whole workload.
    """
    rng = _rng(seed)
    requests = random_service_requests(count, seed=rng, **request_kwargs)
    return list(zip(poisson_arrival_times(count, rate, seed=rng), requests))

#: Default mixture; weights need not sum to anything in particular.
DEFAULT_KIND_WEIGHTS = {
    "implies": 5,
    "equivalent": 3,
    "consistent": 3,
    "counterexample": 1,
    "fd_implies": 2,
}


def _rng(seed: RandomLike) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_service_requests(
    count: int,
    seed: RandomLike = 0,
    attribute_count: int = 5,
    theory_count: int = 2,
    pds_per_theory: int = 3,
    max_complexity: int = 2,
    kind_weights: Optional[dict[str, int]] = None,
    include_cad: bool = False,
    embed_dependencies: bool = True,
    max_pool: int = 400,
) -> list[QueryRequest]:
    """A seeded mixed request stream of ``count`` queries over a few PD theories.

    Returns requests with ids ``q0, q1, ...`` in stream order.  With
    ``include_cad=True`` a slice of the consistency requests runs the
    NP-complete CAD test against a dedicated FPD-only theory (sizes are kept
    tiny so the backtracking search stays cheap).
    """
    rng = _rng(seed)
    weights = dict(DEFAULT_KIND_WEIGHTS if kind_weights is None else kind_weights)
    universe = attribute_names(attribute_count)

    theories: list[list[PartitionDependency]] = []
    for _ in range(max(1, theory_count)):
        theories.append(
            [random_pd(universe, rng, max_complexity) for _ in range(pds_per_theory)]
        )
    # One query stream per theory, so implication requests exercise the
    # derived-consequence path against *their* theory.
    streams = [
        implication_query_stream(theory, universe, seed=rng, max_complexity=max_complexity)
        for theory in theories
    ]
    # CAD needs an FPD-only theory (Theorem 11 constraints are FDs in PD form)
    # over the database universe — CAD rejects FDs mentioning attributes the
    # database cannot fill in.
    cad_universe = min(attribute_count, 4)
    cad_theory = [fd_to_pd(fd) for fd in random_fd_set(cad_universe, 2, seed=rng, max_side=2)]
    # Counterexample construction (Theorem 8's L_H) is exponential in the
    # attribute set and complexity bound, so those queries run against a tiny
    # dedicated theory — the point is exercising the pipeline, not sizing it.
    ce_universe = universe[: min(3, attribute_count)]
    ce_theory = [random_pd(ce_universe, rng, 1)]

    kinds = list(weights)
    kind_weights_list = [weights[k] for k in kinds]
    requests: list[QueryRequest] = []
    for index in range(count):
        kind = rng.choices(kinds, weights=kind_weights_list)[0]
        theory_index = rng.randrange(len(theories))
        theory = theories[theory_index]
        deps = tuple(theory) if embed_dependencies else None
        request_id = f"q{index}"
        if kind == "implies":
            query = next(streams[theory_index])
            requests.append(
                QueryRequest(kind="implies", id=request_id, dependencies=deps, query=query)
            )
        elif kind == "equivalent":
            left = random_expression(universe, rng, max_complexity)
            right = random_expression(universe, rng, max_complexity)
            requests.append(
                QueryRequest(
                    kind="equivalent", id=request_id, dependencies=deps, left=left, right=right
                )
            )
        elif kind == "consistent":
            use_cad = include_cad and rng.random() < 0.25
            database = random_database(
                relation_count=2,
                universe_size=min(attribute_count, 4),
                # CAD rejects FDs over attributes no relation mentions, so CAD
                # databases span the whole (tiny) universe.
                attributes_per_relation=cad_universe if use_cad else 3,
                tuples_per_relation=2 if use_cad else 3,
                domain_size=3,
                seed=rng,
            )
            if use_cad:
                requests.append(
                    QueryRequest(
                        kind="consistent",
                        id=request_id,
                        dependencies=tuple(cad_theory),
                        database=database,
                        method="cad",
                        max_nodes=50_000,
                    )
                )
            else:
                requests.append(
                    QueryRequest(
                        kind="consistent",
                        id=request_id,
                        dependencies=deps,
                        database=database,
                        method="weak_instance",
                    )
                )
        elif kind == "counterexample":
            query = random_pd(ce_universe, rng, 1)
            requests.append(
                QueryRequest(
                    kind="counterexample",
                    id=request_id,
                    dependencies=tuple(ce_theory),
                    query=query,
                    max_pool=max_pool,
                )
            )
        else:  # fd_implies
            fds = tuple(random_fd_set(attribute_count, 3, seed=rng, max_side=2))
            target = random_fd(universe, rng, max_side=2)
            requests.append(
                QueryRequest(kind="fd_implies", id=request_id, fds=fds, target=target)
            )
    return requests


def zipf_tenant_weights(tenants: int, skew: float) -> list[float]:
    """Unnormalized Zipfian popularity weights ``1/rank^skew`` for ``tenants`` ranks.

    Rank 1 is the hottest tenant; ``skew=0`` degenerates to a uniform
    distribution and larger ``skew`` concentrates traffic on the head — the
    regime where a shared result cache pays for itself because the hot
    tenants' working sets fit.
    """
    if tenants < 1:
        raise ValueError(f"tenant count must be positive, got {tenants}")
    if skew < 0:
        raise ValueError(f"Zipf skew must be non-negative, got {skew}")
    return [1.0 / float(rank) ** skew for rank in range(1, tenants + 1)]


def zipf_multitenant_requests(
    count: int,
    seed: RandomLike = 0,
    tenants: int = 50,
    skew: float = 1.0,
    pool_per_tenant: int = 4,
    tenant_prefix: str = "t",
    **request_kwargs,
) -> list[QueryRequest]:
    """A seeded multi-tenant stream: Zipf-distributed tenants over fixed request pools.

    Each of the ``tenants`` tenants owns a pre-built pool of
    ``pool_per_tenant`` mixed requests (built once via
    :func:`random_service_requests` over a shared theory pool, so the batch
    planner still sees cross-tenant grouping structure).  Every draw picks a
    tenant by :func:`zipf_tenant_weights` and then one request uniformly from
    that tenant's pool, re-stamped with a fresh stream id ``q0, q1, ...`` —
    so hot tenants naturally repeat identical cacheable requests while the
    cold tail barely re-asks anything.  That is the traffic shape the
    sharded executor's parent-side shared cache is for: it answers the head
    without dispatching it to a worker.

    ``request_kwargs`` are forwarded to :func:`random_service_requests`
    (``kind_weights``, ``theory_count``, ``embed_dependencies``, ...).
    Deterministic per seed; tenants are named ``{tenant_prefix}1`` (hottest)
    through ``{tenant_prefix}{tenants}``.
    """
    if count < 0:
        raise ValueError(f"request count must be non-negative, got {count}")
    if pool_per_tenant < 1:
        raise ValueError(f"pool size per tenant must be positive, got {pool_per_tenant}")
    weights = zipf_tenant_weights(tenants, skew)
    rng = _rng(seed)
    base = random_service_requests(tenants * pool_per_tenant, seed=rng, **request_kwargs)
    pools = [
        base[rank * pool_per_tenant : (rank + 1) * pool_per_tenant]
        for rank in range(tenants)
    ]
    ranks = range(tenants)
    requests: list[QueryRequest] = []
    for index in range(count):
        rank = rng.choices(ranks, weights=weights)[0]
        template = pools[rank][rng.randrange(pool_per_tenant)]
        requests.append(
            replace(template, id=f"q{index}", tenant=f"{tenant_prefix}{rank + 1}")
        )
    return requests
