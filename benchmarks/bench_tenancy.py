"""EXP-TEN: multi-tenant serving — the shared result tier vs worker islands.

The tenancy claim: on a Zipf-skewed multi-tenant stream, the parent-side
shared result tier (the executor's
:class:`~repro.service.result_cache.ResultCache`) achieves **≥ 2× the aggregate cache hit rate** of the per-worker-island
baseline, and a measured end-to-end speedup — while every served answer
stays byte-identical to naive single-shard no-cache dispatch, including
under a seeded transient worker crash.

The workload is :func:`~repro.workloads.random_service.zipf_multitenant_requests`:
50 tenants drawing from fixed per-tenant request pools with Zipf skew
``s = 1.0``, served over 2 shards in micro-batch-sized windows (so unit
dealing, not one giant batch, decides which worker sees a repeat — exactly
the serving shape).  Both arms run **memory-bounded** workers
(``result_cache_size=16`` entries, far below the stream's ~140-key working
set), which is the regime the shared tier exists for:

* **islands** (``shared_cache_size=0``): repeats bounce between workers and
  the cold tail churns each island's LRU, so even the hot head keeps
  recomputing — tier-2 hits only.
* **shared** (4096-entry shared tier): the parent answers repeats without
  shipping them to workers at all, whichever worker computed them first,
  and the aggregate rate is compulsory-miss-bound.

Aggregate hit rate = (parent shared-tier hits + worker session hits) / requests.
"""

import time

import pytest

from repro.service.executor import ShardExecutor
from repro.service.faults import Fault, FaultPlan
from repro.service.planner import naive_dispatch
from repro.service.supervisor import supervision_stats
from repro.service.wire import dump_result_line
from repro.workloads.random_service import zipf_multitenant_requests

#: The acceptance-shaped stream: ISSUE 9 pins ≥ 50 tenants and skew ≥ 1.0.
STREAM_COUNT, TENANTS, SKEW, POOL_PER_TENANT = 400, 50, 1.0, 4

#: Requests per serving window — small enough that repeats cross windows.
WINDOW = 25

#: Per-worker result-cache entries: memory-bounded tier-2 islands.
WORKER_CACHE = 16

#: PR 8's transient-crash shape: worker 0 dies on its first unit, once.
CRASH_ONCE = FaultPlan(
    seed=20260617, faults=(Fault(kind="crash_worker", worker=0, unit=0, incarnation=0),)
)


def _stream(seed: int):
    return zipf_multitenant_requests(
        STREAM_COUNT,
        seed=seed,
        tenants=TENANTS,
        skew=SKEW,
        pool_per_tenant=POOL_PER_TENANT,
        theory_count=2,
        pds_per_theory=3,
        max_complexity=2,
    )


def _expected(requests):
    """Naive single-shard no-cache dispatch: the byte-identity reference."""
    return [dump_result_line(result) for result in naive_dispatch(requests)]


def _serve_windows(executor, requests):
    """Serve the stream in ``WINDOW``-sized calls, like the micro-batch loop."""
    out = []
    for start in range(0, len(requests), WINDOW):
        out.extend(dump_result_line(r) for r in executor.execute_many(requests[start : start + WINDOW]))
    return out


def _run_stream(requests, shared_cache_size, fault_plan=None):
    """One serving pass; returns (encoded answers, aggregate hit rate, stats)."""
    with ShardExecutor(
        shards=2,
        shared_cache_size=shared_cache_size,
        result_cache_size=WORKER_CACHE,
        fault_plan=fault_plan,
    ) as executor:
        out = _serve_windows(executor, requests)
        shared = executor.shared_cache_info()
        supervision = supervision_stats(executor.metrics)
    hits = shared["hits"] + supervision["worker_cache_hits"]
    return out, hits / len(requests), {"shared": shared, "supervision": supervision}


@pytest.mark.benchmark(group="EXP-TEN Zipf multi-tenant stream: worker islands vs shared cache")
@pytest.mark.parametrize("mode", ["islands", "shared"])
def test_islands_vs_shared_cache(benchmark, mode, rng_seed):
    requests = _stream(rng_seed)
    expected = _expected(requests)
    size = 4096 if mode == "shared" else 0

    def run():
        return _run_stream(requests, shared_cache_size=size)

    out, rate, _ = benchmark(run)
    assert out == expected  # caching must never change an answer
    if mode == "shared":
        assert rate > 0.5  # compulsory-miss-bound on this stream


@pytest.mark.benchmark(group="EXP-TEN shared cache under a transient worker crash")
def test_shared_cache_with_crash(benchmark, rng_seed):
    requests = _stream(rng_seed)
    expected = _expected(requests)

    def run():
        return _run_stream(requests, shared_cache_size=4096, fault_plan=CRASH_ONCE.to_json())

    out, _, stats = benchmark(run)
    assert out == expected  # recovery + caching still byte-identical
    assert stats["supervision"]["crashes"] >= 1


def measure_tenancy_report(seed: int = 20260617, rounds: int = 3) -> dict:
    """The acceptance measurement: hit-rate ratio and end-to-end speedup.

    Min-of-``rounds`` wall times per arm (each round builds its own pool —
    steady-state caches must not leak across rounds), hit rates from the
    last round of each, plus one crash-injected shared run.  Every pass is
    checked byte-identical to naive single-shard no-cache dispatch.
    Importable so the CI smoke and the README table are computed the same
    way.
    """
    requests = _stream(seed)
    expected = _expected(requests)

    def _time(size, fault_plan=None):
        best, rate, stats = float("inf"), 0.0, {}
        for _ in range(rounds):
            started = time.perf_counter()
            out, rate, stats = _run_stream(requests, size, fault_plan=fault_plan)
            best = min(best, time.perf_counter() - started)
            assert out == expected
        return best, rate, stats

    islands_seconds, islands_rate, _ = _time(0)
    shared_seconds, shared_rate, shared_stats = _time(4096)
    _, crash_rate, crash_stats = _time(4096, fault_plan=CRASH_ONCE.to_json())
    assert crash_stats["supervision"]["crashes"] >= 1

    return {
        "stream": {
            "count": STREAM_COUNT,
            "tenants": TENANTS,
            "skew": SKEW,
            "pool_per_tenant": POOL_PER_TENANT,
            "window": WINDOW,
            "worker_cache": WORKER_CACHE,
            "seed": seed,
        },
        "islands_seconds": islands_seconds,
        "shared_seconds": shared_seconds,
        "speedup": islands_seconds / shared_seconds if shared_seconds else float("inf"),
        "islands_hit_rate": islands_rate,
        "shared_hit_rate": shared_rate,
        "hit_rate_ratio": shared_rate / islands_rate if islands_rate else float("inf"),
        "crash_hit_rate": crash_rate,
        "shared_tiers": shared_stats,
    }


def test_shared_cache_meets_the_2x_acceptance_bar(rng_seed):
    """The ISSUE 9 acceptance criterion, pinned: ≥ 2× aggregate hit rate + speedup."""
    report = measure_tenancy_report(seed=rng_seed, rounds=3)
    assert report["hit_rate_ratio"] >= 2.0, report
    assert report["speedup"] > 1.0, report
