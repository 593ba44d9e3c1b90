"""EXP-SVC: the query service — planner batching, shard scaling, async serving.

Series produced:

* **batched vs naive dispatch** — a seeded mixed stream (implication,
  equivalence, weak-instance consistency, FD implication) over a few PD
  theories, answered (a) by the batch planner on one session and (b) by the
  naive one-at-a-time baseline that builds fresh engines per request (the
  pre-service workflow).  The service claim is planner ≥ 2× on non-trivial
  theories; measured on these streams: 1.5× at 4 PDs/theory, 3.4× at 8,
  7.0× at 12 (the win comes from closing each Γ once and answering its
  implication queries in per-query overlays on that warm ALG index, and
  from the Theorem 12 normalization + chase preprocessing per dependency
  set instead of per request — matching the README's EXP-SVC table).
* **shard scaling** — the same largest stream through the multiprocess
  :class:`~repro.service.executor.ShardExecutor` with 1, 2 and 4 workers.
  Each round gets a *fresh* executor (pool startup inside the timed region):
  a persistent pool would answer repeated identical streams from the
  workers' result caches and measure nothing but cache hits.  Workers
  exchange wire-encoded JSONL, so the measured time includes real
  serialization costs.  Wall-clock speedup requires actual cores: on a
  single-CPU machine this series exposes the fan-out overhead instead (the
  plan-aware shard assignment keeps per-worker aggregate compute at ≈63% of
  the whole stream for 2 shards, which is what multi-core machines convert
  into wall-clock wins).

* **open-loop async serving** — the continuous-serving claim.  A seeded
  mixed stream arrives as a Poisson process (open loop: clients do not wait
  for answers) and is served through the
  :class:`~repro.service.microbatch.MicroBatcher`, (a) with a real window
  (``max_wait_ms=10``, ``max_batch=32``) so in-flight requests re-batch
  across arrivals and the planner's group-by amortization survives live
  load, and (b) with the window degenerated to one request
  (``max_batch=1``) — per-request dispatch, the naive serving shape.  At a
  steady arrival rate the batched windows win (the gap is the same group
  amortization the batch series measures, now recovered *in flight*), and
  the stats snapshot reports enqueue→respond latency percentiles
  (p50/p95/p99) plus window occupancy — the numbers CI exports to
  ``BENCH_async.json``.

Every benchmark round cross-checks the results against the naive baseline
(byte-identical wire encodings), so the fast paths cannot silently diverge.
"""

import asyncio
import time

import pytest

from repro.service.executor import ShardExecutor
from repro.service.microbatch import MicroBatcher, batch_stats
from repro.service.planner import execute_plan, naive_dispatch
from repro.service.session import Session
from repro.service.wire import dump_result_line
from repro.workloads.random_service import poisson_arrival_times, random_service_requests

#: (stream length, PDs per theory): bigger theories make per-request engine
#: construction — what the planner amortizes away — dominate.
STREAMS = [(60, 4), (120, 8), (240, 12)]


def _stream(count: int, pds_per_theory: int, seed: int):
    return random_service_requests(
        count,
        seed=seed,
        attribute_count=5,
        theory_count=2,
        pds_per_theory=pds_per_theory,
        max_complexity=3,
        kind_weights={"implies": 5, "equivalent": 3, "consistent": 3, "fd_implies": 2},
    )


def _encoded(results):
    return [dump_result_line(result) for result in results]


@pytest.mark.benchmark(group="EXP-SVC batched vs naive dispatch")
@pytest.mark.parametrize("count,pds_per_theory", STREAMS)
@pytest.mark.parametrize("mode", ["planner", "naive"])
def test_service_dispatch(benchmark, mode, count, pds_per_theory, rng_seed):
    requests = _stream(count, pds_per_theory, rng_seed)

    if mode == "planner":

        def run():
            return execute_plan(Session(), requests)

    else:

        def run():
            return naive_dispatch(requests)

    results = benchmark(run)
    # The two modes must agree to the byte.
    reference = naive_dispatch(requests[:20])
    assert _encoded(results[:20]) == _encoded(reference)


@pytest.mark.benchmark(group="EXP-SVC shard scaling")
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_service_shard_scaling(benchmark, shards, rng_seed):
    count, pds_per_theory = STREAMS[-1]
    requests = _stream(count, pds_per_theory, rng_seed)

    def setup():
        return (ShardExecutor(shards=shards),), {}

    def run(executor):
        try:
            return executor.execute_many(requests)
        finally:
            executor.close()

    results = benchmark.pedantic(run, setup=setup, rounds=3)
    reference = execute_plan(Session(), requests)
    assert _encoded(results) == _encoded(reference)


#: Open-loop workload: stream shape and steady arrival rate (requests/second).
OPEN_LOOP_COUNT, OPEN_LOOP_PDS, OPEN_LOOP_RATE = 120, 8, 500.0


async def _drive_open_loop(requests, arrivals, mode):
    """Serve an arrival-timed stream through the micro-batcher; returns (results, stats)."""
    session = Session()
    window = {"max_wait_ms": 10.0, "max_batch": 32} if mode == "microbatch" else {
        "max_wait_ms": 0.0,
        "max_batch": 1,
    }
    async with MicroBatcher(
        session.execute_many, queue_limit=len(requests), **window
    ) as batcher:

        started = time.perf_counter()

        async def one(arrival, request):
            delay = started + arrival - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            ticket = await batcher.submit(request)
            result = await ticket.result()
            ticket.mark_responded()
            return result

        results = await asyncio.gather(
            *(one(arrival, request) for arrival, request in zip(arrivals, requests))
        )
        stats = batch_stats(batcher.metrics, window["max_batch"])
    return list(results), stats


@pytest.mark.benchmark(group="EXP-SVC open-loop async: micro-batch window vs per-request")
@pytest.mark.parametrize("mode", ["microbatch", "per_request"])
def test_service_async_open_loop(benchmark, mode, rng_seed):
    requests = _stream(OPEN_LOOP_COUNT, OPEN_LOOP_PDS, rng_seed)
    arrivals = poisson_arrival_times(OPEN_LOOP_COUNT, OPEN_LOOP_RATE, seed=rng_seed)

    def run():
        return asyncio.run(_drive_open_loop(requests, arrivals, mode))

    results, stats = benchmark(run)
    # Served answers must be byte-identical to the batch pipeline's.
    reference = execute_plan(Session(), requests)
    assert _encoded(results) == _encoded(reference)
    # The latency accounting must actually report percentiles.
    total = stats["latency_ms"]["total"]
    assert total["samples"] == len(requests)
    assert total["p50"] is not None and total["p50"] <= total["p95"] <= total["p99"]
    assert stats["windows"]["count"] >= 1
    if mode == "per_request":
        assert stats["windows"]["max_size"] == 1
