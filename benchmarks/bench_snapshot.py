"""EXP-SNAP: durable Γ snapshots — cold start vs zero-warmup restore.

The snapshot claim: restoring a warm session from its exported snapshot is
≥ 5× faster than recomputing the same state cold, because the restore pays
only parsing + table installation while the cold path pays the ALG closure,
the Theorem 12 normalization, the chase preprocessing and every query in the
stream.  Series produced on the largest ``random_service`` stream (240
requests, 12 PDs/theory — the same workload EXP-SVC scales on):

* **session cold vs restore** — (a) cold: build a :class:`Session` and
  answer the whole stream; (b) restore: rebuild the session from the warm
  snapshot text (digest check, re-interning parse, index installation,
  shipped result cache) and answer the same stream.  Measured here the
  restore lands ≈2 orders of magnitude under cold (the README's EXP-SNAP
  table records the exact ratio per machine).
* **2-shard executor cold vs restore** — worker pools built inside the timed
  region (that *is* the cost being measured): (a) cold workers replay Γ and
  the stream; (b) the snapshot ships to the workers and seeds the parent's
  shared tier, which answers the stream the snapshot captured without
  dispatching it.  This is the per-worker warm-up the snapshot removes — it
  used to scale with ``shards × |stream|``.
* **server boot-to-first-answer** — an asyncio :class:`QueryServer` booted
  (a) cold and (b) from ``--snapshot-dir``, timed from ``start()`` to the
  first answered request of the acceptance-shaped stream.

Every round cross-checks byte-identity against the cold pipeline's wire
encodings, so the restored fast path cannot silently diverge.
"""

import asyncio
import time

import pytest

from repro.service.config import ServiceConfig
from repro.service.executor import ShardExecutor
from repro.service.planner import execute_plan
from repro.service.server import QueryServer
from repro.service.session import Session
from repro.service.snapshot import dump_snapshot, restore_session, save_snapshot
from repro.service.wire import dump_request_line, dump_result_line
from repro.workloads.random_service import random_service_requests

#: The largest EXP-SVC stream: 240 requests over 2 theories of 12 PDs each.
STREAM_COUNT, STREAM_PDS = 240, 12


def _stream(seed: int):
    return random_service_requests(
        STREAM_COUNT,
        seed=seed,
        attribute_count=5,
        theory_count=2,
        pds_per_theory=STREAM_PDS,
        max_complexity=3,
        kind_weights={"implies": 5, "equivalent": 3, "consistent": 3, "fd_implies": 2},
    )


def _encoded(results):
    return [dump_result_line(result) for result in results]


def _warm_snapshot(requests) -> tuple[str, list]:
    """A warm session's snapshot text plus the expected wire lines."""
    warm = Session()
    expected = _encoded(execute_plan(warm, requests))
    return dump_snapshot(warm), expected


@pytest.mark.benchmark(group="EXP-SNAP session: cold Γ recomputation vs snapshot restore")
@pytest.mark.parametrize("mode", ["cold", "restore"])
def test_session_cold_vs_restore(benchmark, mode, rng_seed):
    requests = _stream(rng_seed)
    snapshot, expected = _warm_snapshot(requests)

    if mode == "cold":

        def run():
            return execute_plan(Session(), requests)

    else:

        def run():
            return execute_plan(restore_session(snapshot), requests)

    results = benchmark(run)
    assert _encoded(results) == expected


@pytest.mark.benchmark(group="EXP-SNAP 2-shard executor: cold worker warm-up vs snapshot ship")
@pytest.mark.parametrize("mode", ["cold", "restore"])
def test_shard_pool_cold_vs_restore(benchmark, mode, rng_seed):
    requests = _stream(rng_seed)
    snapshot, expected = _warm_snapshot(requests)
    kwargs = {} if mode == "cold" else {"snapshot": snapshot}

    def setup():
        return (ShardExecutor(shards=2, **kwargs),), {}

    def run(executor):
        # Pool creation (and hence worker warm-up or restore) happens inside
        # the timed region — that is exactly the cost the snapshot removes.
        try:
            return executor.execute_many(requests)
        finally:
            executor.close()

    results = benchmark.pedantic(run, setup=setup, rounds=3)
    assert _encoded(results) == expected


async def _boot_to_first_answer(config: ServiceConfig, first_line: str) -> str:
    """Start a server, send one request, return its answer line (then drain)."""
    server = QueryServer(config)
    host, port = await server.start()
    try:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write((first_line + "\n").encode("utf-8"))
        await writer.drain()
        writer.write_eof()
        answer = (await reader.readline()).decode("utf-8").rstrip("\n")
        writer.close()
        return answer
    finally:
        await server.drain()


@pytest.mark.benchmark(group="EXP-SNAP server boot-to-first-answer: cold vs --snapshot-dir")
@pytest.mark.parametrize("mode", ["cold", "restore"])
def test_server_boot_to_first_answer(benchmark, mode, rng_seed, tmp_path):
    requests = _stream(rng_seed)
    snapshot, expected = _warm_snapshot(requests)
    first_line = dump_request_line(requests[0])
    if mode == "restore":
        save_snapshot(restore_session(snapshot), tmp_path)
        config = ServiceConfig(max_wait_ms=1.0, snapshot_dir=str(tmp_path))
    else:
        config = ServiceConfig(max_wait_ms=1.0)

    def run():
        return asyncio.run(_boot_to_first_answer(config, first_line))

    answer = benchmark(run)
    assert answer == expected[0]


def measure_snapshot_ratio(seed: int = 20260617, rounds: int = 3) -> dict:
    """The acceptance measurement: cold wall time / restore wall time per round.

    Used by the CI smoke and the README table; kept importable so the ratio
    is computed the same way everywhere.
    """
    requests = _stream(seed)
    snapshot, expected = _warm_snapshot(requests)

    def _time(fn):
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - started)
            assert _encoded(out) == expected
        return best

    cold = _time(lambda: execute_plan(Session(), requests))
    restore = _time(lambda: execute_plan(restore_session(snapshot), requests))
    return {
        "stream": {"count": STREAM_COUNT, "pds_per_theory": STREAM_PDS},
        "cold_seconds": cold,
        "restore_seconds": restore,
        "speedup": cold / restore if restore else float("inf"),
        "snapshot_bytes": len(snapshot),
    }


def test_snapshot_restore_meets_the_5x_acceptance_bar(rng_seed):
    """The ISSUE's acceptance criterion, pinned: restore ≥ 5× faster than cold."""
    report = measure_snapshot_ratio(seed=rng_seed, rounds=3)
    assert report["speedup"] >= 5.0, report
