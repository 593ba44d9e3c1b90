"""Durable session snapshots: warm a session, export, "restart", restore, re-answer.

The full snapshot lifecycle on one small workload:

1. warm a :class:`~repro.service.session.Session` — the ALG implication
   closure, the Theorem 12 normalization artifacts and the result cache all
   materialize as a mixed stream is answered.  A snapshot holds Γ, its
   generation and the result cache only; the index and the normalization
   are functions of Γ, so a restored session rebuilds them from Γ;
2. export the warm state with :meth:`Session.export_snapshot` — one
   canonical, versioned, digest-protected JSON document;
3. simulate a process restart by restoring into a *fresh* session with
   :meth:`Session.restore` (in a real deployment this is ``--snapshot-dir``
   on boot, with any ``--shards``);
4. answer the same stream again and check byte-identity — the restored
   session is indistinguishable from the warm one, and answers arrive from
   the shipped result cache without recomputing anything;
5. shard the restored session over 2 worker processes: the replay is
   answered from its cache (the executor's shared tier) with no unit
   dispatched, and the executor's session exports a snapshot that restores
   in process with no miss — the sharded backend saves like the other;
6. watch the codec refuse a corrupted document (the digest catches it).

Run with ``python examples/snapshot_restore.py`` (needs ``src`` on the path,
e.g. ``PYTHONPATH=src``).
"""

import time

from repro.errors import ServiceError
from repro.service import (
    Session,
    ShardExecutor,
    decode_snapshot,
    dump_result_line,
    restore_session,
)
from repro.workloads.random_service import random_service_requests


def main() -> None:
    print("== 1. Warm a session on a mixed 60-request stream ==")
    stream = random_service_requests(
        60, seed=19, theory_count=2, pds_per_theory=4, embed_dependencies=False
    )
    warm = Session(["A = A*B", "B = B*C", "C = C + D*E"])
    started = time.perf_counter()
    warm_lines = [dump_result_line(r) for r in warm.execute_many(stream)]
    cold_seconds = time.perf_counter() - started
    print(f"  answered {len(warm_lines)} requests cold in {cold_seconds * 1000:.1f} ms")
    print(f"  cache: {warm.cache_info()}")

    print("\n== 2. Export the warm Γ state ==")
    snapshot = warm.export_snapshot()
    payload = decode_snapshot(snapshot)
    print(f"  snapshot: {len(snapshot)} bytes, version {payload['v']},")
    print(f"  digest {payload['digest'][:16]}…, generation {payload['generation']},")
    print(f"  {len(payload['dependencies'])} PDs in Γ, {len(payload['results'])} cached results")

    print("\n== 3. 'Restart': restore into a fresh process-equivalent session ==")
    started = time.perf_counter()
    restored = restore_session(snapshot, expected_generation=warm.generation)
    restore_seconds = time.perf_counter() - started
    print(f"  restored in {restore_seconds * 1000:.1f} ms (Γ's index rebuilt, cache shipped)")

    print("\n== 4. Re-answer the same stream ==")
    started = time.perf_counter()
    restored_lines = [dump_result_line(r) for r in restored.execute_many(stream)]
    replay_seconds = time.perf_counter() - started
    print(f"  byte-identical to the warm session: {restored_lines == warm_lines}")
    print(
        f"  answered from the shipped cache in {replay_seconds * 1000:.1f} ms "
        f"({restored.cache_info()['hits']} hits, {restored.cache_info()['misses']} misses)"
    )

    print("\n== 5. Shard the restored session over 2 workers, then snapshot it ==")
    with ShardExecutor(shards=2, session=restored) as executor:
        sharded_lines = [dump_result_line(r) for r in executor.execute_many(stream)]
        dispatched = executor.metrics.value("supervisor.units_dispatched")
        exported = executor.session.export_snapshot()
    print(f"  byte-identical: {sharded_lines == warm_lines}; units dispatched: {dispatched}")
    assert sharded_lines == warm_lines and dispatched == 0
    round_trip = restore_session(exported)
    round_trip_lines = [dump_result_line(r) for r in round_trip.execute_many(stream)]
    misses = round_trip.cache_info()["misses"]
    identical = round_trip_lines == warm_lines
    print(f"  its snapshot restores in process: byte-identical {identical}, {misses} misses")
    assert identical and misses == 0

    print("\n== 6. Corruption is refused before anything is rebuilt ==")
    corrupted = snapshot.replace('"generation":0', '"generation":1', 1)
    try:
        restore_session(corrupted)
    except ServiceError as exc:
        print(f"  ServiceError: {str(exc)[:80]}…")


if __name__ == "__main__":
    main()
