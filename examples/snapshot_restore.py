"""Durable Γ snapshots: warm a session, export, "restart", restore, re-answer.

The full snapshot lifecycle on one small workload:

1. warm a :class:`~repro.service.session.Session` — the ALG implication
   closure, the Theorem 12 normalization artifacts and the result cache all
   materialize as a mixed stream is answered.  A snapshot holds Γ, the
   implication index and the result cache; the normalization is a function
   of Γ, so a restored session rebuilds it on its first weak-instance read;
2. export the warm state with :meth:`Session.export_snapshot` — one
   canonical, versioned, digest-protected JSON document;
3. simulate a process restart by restoring into a *fresh* session with
   :meth:`Session.restore` (in a real deployment this is ``--snapshot-dir``
   on boot, or a snapshot shipped to shard workers);
4. answer the same stream again and check byte-identity — the restored
   session is indistinguishable from the warm one, and answers arrive from
   the shipped result cache without recomputing anything;
5. watch the codec refuse a corrupted document (the digest catches it).

Run with ``python examples/snapshot_restore.py`` (needs ``src`` on the path,
e.g. ``PYTHONPATH=src``).
"""

import time

from repro.errors import ServiceError
from repro.service import Session, decode_snapshot, dump_result_line, restore_session
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
    print(
        f"  {len(payload['index']['expressions'])} index vertices, "
        f"{len(payload['results'])} cached results"
    )

    print("\n== 3. 'Restart': restore into a fresh process-equivalent session ==")
    started = time.perf_counter()
    restored = restore_session(snapshot, expected_generation=warm.generation)
    restore_seconds = time.perf_counter() - started
    print(f"  restored in {restore_seconds * 1000:.1f} ms (zero-warmup boot)")

    print("\n== 4. Re-answer the same stream ==")
    started = time.perf_counter()
    restored_lines = [dump_result_line(r) for r in restored.execute_many(stream)]
    replay_seconds = time.perf_counter() - started
    print(f"  byte-identical to the warm session: {restored_lines == warm_lines}")
    print(
        f"  answered from the shipped cache in {replay_seconds * 1000:.1f} ms "
        f"({restored.cache_info()['hits']} hits, {restored.cache_info()['misses']} misses)"
    )

    print("\n== 5. Corruption is refused before anything is rebuilt ==")
    corrupted = snapshot.replace('"generation":0', '"generation":1', 1)
    try:
        restore_session(corrupted)
    except ServiceError as exc:
        print(f"  ServiceError: {str(exc)[:80]}…")


if __name__ == "__main__":
    main()
