"""The query service end to end: sessions, wire codecs, the planner and shards.

Walks the four layers of ``repro.service`` on one small workload:

1. a stateful :class:`~repro.service.session.Session` answering uniform
   ``QueryRequest → QueryResult`` calls over a growing Γ (watch the cached
   answers stop answering when Γ grows);
2. the wire codecs — the exact JSONL a deployment would ship;
3. the batch planner regrouping a mixed stream;
4. the multiprocess shard executor producing byte-identical results.

Run with ``python examples/query_service.py`` (needs ``src`` on the path,
e.g. ``PYTHONPATH=src``).
"""

from repro.dependencies.pd import PartitionDependency
from repro.service import (
    QueryRequest,
    Session,
    ShardExecutor,
    dump_request_line,
    dump_result_line,
    execute_plan,
    plan_summary,
)
from repro.workloads.random_service import random_service_requests


def main() -> None:
    print("== 1. A stateful session over Γ = {A = A·B, B = B·C} ==")
    session = Session(["A = A*B", "B = B*C"])
    transitive = QueryRequest(kind="implies", id="t", query=PartitionDependency.parse("A = A*C"))
    print("  A = A*C implied? ", session.execute(transitive).value)

    novel = QueryRequest(kind="implies", id="n", query=PartitionDependency.parse("A = A*D"))
    print("  A = A*D implied? ", session.execute(novel).value)
    session.add_dependencies(["C = C*D"])  # Γ grows: base-Γ cache entries go stale
    after = session.execute(novel)
    print("  ... after adding C = C*D:", after.value, f"(cached={after.cached})")

    print("\n== 2. The wire format (one JSONL line per request/result) ==")
    print("  request: ", dump_request_line(transitive))
    print("  result:  ", dump_result_line(session.execute(transitive)))

    print("\n== 3. A mixed 40-request stream through the batch planner ==")
    stream = random_service_requests(40, seed=11, theory_count=2, pds_per_theory=3)
    print("  plan:", plan_summary(stream))
    fresh = Session()
    results = execute_plan(fresh, stream)
    ok = sum(1 for r in results if r.ok)
    print(f"  answered {len(results)} requests ({ok} ok); cache: {fresh.cache_info()}")

    print("\n== 4. The same stream across 2 worker processes ==")
    with ShardExecutor(shards=2) as executor:
        sharded = executor.execute_many(stream)
    identical = [dump_result_line(a) for a in results] == [dump_result_line(b) for b in sharded]
    print(f"  byte-identical to the in-process run: {identical}")


if __name__ == "__main__":
    main()
