"""Observability end-to-end: trace trees, kernel counters, the metrics registry.

The telemetry layer watches the service without changing it — trace ids stay
out of cache keys and results, and a traced stream answers byte-identically
to an untraced one.  This walk covers the whole surface:

1. kernel profiling counters, ticked on the deadline-check sites inside a
   ``profiling.profile()`` scope;
2. a traced file-mode stream: per-request span trees (root → plan / execute
   / respond, each child inside its root on one timeline), the per-work-unit
   cost log, and the ``--metrics-dir`` dump;
3. the unified metrics registry export (canonical JSON);
4. byte-identity of the traced run against an untraced one.

Run with ``python examples/observability.py`` (needs ``src`` on the path,
e.g. ``PYTHONPATH=src``).
"""

import json
import tempfile
from pathlib import Path

from repro import profiling
from repro.relational.database import Database
from repro.relational.relations import Relation
from repro.service import Session, ServiceConfig, consistent_request, telemetry
from repro.service.cli import serve_lines
from repro.service.wire import requests_to_jsonl
from repro.workloads.random_service import random_service_requests


def main() -> None:
    print("== 1. Kernel profiling counters ==")
    session = Session(["A = A*B", "B = B*C"])
    database = Database([Relation.from_strings("R", "ABC", ["a.b.c", "a.b2.c", "a2.b.c2"])])
    request = consistent_request(database, dependencies=["A = A*B"], id="probe")
    with profiling.profile() as prof:
        result = session.execute(request)
    print(f"  consistent: ok={result.ok} value={result.value}")
    print(f"  kernel counters: {prof.as_dict()}")

    print("\n== 2. A traced stream with a metrics directory ==")
    requests = random_service_requests(
        40, seed=7, kind_weights={"implies": 5, "consistent": 3, "counterexample": 1}
    )
    lines = requests_to_jsonl(requests).strip().split("\n")
    untraced, _ = serve_lines(lines, config=ServiceConfig())
    with tempfile.TemporaryDirectory() as directory:
        traced, _ = serve_lines(
            lines, config=ServiceConfig(trace=True, metrics_dir=directory)
        )
        spans, cost, metrics = (
            [json.loads(l) for l in (Path(directory) / name).read_text(encoding="utf-8").splitlines()]
            for name in ("trace.jsonl", "costlog.jsonl", "metrics.jsonl")
        )
    telemetry.reset()

    roots = [s for s in spans if s["span"].endswith(".r")]
    print(f"  {len(spans)} spans recorded, {len(roots)} request roots")
    root = roots[0]
    children = [s for s in spans if s.get("parent") == root["span"]]
    print(f"  one tree: root {root['span']} ({root['attrs']['kind']}, ok={root['attrs']['ok']})")
    root_end = root["start_ms"] + root["duration_ms"]
    for child in sorted(children, key=lambda s: s["start_ms"]):
        print(f"    └─ {child['name']:<9} {child['duration_ms']:.3f} ms")
        # one timeline: each child lies inside its root (stamps are rounded to 1 µs)
        assert root["start_ms"] - 0.002 <= child["start_ms"]
        assert child["start_ms"] + child["duration_ms"] <= root_end + 0.002

    print(f"\n  {len(cost)} work-unit cost records; the busiest:")
    busiest = max(cost, key=lambda r: sum(r["kernel"].values()))
    print(f"    {json.dumps(busiest)}")

    print("\n== 3. The unified metrics document ==")
    counters = metrics[-1]["counters"]
    for name in sorted(counters):
        print(f"  {name} = {counters[name]}")

    print("\n== 4. Telemetry never changes an answer ==")
    print(f"  traced result lines == untraced result lines: {traced == untraced}")


if __name__ == "__main__":
    main()
