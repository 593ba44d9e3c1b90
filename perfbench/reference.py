"""Reference answers, computed in a child interpreter so the serving process's
memory high-water mark never includes them.

Reads one JSON document on stdin and writes the expected result lines, as a
JSON list, on stdout:

* ``{"naive": [request line, ...]}`` — :func:`repro.service.planner.naive_dispatch`
  (a fresh session per request);
* ``{"replay": {"theories": {tenant: [pd, ...]}, "windows": [[request line, ...], ...],
  "writes": [[[tenant, pd], ...], ...]}}`` — the windows answered one request
  at a time (``execute_many(batch=False)``) on a fresh
  ``Session(result_cache_size=0)``, with each window's writes applied after it.
"""

import json
import sys

from repro.service.planner import naive_dispatch
from repro.service.session import Session
from repro.service.wire import decode_pd, dump_result_line, load_request_line


def naive(lines: list[str]) -> list[str]:
    return [dump_result_line(result) for result in naive_dispatch([load_request_line(line) for line in lines])]


def replay(job: dict) -> list[str]:
    session = Session(result_cache_size=0)
    for tenant, theory in job["theories"].items():
        session.add_dependencies([decode_pd(pd) for pd in theory], tenant=tenant)
    expected: list[str] = []
    for window, writes in zip(job["windows"], job["writes"]):
        requests = [load_request_line(line) for line in window]
        expected.extend(dump_result_line(result) for result in session.execute_many(requests, batch=False))
        for tenant, pd in writes:
            session.add_dependencies([decode_pd(pd)], tenant=tenant)
    return expected


def main() -> int:
    job = json.loads(sys.stdin.read())
    expected = naive(job["naive"]) if "naive" in job else replay(job["replay"])
    json.dump(expected, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
