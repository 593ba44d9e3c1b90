"""EXP-FLT: fault tolerance — supervised execution and restart-to-warm latency.

The supervised worker pool — liveness sentinels, reply validation, dynamic
unit dealing, the retry/split/quarantine ladder — must never change an
answer, and a worker crashed mid-stream comes back *warm* (snapshot-shipped
restore) fast enough that the stream's wall clock barely moves.  Series on
the 200-request acceptance-shaped mix:

* **fault-free** — the supervised :class:`ShardExecutor`, building its worker
  pool inside the timed region (process spawn and warm-up included).
* **restart-to-warm** — the supervised executor with snapshot-shipped
  workers, (a) fault-free and (b) under a seeded plan that SIGKILLs worker 0
  on its first unit (incarnation 0 only — a transient crash).  The timed
  difference is the cost of detecting the crash, respawning from the
  snapshot and retrying the lost unit.

Every round asserts byte-identity against the in-process planner pipeline —
supervision and recovery must never change an answer.
"""

import pytest

from repro.service.executor import ShardExecutor
from repro.service.faults import Fault, FaultPlan
from repro.service.planner import execute_plan
from repro.service.session import Session
from repro.service.snapshot import dump_snapshot
from repro.service.supervisor import supervision_stats
from repro.service.wire import dump_result_line
from repro.workloads.random_service import random_service_requests

#: The acceptance-shaped mix: 200 mixed requests over two small theories.
STREAM_COUNT = 200

#: A transient crash: worker 0 dies starting its first unit, first life only.
CRASH_ONCE = FaultPlan(
    seed=20260617, faults=(Fault(kind="crash_worker", worker=0, unit=0, incarnation=0),)
)


def _stream(seed: int):
    return random_service_requests(
        STREAM_COUNT,
        seed=seed,
        attribute_count=5,
        theory_count=2,
        pds_per_theory=3,
        max_complexity=2,
        kind_weights={"implies": 5, "equivalent": 3, "consistent": 3, "counterexample": 1},
    )


def _expected(requests):
    return [dump_result_line(result) for result in execute_plan(Session(), requests)]


def _answer_lines(executor, requests):
    return [dump_result_line(result) for result in executor.execute_many(requests)]


@pytest.mark.benchmark(group="EXP-FLT fault-free: supervised executor")
def test_supervised_fault_free(benchmark, rng_seed):
    requests = _stream(rng_seed)
    expected = _expected(requests)

    def run():
        with ShardExecutor(shards=2) as executor:
            return _answer_lines(executor, requests)

    assert benchmark(run) == expected


@pytest.mark.benchmark(group="EXP-FLT restart-to-warm: snapshot-shipped workers, transient crash")
@pytest.mark.parametrize("mode", ["fault_free", "crash_once"])
def test_restart_to_warm(benchmark, mode, rng_seed):
    requests = _stream(rng_seed)
    expected = _expected(requests)
    snapshot = dump_snapshot(Session())
    fault_plan = CRASH_ONCE.to_json() if mode == "crash_once" else None

    def run():
        with ShardExecutor(shards=2, snapshot=snapshot, fault_plan=fault_plan) as executor:
            return _answer_lines(executor, requests), supervision_stats(executor.metrics)

    out, stats = benchmark(run)
    assert out == expected  # recovery never changes an answer
    if mode == "crash_once":
        assert stats["crashes"] == 1
        assert stats["restarts"] == 1
