"""Shard executor: deterministic ordering, byte-identical fan-out, both start methods."""

import dataclasses
import multiprocessing

import pytest

from repro.dependencies.pd import PartitionDependency
from repro.errors import ServiceError
from repro.expressions.parser import parse_expression
from repro.relational.database import Database
from repro.relational.functional_dependencies import FunctionalDependency
from repro.relational.relations import Relation
from repro.service.executor import ShardExecutor
from repro.service.planner import execute_plan
from repro.service.session import Session
from repro.service.wire import QueryRequest, dump_result_line
from repro.workloads.random_service import random_service_requests

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _pd(text: str) -> PartitionDependency:
    return PartitionDependency.parse(text)


def _encoded(results):
    return [dump_result_line(r) for r in results]


@pytest.fixture(scope="module")
def stream():
    return random_service_requests(40, seed=31, theory_count=2, pds_per_theory=3)


@pytest.fixture(scope="module")
def reference(stream):
    return _encoded(execute_plan(Session(), stream))


def _request_of_kind(kind: str, method: str, i: int, deadline_ms=None) -> QueryRequest:
    """The ``i``-th of seven distinct same-group requests of one kind and method."""
    names = "CDEFGHI"
    fields: dict = {"dependencies": (_pd("A = A*B"), _pd("B = B*C"))}
    if kind in ("implies", "counterexample"):
        fields["query"] = _pd(f"A = A*{names[i]}")
    elif kind == "equivalent":
        fields.update(left=parse_expression("A"), right=parse_expression(f"A*{names[i]}"))
    elif kind == "fd_implies":
        fields = {
            "fds": (FunctionalDependency.parse("A -> B"),),
            "target": FunctionalDependency.parse(f"A -> {names[i]}"),
        }
    elif kind == "consistent":
        rows = [f"a{i}.b"]
        fields.update(method=method, database=Database([Relation.from_strings("r", "AB", rows)]))
    else:
        fields["pool"] = (parse_expression("A"), parse_expression(names[i]))
    return QueryRequest(kind=kind, id=f"q{i}", deadline_ms=deadline_ms, **fields)


class TestShardedExecution:
    def test_two_shards_byte_identical_to_in_process(self, stream, reference):
        with ShardExecutor(shards=2) as executor:
            assert _encoded(executor.execute_many(stream)) == reference

    def test_three_shards_byte_identical_and_ordered(self, stream, reference):
        with ShardExecutor(shards=3) as executor:
            results = executor.execute_many(stream)
        assert _encoded(results) == reference
        assert [r.id for r in results] == [r.id for r in stream]

    def test_each_miss_is_encoded_once_and_each_reply_decoded_once(
        self, stream, reference, monkeypatch
    ):
        import repro.service.executor as executor_module

        calls = {"encode": 0, "decode": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            executor_module, "dump_request_line", counted("encode", executor_module.dump_request_line)
        )
        monkeypatch.setattr(
            executor_module, "load_result_line", counted("decode", executor_module.load_result_line)
        )
        with ShardExecutor(shards=2) as executor:
            assert _encoded(executor.execute_many(stream)) == reference
            assert calls == {"encode": len(stream), "decode": len(stream)}
            # The repeat is answered from the shared tier: nothing crosses
            # the process boundary, so nothing is encoded or decoded.
            assert _encoded(executor.execute_many(stream)) == reference
            assert calls == {"encode": len(stream), "decode": len(stream)}

    def test_shared_cache_hits_carry_the_callers_ids(self, stream, reference):
        renamed = [dataclasses.replace(r, id=f"again-{r.id}") for r in stream]
        with ShardExecutor(shards=2) as executor:
            executor.execute_many(stream)
            results = executor.execute_many(renamed)
            assert executor.session.cache_info()["hits"] == len(stream)
        assert [r.id for r in results] == [r.id for r in renamed]
        assert _encoded(results) == _encoded(execute_plan(Session(), renamed))

    def test_more_shards_than_requests(self):
        requests = random_service_requests(3, seed=2)
        expected = _encoded(execute_plan(Session(), requests))
        with ShardExecutor(shards=8) as executor:
            assert _encoded(executor.execute_many(requests)) == expected

    def test_empty_stream(self):
        with ShardExecutor(shards=2) as executor:
            assert executor.execute_many([]) == []

    def test_session_dependencies_reach_workers(self):
        requests = [
            QueryRequest(kind="implies", id="q0", query=_pd("A = A*C")),
            QueryRequest(kind="implies", id="q1", query=_pd("C = C*A")),
        ]
        with ShardExecutor(shards=2, session=Session(["A = A*B", "B = B*C"])) as executor:
            results = executor.execute_many(requests)
        assert results[0].value == {"implied": True}
        assert results[1].value == {"implied": False}

    def test_a_gamma_write_after_boot_restarts_the_pool(self):
        """Workers keep the Γ they booted with, so a write reboots them.

        Without the reboot the second stream would be answered against the
        old Γ by the stale workers (the parent's cache stamps already miss).
        """
        requests = [
            QueryRequest(kind="implies", id="q0", query=_pd("A = A*C")),
            QueryRequest(kind="implies", id="q1", query=_pd("C = C*A")),
        ]
        with ShardExecutor(shards=2, session=Session(["A = A*B"])) as executor:
            booted = executor._pool
            assert [r.value for r in executor.execute_many(requests)] == [
                {"implied": False},
                {"implied": False},
            ]
            assert executor._pool is booted
            executor.session.add_dependencies(["B = B*C"], tenant=None)
            executor.session.add_dependencies(["C = C*A"], tenant="acme")
            tenanted = [dataclasses.replace(r, tenant="acme") for r in requests]
            results = executor.execute_many(requests + tenanted)
            assert executor._pool is not booted
            assert executor.metrics.value("supervisor.units_dispatched") > 0
        reference = Session(["A = A*B", "B = B*C"])
        reference.add_dependencies(["C = C*A"], tenant="acme")
        assert _encoded(results) == _encoded(execute_plan(reference, requests + tenanted))
        assert [r.value for r in results[:2]] == [{"implied": True}, {"implied": False}]
        assert results[3].value == {"implied": True}

    def test_the_shared_tier_is_the_sessions_cache(self, stream, reference):
        """A session handed to the executor keeps its answers: the shared tier
        is that session's cache, probed before any unit is dealt."""
        session = Session()
        execute_plan(session, stream)
        hits = session.cache_info()["hits"]
        with ShardExecutor(shards=2, session=session) as executor:
            assert _encoded(executor.execute_many(stream)) == reference
            assert executor.metrics.value("supervisor.units_dispatched") == 0
        assert session.cache_info()["hits"] == hits + len(stream)

    @pytest.mark.parametrize(
        "kind, method, sliced",
        [
            ("implies", "", True),
            ("equivalent", "", True),
            ("fd_implies", "", True),
            ("consistent", "weak_instance", True),
            ("consistent", "cad", False),
            ("quotient", "", False),
            ("counterexample", "", False),
        ],
    )
    @pytest.mark.parametrize("deadline_ms", [None, 60_000])
    def test_the_split_table(self, kind, method, sliced, deadline_ms):
        """Amortizing batches are dealt in at most ``shards`` slices; per-request
        kinds and every deadline-carrying batch in singletons.  The pool is lazy,
        so ``_work_units`` runs without booting one."""
        requests = [
            _request_of_kind(kind, method, i, deadline_ms=deadline_ms) for i in range(7)
        ]
        units = ShardExecutor(shards=3)._work_units(requests, set(range(len(requests))))
        if sliced and deadline_ms is None:
            assert units == [[0, 1, 2], [3, 4, 5], [6]]
        else:
            assert units == [[i] for i in range(7)]

    def test_pool_survives_multiple_execute_calls(self, stream, reference):
        with ShardExecutor(shards=2) as executor:
            first = _encoded(executor.execute_many(stream[:10]))
            second = _encoded(executor.execute_many(stream[:10]))
        assert first == second == reference[:10]


class TestStartMethods:
    @pytest.mark.skipif(not HAS_FORK, reason="platform has no fork start method")
    def test_fork_workers(self):
        requests = random_service_requests(12, seed=8)
        expected = _encoded(execute_plan(Session(), requests))
        with ShardExecutor(shards=2, start_method="fork") as executor:
            assert _encoded(executor.execute_many(requests)) == expected

    @pytest.mark.skipif(not HAS_FORK, reason="platform has no fork start method")
    def test_workers_boot_from_the_parents_payload(self, monkeypatch):
        """Workers restore from the dict the parent encoded, never from snapshot
        text: with the text decoder broken, forked workers still answer, and
        none of them crashes."""
        import repro.service.snapshot as snapshot_module

        requests = random_service_requests(12, seed=8)
        gamma = ["A = A*B", "B = B*C"]
        expected = _encoded(execute_plan(Session(gamma), requests))

        def refuse(text):
            raise ServiceError("a worker decoded snapshot text")

        monkeypatch.setattr(snapshot_module, "decode_snapshot", refuse)
        with ShardExecutor(shards=2, session=Session(gamma), start_method="fork") as executor:
            assert _encoded(executor.execute_many(requests)) == expected
            assert executor.metrics.value("supervisor.crashes") == 0

    def test_spawn_workers(self):
        # Spawn re-imports everything per worker; keep the stream tiny.
        requests = random_service_requests(6, seed=8)
        expected = _encoded(execute_plan(Session(), requests))
        with ShardExecutor(shards=2, start_method="spawn") as executor:
            assert _encoded(executor.execute_many(requests)) == expected


class TestValidation:
    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ServiceError):
            ShardExecutor(shards=0)

    def test_close_is_idempotent(self):
        executor = ShardExecutor(shards=1)
        executor.execute_many(random_service_requests(2, seed=1))
        executor.close()
        executor.close()
        # A closed executor transparently re-creates its pool.
        assert executor.execute_many(random_service_requests(2, seed=1))
        executor.close()
