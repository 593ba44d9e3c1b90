"""Planner properties: stable grouping, byte-identical results, real amortization."""

from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest

from repro.consistency.normalization import normalize_dependencies
from repro.deadline import deadline_scope
from repro.dependencies.pd import PartitionDependency
from repro.errors import DeadlineExceeded
from repro.expressions.parser import parse_expression
from repro.implication.alg import ImplicationEngine
from repro.implication.index import ImplicationIndex
from repro.relational.database import Database
from repro.relational.functional_dependencies import FunctionalDependency
from repro.relational.relations import Relation
from repro.service.planner import (
    execute_plan,
    naive_dispatch,
    plan,
    plan_summary,
)
from repro.service.session import Session
from repro.service.wire import QueryRequest, dump_result_line
from repro.workloads.random_service import random_service_requests


def _pd(text: str) -> PartitionDependency:
    return PartitionDependency.parse(text)


def _encoded(results):
    return [dump_result_line(r) for r in results]


class TestPlanShape:
    def test_groups_by_kind_and_dependency_set(self):
        gamma1 = (_pd("A = A*B"),)
        gamma2 = (_pd("B = B*C"),)
        requests = [
            QueryRequest(kind="implies", dependencies=gamma1, query=_pd("A = A*B")),
            QueryRequest(kind="implies", dependencies=gamma2, query=_pd("B = B*C")),
            QueryRequest(kind="implies", dependencies=gamma1, query=_pd("B = B*A")),
            QueryRequest(kind="equivalent", dependencies=gamma1, left=_pd("A=A").left, right=_pd("B=B").left),
        ]
        batches = plan(requests)
        assert [(b.kind, b.indices) for b in batches] == [
            ("implies", (0, 2)),
            ("implies", (1,)),
            ("equivalent", (3,)),
        ]

    def test_consistency_methods_do_not_mix(self):
        db = Database([Relation.from_strings("r", "AB", ["a.b"])])
        requests = [
            QueryRequest(kind="consistent", database=db, method="weak_instance"),
            QueryRequest(kind="consistent", database=db, method="cad"),
            QueryRequest(kind="consistent", database=db, method="weak_instance"),
        ]
        batches = plan(requests)
        assert [(b.method, b.indices) for b in batches] == [
            ("weak_instance", (0, 2)),
            ("cad", (1,)),
        ]

    def test_fd_implies_groups_on_fd_set(self):
        sigma1 = (FunctionalDependency.parse("A -> B"),)
        sigma2 = (FunctionalDependency.parse("B -> C"),)
        target = FunctionalDependency.parse("A -> B")
        requests = [
            QueryRequest(kind="fd_implies", fds=sigma1, target=target),
            QueryRequest(kind="fd_implies", fds=sigma2, target=target),
            QueryRequest(kind="fd_implies", fds=sigma1, target=FunctionalDependency.parse("A -> A")),
        ]
        batches = plan(requests)
        assert [b.indices for b in batches] == [(0, 2), (1,)]

    def test_plan_summary(self):
        requests = random_service_requests(40, seed=13, theory_count=2)
        summary = plan_summary(requests)
        assert summary["requests"] == 40
        assert summary["batches"] >= 2
        assert sum(summary["requests_per_kind"].values()) == 40
        assert summary["largest_batch"] <= 40


class TestByteIdenticalResults:
    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_planner_equals_naive_and_sequential_on_mixed_streams(self, seed):
        requests = random_service_requests(
            60, seed=seed, include_cad=True, theory_count=3, pds_per_theory=3
        )
        planned = _encoded(execute_plan(Session(), requests))
        sequential = _encoded(Session().execute_many(requests, batch=False))
        naive = _encoded(naive_dispatch(requests))
        assert planned == sequential == naive

    def test_results_preserve_input_order_and_ids(self):
        requests = random_service_requests(25, seed=5)
        results = execute_plan(Session(), requests)
        assert [r.id for r in results] == [f"q{i}" for i in range(25)]

    def test_base_gamma_stream_against_session_dependencies(self):
        requests = [
            QueryRequest(kind="implies", id=f"q{i}", query=_pd(f"A = A*{n}"))
            for i, n in enumerate("BCDBC")
        ]
        session = Session(["A = A*B", "B = B*C"])
        planned = _encoded(execute_plan(session, requests))
        naive = _encoded(naive_dispatch(requests, ["A = A*B", "B = B*C"]))
        assert planned == naive

    def test_chunking_boundary_exact(self):
        # A group larger than the old 8-query chunk must answer every query.
        count = 19
        gamma = (_pd("A = A*B"), _pd("B = B*C"))
        requests = [
            QueryRequest(kind="implies", id=f"q{i}", dependencies=gamma, query=_pd("A = A*C"))
            if i % 2
            else QueryRequest(kind="implies", id=f"q{i}", dependencies=gamma, query=_pd("C = C*A"))
            for i in range(count)
        ]
        results = execute_plan(Session(), requests)
        assert len(results) == count
        for i, result in enumerate(results):
            assert result.value == {"implied": bool(i % 2)}


class TestAmortization:
    """The planner's win over naive dispatch, pinned as a count of per-Γ builds."""

    @staticmethod
    def _builds(run):
        """(ALG engines, Theorem 12 normalizations) built by ``run()``, counted per Γ."""
        with mock.patch.object(
            ImplicationEngine, "__init__", autospec=True, side_effect=ImplicationEngine.__init__
        ) as engines, mock.patch(
            "repro.service.session.normalize_dependencies", side_effect=normalize_dependencies
        ) as normalizations:
            run()
        return (
            Counter(tuple(call.args[1]) for call in engines.call_args_list),
            Counter(tuple(call.args[0]) for call in normalizations.call_args_list),
        )

    def test_planner_builds_once_per_gamma_what_naive_builds_per_request(self):
        requests = random_service_requests(
            60,
            seed=20260617,
            theory_count=2,
            pds_per_theory=8,
            max_complexity=3,
            kind_weights={"implies": 5, "equivalent": 3, "consistent": 3},
        )
        per_gamma = Counter(request.dependencies for request in requests)
        consistency = Counter(r.dependencies for r in requests if r.kind == "consistent")
        assert len(per_gamma) == 2 and len(consistency) == 2

        engines, normalizations = self._builds(lambda: execute_plan(Session(), requests))
        # one engine per distinct Γ, plus the session's own (empty) base Γ
        assert engines == Counter({(): 1, **dict.fromkeys(per_gamma, 1)})
        assert normalizations == Counter(dict.fromkeys(consistency, 1))

        engines, normalizations = self._builds(lambda: naive_dispatch(requests))
        # a fresh session per request: its base Γ and the request's Γ, every time
        assert engines == Counter({(): len(requests), **per_gamma})
        assert normalizations == consistency


class TestCacheInterplay:
    def test_second_plan_run_is_fully_cached(self):
        requests = random_service_requests(30, seed=9, theory_count=2)
        session = Session()
        first = execute_plan(session, requests)
        second = execute_plan(session, requests)
        assert _encoded(first) == _encoded(second)
        oks = [r for r in first if r.ok]
        assert all(r.cached for r, f in zip(second, first) if f.ok)
        assert session.cache_info()["hits"] >= len(oks)

    def test_misses_counted_once_per_uncached_request(self):
        db = Database([Relation.from_strings("r", "AB", ["a.b"])])
        requests = [
            QueryRequest(kind="consistent", id="c", database=db),
            QueryRequest(kind="implies", id="i", query=_pd("A = A*B")),
        ]
        session = Session(["A = A*B"])
        execute_plan(session, requests)
        info = session.cache_info()
        assert info["misses"] == 2  # one probe per uncached request, not two
        assert info["hits"] == 0

    def test_duplicate_requests_within_one_stream_hit_cache(self):
        request = QueryRequest(kind="implies", query=_pd("A = A*B"))
        session = Session(["A = A*B"])
        results = execute_plan(session, [request.with_id("a"), request.with_id("b")])
        assert results[0].value == results[1].value == {"implied": True}
        assert results[1].id == "b"
        assert results[1].cached  # deduped within the batch, not recomputed

    def test_duplicate_expensive_requests_compute_once(self, monkeypatch):
        import repro.service.session as session_module

        calls = {"n": 0}
        real = session_module.finite_counterexample

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(session_module, "finite_counterexample", counting)
        request = QueryRequest(
            kind="counterexample",
            dependencies=(_pd("A = A*B"),),
            query=_pd("B = B*A"),
            max_pool=200,
        )
        results = execute_plan(
            Session(), [request.with_id("a"), request.with_id("b"), request.with_id("c")]
        )
        assert calls["n"] == 1  # one L_H construction for three identical requests
        assert [r.id for r in results] == ["a", "b", "c"]
        assert results[0].value == results[1].value == results[2].value
        assert results[1].cached and results[2].cached


class TestKernelFailureFallback:
    """A grouped kernel that raises falls back to per-request dispatch, one miss each."""

    @pytest.mark.parametrize(
        "kernel, requests",
        [
            (
                "lattice_word_problems",
                [
                    QueryRequest(kind="implies", id="a", query=_pd("A = A*C")),
                    QueryRequest(kind="implies", id="b", query=_pd("C = C*A")),
                ],
            ),
            (
                "fd_implies_all_via_pds",
                [
                    QueryRequest(
                        kind="fd_implies",
                        id=name,
                        fds=(FunctionalDependency.parse("A -> B"),),
                        target=FunctionalDependency.parse(target),
                    )
                    for name, target in (("a", "A -> B"), ("b", "B -> A"))
                ],
            ),
        ],
    )
    def test_fallback_counts_each_miss_once_and_answers_like_execute(self, kernel, requests):
        def broken(*args, **kwargs):
            raise RuntimeError("kernel failure")

        session = Session(["A = A*B", "B = B*C"])
        with mock.patch(f"repro.service.planner.{kernel}", broken):
            planned = execute_plan(session, requests)
        assert session.cache_info()["misses"] == len(requests)
        one_by_one = Session(["A = A*B", "B = B*C"])
        assert _encoded(planned) == _encoded([one_by_one.execute(r) for r in requests])


class TestWarmIndexOverlay:
    """Implication groups answer on the tenant's warm index and leave it unchanged."""

    GAMMAS = {None: ["A = A*B", "B = B*C"], "acme": ["C = C*D", "D = A+B"]}

    def _warm_session(self) -> Session:
        session = Session(self.GAMMAS[None])
        session.add_dependencies(self.GAMMAS["acme"], tenant="acme")
        for tenant in self.GAMMAS:  # build and warm both tenants' indexes
            session.execute(QueryRequest(kind="implies", tenant=tenant, query=_pd("A = A*B")))
        return session

    def _window(self) -> list[QueryRequest]:
        requests = []
        for tenant in self.GAMMAS:
            for i, text in enumerate(["A = A*C", "C = C*A", "D = D*(A+B)", "(A+C)*D = D*(C+E)"]):
                requests.append(
                    QueryRequest(kind="implies", id=f"{tenant}-i{i}", tenant=tenant, query=_pd(text))
                )
            for i, (left, right) in enumerate([("A*C", "A"), ("D", "A+B"), ("C+E", "E+C*D")]):
                requests.append(
                    QueryRequest(
                        kind="equivalent",
                        id=f"{tenant}-e{i}",
                        tenant=tenant,
                        left=parse_expression(left),
                        right=parse_expression(right),
                    )
                )
        return requests

    def _index_states(self, session: Session) -> dict:
        states = {}
        for tenant in self.GAMMAS:
            probe = QueryRequest(kind="implies", tenant=tenant, query=_pd("A = A"))
            index = session.context_for(probe).engine.index
            states[tenant] = (index.vertex_count, index.export_state())
        return states

    def test_window_builds_no_engine_and_leaves_each_index_unchanged(self):
        session = self._warm_session()
        requests = self._window()
        before = self._index_states(session)
        with mock.patch.object(
            ImplicationEngine, "__init__", autospec=True, side_effect=ImplicationEngine.__init__
        ) as engines, mock.patch.object(
            ImplicationIndex, "__init__", autospec=True, side_effect=ImplicationIndex.__init__
        ) as indexes:
            planned = execute_plan(session, requests)
        assert engines.call_count == indexes.call_count == 0
        assert self._index_states(session) == before
        naive = []
        for request in requests:  # naive_dispatch knows one Γ: run each tenant's as the default
            [result] = naive_dispatch([replace(request, tenant=None)], self.GAMMAS[request.tenant])
            naive.append(result)
        assert _encoded(planned) == _encoded(naive)

    def test_expiring_window_budget_leaves_each_index_unchanged(self):
        session = self._warm_session()
        requests = self._window()
        before = self._index_states(session)
        with pytest.raises(DeadlineExceeded) as excinfo:
            with deadline_scope(0):  # the micro-batcher's window budget, already spent
                execute_plan(session, requests)
        # The budget ran out inside the overlay, while it registered query vertices.
        assert {"lattice_word_problems", "_register"} <= {entry.name for entry in excinfo.traceback}
        assert self._index_states(session) == before
        again = execute_plan(session, requests)
        assert self._index_states(session) == before
        assert _encoded(again) == _encoded(execute_plan(self._warm_session(), requests))
