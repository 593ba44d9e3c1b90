"""Session semantics: uniform queries, artifact sharing, and precise cache invalidation."""

import pytest

from repro.consistency.cad import cad_consistency_for_fpds
from repro.consistency.pd_consistency import pd_consistency
from repro.dependencies.pd import PartitionDependency
from repro.errors import ServiceError
from repro.expressions.parser import parse_expression
from repro.expressions.printer import to_infix
from repro.implication.alg import pd_implies
from repro.lattice.quotient import finite_counterexample, quotient_fragment
from repro.relational.database import Database
from repro.relational.functional_dependencies import FunctionalDependency
from repro.relational.relations import Relation
from repro.service import session as session_module
from repro.service.session import Session
from repro.service.wire import QueryRequest

GAMMA = ["A = A*B", "B = B*C"]


def _pd(text: str) -> PartitionDependency:
    return PartitionDependency.parse(text)


@pytest.fixture
def session() -> Session:
    return Session(GAMMA)


@pytest.fixture
def chain_database() -> Database:
    return Database(
        [
            Relation.from_strings("r", "AB", ["a.b", "a2.b"]),
            Relation.from_strings("s", "BC", ["b.c"]),
        ]
    )


class TestQueryKindsMatchDirectApis:
    def test_implies_matches_pd_implies(self, session):
        for text in ("A = A*C", "C = C*A", "B = B*C", "A + B = B + A"):
            result = session.execute(QueryRequest(kind="implies", query=_pd(text)))
            assert result.ok
            assert result.value == {"implied": pd_implies(GAMMA, text)}

    def test_equivalent_matches_both_direction_leq(self, session):
        left = parse_expression("A * B")
        right = parse_expression("A")
        result = session.execute(QueryRequest(kind="equivalent", left=left, right=right))
        assert result.value == {"equivalent": pd_implies(GAMMA, PartitionDependency(left, right))}

    def test_consistent_weak_instance_matches_pd_consistency(self, session, chain_database):
        result = session.execute(QueryRequest(kind="consistent", database=chain_database))
        direct = pd_consistency(chain_database, [_pd(t) for t in GAMMA])
        assert result.value["consistent"] == direct.consistent
        assert result.value["method"] == "weak_instance"
        if direct.consistent:
            assert result.value["witness_rows"] == len(direct.weak_instance)

    def test_consistent_cad_matches_direct_call(self, chain_database):
        deps = ["A = A*B"]
        session = Session(deps)
        result = session.execute(
            QueryRequest(kind="consistent", database=chain_database, method="cad")
        )
        direct = cad_consistency_for_fpds(chain_database, [_pd(d) for d in deps])
        assert result.value == {
            "consistent": direct.consistent,
            "method": "cad",
            "search_nodes": direct.search_nodes,
        }

    def test_quotient_matches_quotient_fragment(self, session):
        pool = tuple(parse_expression(t) for t in ("A", "A*B", "B", "A + B", "B*C"))
        result = session.execute(QueryRequest(kind="quotient", pool=pool))
        fragment = quotient_fragment([_pd(t) for t in GAMMA], pool)
        assert result.value["classes"] == [to_infix(r) for r in fragment.representatives]
        assert result.value["order"] == sorted([i, j] for (i, j) in fragment.order)

    def test_counterexample_matches_finite_counterexample(self):
        session = Session(["A = A*B"])
        implied = session.execute(QueryRequest(kind="counterexample", query=_pd("A = A*B")))
        assert implied.value == {"implied": True, "size": None, "constants": []}

        refuted = session.execute(
            QueryRequest(kind="counterexample", query=_pd("B = B*A"), max_pool=200)
        )
        lattice = finite_counterexample(["A = A*B"], "B = B*A", max_pool=200)
        assert refuted.value["implied"] is False
        assert refuted.value["size"] == len(lattice)
        assert refuted.value["constants"] == sorted(lattice.constants)

    def test_request_dependencies_override_session_gamma(self, session):
        request = QueryRequest(
            kind="implies", dependencies=(_pd("A = A*D"),), query=_pd("A = A*D")
        )
        assert session.execute(request).value == {"implied": True}
        # The same query against the session's Γ is not implied.
        assert session.execute(QueryRequest(kind="implies", query=_pd("A = A*D"))).value == {
            "implied": False
        }


class TestErrorsAndValidation:
    def test_malformed_request_raises(self, session):
        with pytest.raises(ServiceError):
            session.execute(QueryRequest(kind="implies"))
        with pytest.raises(ServiceError):
            session.execute(QueryRequest(kind="mystery", query=_pd("A = B")))

    def test_decision_procedure_failure_becomes_error_result(self, session, chain_database):
        # Session Γ contains non-FPD sums? No — GAMMA is FPD-shaped, so use a
        # sum dependency to make CAD's validation reject it.
        bad = Session(["C = A + B"])
        result = bad.execute(
            QueryRequest(kind="consistent", database=chain_database, method="cad")
        )
        assert not result.ok
        assert result.error["type"] == "ConsistencyError"
        assert result.value is None

    def test_error_results_are_not_cached(self, chain_database):
        bad = Session(["C = A + B"])
        request = QueryRequest(kind="consistent", database=chain_database, method="cad")
        first = bad.execute(request)
        second = bad.execute(request)
        assert not first.ok and not second.ok
        assert not second.cached


class TestResultCache:
    def test_cache_hit_returns_identical_value_with_new_id(self, session):
        first = session.execute(QueryRequest(kind="implies", id="a", query=_pd("A = A*C")))
        second = session.execute(QueryRequest(kind="implies", id="b", query=_pd("A = A*C")))
        assert not first.cached and second.cached
        assert second.id == "b"
        assert second.value == first.value
        info = session.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_growing_gamma_invalidates_exactly_base_results(self, session):
        base_request = QueryRequest(kind="implies", query=_pd("A = A*D"))
        foreign_request = QueryRequest(
            kind="implies", dependencies=(_pd("A = A*D"),), query=_pd("A = A*D")
        )
        assert session.execute(base_request).value == {"implied": False}
        assert session.execute(foreign_request).value == {"implied": True}
        assert session.cache_info()["size"] == 2

        session.add_dependencies(["C = C*D"])
        # The foreign-Γ entry survives; the base-Γ entry was evicted.
        assert session.execute(foreign_request).cached
        after = session.execute(base_request)
        assert not after.cached
        # And the verdict actually changed — stale cache would have been wrong.
        assert after.value == {"implied": True}
        assert session.generation == 1

    def test_fd_implies_results_survive_gamma_growth(self, session):
        request = QueryRequest(
            kind="fd_implies",
            fds=(FunctionalDependency.parse("A -> B"), FunctionalDependency.parse("B -> C")),
            target=FunctionalDependency.parse("A -> C"),
        )
        assert session.execute(request).value == {"implied": True}
        session.add_dependencies(["D = D*E"])
        # FD implication ignores Γ, so its cache entry must not be evicted.
        assert session.execute(request).cached

    def test_cache_disabled_session(self):
        session = Session(GAMMA, result_cache_size=0)
        request = QueryRequest(kind="implies", query=_pd("A = A*C"))
        assert not session.execute(request).cached
        assert not session.execute(request).cached
        assert session.cache_info()["size"] == 0

    def test_lru_eviction_bound(self):
        session = Session(GAMMA, result_cache_size=3)
        for name in ("D", "E", "F", "G", "H"):
            session.execute(QueryRequest(kind="implies", query=_pd(f"A = A*{name}")))
        assert session.cache_info()["size"] == 3

    def test_cache_info_counts_stores_and_evictions(self):
        session = Session(GAMMA, result_cache_size=2)
        for name in ("D", "E", "F"):
            session.execute(QueryRequest(kind="implies", query=_pd(f"A = A*{name}")))
        info = session.cache_info()
        assert info["stores"] == 3
        assert info["evictions"] == 1
        assert info["size"] == 2


class TestFreshAttributeCollisions:
    def test_column_named_like_a_fresh_attribute_answers_like_any_other(self):
        def database(column):
            rows = [{"A": "a", column: "x"}, {"A": "a", column: "y"}]
            return Database.single(Relation.from_rows("r", ["A", column], rows))

        session = Session(["A = B*C"])
        renamed = session.consistent(database("Q"))
        colliding = session.consistent(database("Z1"))
        assert renamed.consistent and colliding.consistent
        assert colliding.witness_rows == renamed.witness_rows == 2


class TestSharedArtifacts:
    def test_base_context_artifacts_are_shared_between_queries(self, session, chain_database):
        context = session.context_for(QueryRequest(kind="implies", query=_pd("A = A*B")))
        engine_before = context.engine
        session.execute(QueryRequest(kind="consistent", database=chain_database))
        chase_before = context.chase_engine
        session.execute(QueryRequest(kind="consistent", database=chain_database), use_cache=False)
        assert context.engine is engine_before
        assert context.chase_engine is chase_before

    def test_add_dependencies_resets_chase_but_resumes_engine(self, session, chain_database):
        context = session.context_for(QueryRequest(kind="implies", query=_pd("A = A*B")))
        engine_before = context.engine
        session.execute(QueryRequest(kind="consistent", database=chain_database))
        session.add_dependencies(["C = C*D"])
        assert context.engine is engine_before  # incremental resume, not rebuild
        assert context.dependencies[-1] == _pd("C = C*D")

    def test_foreign_context_lru_bound(self, monkeypatch):
        monkeypatch.setattr(session_module, "FOREIGN_CONTEXT_LIMIT", 2)
        session = Session(GAMMA)
        for name in ("D", "E", "F"):
            request = QueryRequest(
                kind="implies", dependencies=(_pd(f"A = A*{name}"),), query=_pd("A = A*B")
            )
            session.execute(request)
        assert session.cache_info()["foreign_contexts"] == 2

    def test_execute_many_matches_execute(self, session, chain_database):
        requests = [
            QueryRequest(kind="implies", id=f"i{k}", query=_pd(f"A = A*{n}"))
            for k, n in enumerate("BCDE")
        ] + [QueryRequest(kind="consistent", id="c0", database=chain_database)]
        batched = Session(GAMMA).execute_many(requests, batch=True)
        sequential = Session(GAMMA).execute_many(requests, batch=False)
        assert [(r.id, r.ok, r.value) for r in batched] == [
            (r.id, r.ok, r.value) for r in sequential
        ]
