"""The typed query API: request factories, typed answers, session methods.

The wire layer stays uniform (QueryRequest in, QueryResult out); this suite
pins the typed shim over it — ``session.implies(...)`` & co. accept objects
*or* wire-syntax strings, return frozen answer dataclasses with natural
coercions, carry the session's ``cached`` flag through, and raise
:class:`~repro.errors.QueryFailedError` where a stream would get an
``ok=false`` line.
"""

import pytest

from repro.dependencies.pd import PartitionDependency
from repro.errors import QueryFailedError, ServiceError
from repro.expressions.parser import parse_expression
from repro.service.api import (
    ConsistencyAnswer,
    CounterexampleAnswer,
    EquivalenceAnswer,
    ImplicationAnswer,
    QuotientAnswer,
    answer_for,
    consistent_request,
    counterexample_request,
    equivalent_request,
    implies_request,
    quotient_request,
)
from repro.service.session import Session
from repro.service.wire import MAX_EXPRESSION_OPERATORS, QueryResult, decode_database

#: One relation R[A,B] whose rows satisfy the FD A → B.
CONSISTENT_DB = {"relations": [{"name": "R", "attributes": ["A", "B"], "rows": [["a1", "b1"], ["a2", "b2"]]}]}
#: The same scheme with two rows violating A → B.
INCONSISTENT_DB = {"relations": [{"name": "R", "attributes": ["A", "B"], "rows": [["a1", "b1"], ["a1", "b2"]]}]}
#: "A determines B" as a PD (π_A = π_A ∧ π_B).
FD_A_TO_B = "A = A * B"


class TestRequestFactories:
    def test_implies_accepts_pd_objects_strings_and_expression_pairs(self):
        whole = implies_request(PartitionDependency.parse(FD_A_TO_B))
        from_text = implies_request(FD_A_TO_B)
        from_sides = implies_request("A", "A * B")
        assert whole.query == from_text.query == from_sides.query
        assert whole.kind == "implies"
        assert whole.dependencies is None  # defaults to the session's Γ

    def test_factories_coerce_string_dependencies(self):
        request = equivalent_request("A", "B", dependencies=["A = B"], id="e1")
        assert request.id == "e1"
        assert [str(pd) for pd in request.dependencies] == ["A = B"]
        assert request.left == parse_expression("A")

    def test_consistent_accepts_wire_payload_dicts_and_objects(self):
        from_dict = consistent_request(CONSISTENT_DB, dependencies=[FD_A_TO_B])
        from_object = consistent_request(decode_database(CONSISTENT_DB), dependencies=[FD_A_TO_B])
        assert from_dict.database == from_object.database
        assert from_dict.method == "weak_instance"

    def test_quotient_and_counterexample_shapes(self):
        quotient = quotient_request(["A", "B", "A * B"], dependencies=["A = B"])
        assert quotient.kind == "quotient"
        assert len(quotient.pool) == 3
        ce = counterexample_request(FD_A_TO_B, max_pool=50)
        assert ce.kind == "counterexample"
        assert ce.max_pool == 50

    def test_unparseable_inputs_raise_service_errors(self):
        with pytest.raises(ServiceError, match="cannot parse expression"):
            equivalent_request("A + + B", "A")
        with pytest.raises(ServiceError, match="cannot parse dependency"):
            implies_request("A = = B")

    def test_factories_hold_expressions_to_the_wire_operator_bound(self):
        deep = "A" + "*B" * (MAX_EXPRESSION_OPERATORS + 1)
        at_bound = "A" + "*B" * MAX_EXPRESSION_OPERATORS
        assert implies_request(f"A = {at_bound}").query.right.complexity() == MAX_EXPRESSION_OPERATORS
        with pytest.raises(ServiceError, match="exceeds the limit"):
            implies_request(f"A = {deep}")
        with pytest.raises(ServiceError, match="exceeds the limit"):
            equivalent_request("A", parse_expression(deep))
        with pytest.raises(ServiceError, match="exceeds the limit"):
            quotient_request(["A", deep])
        with pytest.raises(ServiceError, match="exceeds the limit"):
            counterexample_request("A = A", dependencies=[f"A = {deep}"])

    def test_session_refuses_an_unbounded_expression_with_a_service_error(self):
        with pytest.raises(ServiceError, match="exceeds the limit"):
            Session().implies("A = A" + "*B" * 3000)


class TestSessionMethods:
    def test_implies_both_verdicts_and_bool_coercion(self):
        session = Session(["A = A*B", "B = B*C"])
        positive = session.implies("A = A * C")
        negative = session.implies("C = C * A")
        assert isinstance(positive, ImplicationAnswer)
        assert positive.implied and bool(positive)
        assert not negative.implied and not bool(negative)

    def test_implies_expression_pair_shape(self):
        session = Session(["A = A*B"])
        assert session.implies("A", "A * B")
        assert not session.implies("B", "B * A")

    def test_equivalent_both_verdicts(self):
        session = Session(["A = B"])
        same = session.equivalent("A * C", "B * C")
        different = session.equivalent("A", "C")
        assert isinstance(same, EquivalenceAnswer)
        assert bool(same) and same.equivalent
        assert not bool(different)

    def test_consistent_both_verdicts_with_evidence(self):
        session = Session()
        good = session.consistent(CONSISTENT_DB, dependencies=[FD_A_TO_B])
        bad = session.consistent(INCONSISTENT_DB, dependencies=[FD_A_TO_B])
        assert isinstance(good, ConsistencyAnswer)
        assert good.consistent and bool(good)
        assert good.method == "weak_instance"
        assert good.witness_rows is not None
        assert not bad.consistent and not bool(bad)

    def test_quotient_counts_congruence_classes(self):
        session = Session()
        collapsed = session.quotient(["A", "B", "A * B"], dependencies=["A = B"])
        free = session.quotient(["A", "B"])
        assert isinstance(collapsed, QuotientAnswer)
        assert len(collapsed) == 1  # A ≡ B ≡ A*B under A = B
        assert len(free) == 2
        assert all(isinstance(c, str) for c in free.classes)

    def test_counterexample_both_verdicts(self):
        session = Session(["A = A*B"])
        refuted = session.counterexample("B = B * A")
        held = session.counterexample("A = A * B")
        assert isinstance(refuted, CounterexampleAnswer)
        assert not refuted.implied
        assert refuted.size is not None and refuted.size >= 1
        assert held.implied
        assert held.size is None

    def test_repeat_queries_surface_the_cached_flag(self):
        session = Session(["A = A*B"])
        first = session.implies("A = A * B")
        second = session.implies("A = A * B")
        assert not first.cached
        assert second.cached
        assert first.implied == second.implied

    def test_failed_queries_raise_typed_exceptions(self):
        session = Session()
        # CAD is only defined for FPD-only theories (Theorem 11): a proper
        # sum dependency must be rejected as a per-query failure.
        with pytest.raises(QueryFailedError) as excinfo:
            session.consistent(CONSISTENT_DB, method="cad", dependencies=["A = B + C"])
        assert excinfo.value.kind == "consistent"
        assert excinfo.value.details["type"] == "ConsistencyError"
        assert "functional partition dependency" in str(excinfo.value)


class TestAnswerFor:
    def test_every_kind_maps_to_its_dataclass(self):
        cases = {
            "implies": ({"implied": True}, ImplicationAnswer),
            "fd_implies": ({"implied": False}, ImplicationAnswer),
            "equivalent": ({"equivalent": True}, EquivalenceAnswer),
            "consistent": ({"consistent": True, "method": "weak_instance"}, ConsistencyAnswer),
            "quotient": ({"classes": ["A"], "order": []}, QuotientAnswer),
            "counterexample": ({"implied": True}, CounterexampleAnswer),
        }
        for kind, (value, cls) in cases.items():
            result = QueryResult(kind=kind, ok=True, id="x", value=value, cached=True)
            answer = answer_for(result)
            assert isinstance(answer, cls)
            assert answer.cached

    def test_unknown_kind_is_a_loud_error(self):
        with pytest.raises(ServiceError, match="no typed answer"):
            answer_for(QueryResult(kind="mystery", ok=True, id="x", value={}))

    def test_not_ok_results_raise_with_details(self):
        result = QueryResult(
            kind="implies", ok=False, id="x", error={"type": "Boom", "message": "bad day"}
        )
        with pytest.raises(QueryFailedError, match="bad day"):
            answer_for(result)
