"""Cooperative deadlines: scope stack semantics and the kernel check hooks."""

import time

import pytest

from repro.consistency.cad import cad_consistency
from repro.deadline import DeadlineScope, active_deadlines, check_deadline, deadline_scope
from repro.errors import DeadlineExceeded, ReproError
from repro.implication import index as index_module
from repro.implication.alg import alg_closure
from repro.implication.index import ImplicationIndex
from repro.lattice.quotient import finite_counterexample
from repro.relational.chase_engine import chase_database_indexed
from repro.relational.database import Database
from repro.relational.functional_dependencies import parse_fd_set
from repro.relational.relations import Relation
from repro.sat.nae3sat import nae_backtracking
from repro.service.api import (
    consistent_request,
    counterexample_request,
    equivalent_request,
    implies_request,
    quotient_request,
)
from repro.service.session import DependencyContext, Session
from repro.workloads.random_formulas import random_3cnf
from tests.conftest import index_state


class TestScopeSemantics:
    def test_no_scope_is_a_no_op(self):
        check_deadline()  # must not raise outside any scope
        assert active_deadlines() == ()

    def test_none_budget_yields_none_and_pushes_nothing(self):
        with deadline_scope(None) as scope:
            assert scope is None
            assert active_deadlines() == ()
            check_deadline()

    def test_unexpired_scope_does_not_raise(self):
        with deadline_scope(60_000.0) as scope:
            assert isinstance(scope, DeadlineScope)
            assert active_deadlines() == (scope,)
            assert scope.remaining_ms() > 0
            assert not scope.expired()
            check_deadline()
        assert active_deadlines() == ()

    def test_expired_scope_raises_with_its_own_token(self):
        with deadline_scope(0.0) as scope:
            assert scope.expired()
            with pytest.raises(DeadlineExceeded) as info:
                check_deadline()
        assert info.value.scope is scope
        assert "deadline of 0 ms exceeded" in str(info.value)
        assert isinstance(info.value, ReproError)

    def test_scope_pops_even_after_expiry(self):
        with pytest.raises(DeadlineExceeded):
            with deadline_scope(0.0):
                check_deadline()
        assert active_deadlines() == ()
        check_deadline()

    def test_nested_scopes_report_earliest_expired(self):
        # The outer scope expires first on the wall clock; when both have
        # expired, the exception must carry the outer (earlier) token so the
        # enclosing handler — not the inner request — claims the expiry.
        with deadline_scope(0.0) as outer:
            time.sleep(0.002)
            with deadline_scope(0.5) as inner:
                time.sleep(0.002)
                assert outer.expired() and inner.expired()
                with pytest.raises(DeadlineExceeded) as info:
                    check_deadline()
        assert info.value.scope is outer

    def test_inner_expiry_leaves_outer_scope_usable(self):
        with deadline_scope(60_000.0) as outer:
            with deadline_scope(0.0) as inner:
                with pytest.raises(DeadlineExceeded) as info:
                    check_deadline()
            assert info.value.scope is inner
            check_deadline()  # outer budget still healthy
            assert active_deadlines() == (outer,)


class TestKernelHooks:
    """Every instrumented kernel aborts promptly under a pre-expired budget."""

    def test_finite_counterexample_honors_deadline(self):
        with deadline_scope(0.0):
            with pytest.raises(DeadlineExceeded):
                finite_counterexample(["A = A*B"], "C = C*D")

    def test_cad_consistency_honors_deadline(self):
        database = Database(
            [
                Relation.from_strings("R", "AB", ["a1.b1"]),
                Relation.from_strings("S", "AC", ["a1.c1"]),
            ]
        )
        with deadline_scope(0.0):
            with pytest.raises(DeadlineExceeded):
                cad_consistency(database, parse_fd_set(["A -> B"]))

    def test_nae_backtracking_honors_deadline(self):
        formula = random_3cnf(variable_count=8, clause_count=20, seed=5)
        with deadline_scope(0.0):
            with pytest.raises(DeadlineExceeded):
                nae_backtracking(formula)

    def test_chase_honors_deadline(self):
        database = Database.single(
            Relation.from_strings("R", "ABC", ["a1.b1.c1", "a1.b2.c2", "a2.b2.c3"])
        )
        with deadline_scope(0.0):
            with pytest.raises(DeadlineExceeded):
                chase_database_indexed(database, parse_fd_set(["A -> B", "B -> C"]))

    def test_implication_index_honors_deadline(self):
        with deadline_scope(0.0):
            with pytest.raises(DeadlineExceeded):
                ImplicationIndex(["A = A*(B+C)"])

    def test_interrupted_index_resumes_to_the_same_closure(self, monkeypatch):
        # A budget that expires mid-propagation leaves the queued deltas in
        # place; the next call finishes them and the closure is exact.  The
        # poll is replaced by one that fails after ``allowed`` calls, so the
        # interruption lands at every poll: each vertex creation and each pop.
        theory = ["A = A*(B+C)", "D = D*(A+E)"]
        queries = ["A*B", "A*(B+C)", "(A+D)*(B+E)"]
        oracle = alg_closure(theory, queries).as_expression_pairs()

        def grow(allowed):
            index = ImplicationIndex(theory)
            polls = []

            def poll():
                polls.append(None)
                if allowed is not None and len(polls) > allowed:
                    raise DeadlineExceeded(None, "test budget")

            with monkeypatch.context() as patch:
                patch.setattr(index_module, "check_deadline", poll)
                try:
                    with deadline_scope(60_000.0):
                        index.add_expressions(queries)
                except DeadlineExceeded:
                    pass
            return index, len(polls)

        _, total = grow(None)
        assert total > 5
        for allowed in range(total):
            index, polled = grow(allowed)
            assert polled == allowed + 1  # the last poll raised
            index.add_expressions(queries)
            assert index.leq("A*B", "A*(B+C)")
            assert index.as_expression_pairs() == oracle, allowed

    def test_interrupted_write_keeps_gamma_index_and_cache_in_step(self, monkeypatch):
        # A write stopped at any poll leaves the tenant's Γ equal to the PD
        # set the index committed, bumps the generation iff Γ grew, and the
        # warm session answers as a fresh one over that Γ (no stale cache).
        database = Database([Relation.from_strings("R", "ABC", ["a.b.c1", "a.b.c2"])])
        reads = [consistent_request(database), implies_request("A = A*C")]

        def write(allowed):
            session = Session(["A = A*B"])
            warm = [session.execute(read) for read in reads]
            polls = []

            def poll():
                polls.append(None)
                if allowed is not None and len(polls) > allowed:
                    raise DeadlineExceeded(None, "test budget")

            with monkeypatch.context() as patch:
                patch.setattr(index_module, "check_deadline", poll)
                try:
                    with deadline_scope(60_000.0):
                        session.add_dependencies(["B = B*C"])
                except DeadlineExceeded:
                    pass
            return session, warm, len(polls)

        _, _, total = write(None)
        assert total > 3
        for allowed in range(total + 1):
            session, warm, _ = write(allowed)
            context = session.context_for(reads[1])
            gamma = context.dependencies
            assert gamma == tuple(context.engine.dependencies), allowed
            assert (session.generation == 1) == (len(gamma) == 2), allowed
            fresh = Session(gamma)
            answers = [session.execute(read) for read in reads]
            assert answers == [fresh.execute(read) for read in reads], allowed
            assert (answers == warm) == (len(gamma) == 1), allowed

    def test_a_stopped_write_that_grew_gamma_bumps_the_context_generation(self, monkeypatch):
        # The context owns the cache stamp: a write stopped at any poll bumps
        # its generation exactly when the committed Γ changed.
        def write(allowed):
            context = DependencyContext(Session(["A = A*B"]).dependencies)
            context.engine  # noqa: B018 - a warm index, so the write resumes it
            polls = []

            def poll():
                polls.append(None)
                if allowed is not None and len(polls) > allowed:
                    raise DeadlineExceeded(None, "test budget")

            stopped = False
            with monkeypatch.context() as patch:
                patch.setattr(index_module, "check_deadline", poll)
                try:
                    with deadline_scope(60_000.0):
                        context.extend(Session(["B = B*C", "C = C*D"]).dependencies)
                except DeadlineExceeded:
                    stopped = True
            return context, stopped, len(polls)

        _, _, total = write(None)
        stopped_after_growth = 0
        for allowed in range(total + 1):
            context, stopped, _ = write(allowed)
            grew = len(context.dependencies) > 1
            assert context.generation == (1 if grew else 0), allowed
            stopped_after_growth += stopped and grew
        assert stopped_after_growth > 0

    @pytest.mark.parametrize(
        "read",
        [
            implies_request("(A+C)*D = D*(C+A*B)", deadline_ms=60_000),
            equivalent_request("A*(C+D)", "A*C+A*D", deadline_ms=60_000),
            quotient_request(["A", "C+D", "A*C", "B+C*D", "A*(B+C)"], deadline_ms=60_000),
            counterexample_request("C = C*A", deadline_ms=60_000),
        ],
        ids=lambda read: read.kind,
    )
    def test_interrupted_read_leaves_the_index_unchanged(self, monkeypatch, read):
        # A read stopped at any poll of the tenant's index leaves the index
        # exactly as it found it (no partial vertices), and the same session
        # then answers the read as a fresh one does.
        gamma = ["A = A*B", "B = B*C"]
        session = Session(gamma, result_cache_size=0)
        index = session.context_for(read).engine.index
        before = index_state(index)

        def interrupted(reader, allowed):
            polls = []

            def poll():
                polls.append(None)
                if allowed is not None and len(polls) > allowed:
                    raise DeadlineExceeded(None, "test budget")

            with monkeypatch.context() as patch:
                patch.setattr(index_module, "check_deadline", poll)
                try:
                    reader.execute(read)
                except DeadlineExceeded:
                    pass
            return len(polls)

        total = interrupted(Session(gamma, result_cache_size=0), None)
        assert total > 3
        for allowed in range(total):
            assert interrupted(session, allowed) == allowed + 1  # the last poll raised
            assert index_state(index) == before, allowed
        answer = session.execute(read)
        assert answer.ok and answer == Session(gamma).execute(read)
        assert index_state(index) == before

    def test_counterexample_request_times_out_inside_the_index(self):
        # The Theorem 8 pool here has 1055 expressions; collapsing it runs
        # entirely inside the ALG index, which must poll the request budget.
        session = Session(result_cache_size=0)
        request = counterexample_request(
            "A*B = A*(B+C)",
            dependencies=["A = A*(B+C)", "D = D*(A+E)"],
            max_pool=4000,
            deadline_ms=20,
        )
        started = time.monotonic()
        [result] = session.execute_many([request])
        elapsed_ms = (time.monotonic() - started) * 1000.0
        assert not result.ok and result.error["type"] == "Timeout"
        assert elapsed_ms < 250, elapsed_ms

    def test_kernels_run_normally_under_generous_budget(self):
        with deadline_scope(60_000.0):
            assert finite_counterexample(["A = A*B"], "A = A*B") is None
            formula = random_3cnf(variable_count=4, clause_count=6, seed=5)
            nae_backtracking(formula)
