"""Tests for repro.lattice.quotient — L_E fragments and finite counterexamples (Theorem 8)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dependencies.pd import PartitionDependency
from repro.errors import LatticeError
from repro.expressions.parser import parse_expression
from repro.implication.alg import pd_implies
from repro.lattice.quotient import finite_counterexample, quotient_fragment, theorem8_pool
from repro.workloads.random_dependencies import random_pd, random_pd_set
from repro.workloads.random_relations import attribute_names


class TestQuotientFragment:
    def test_classes_collapse_equivalent_expressions(self):
        pool = [parse_expression(t) for t in ["A", "B", "A*B", "B*A", "A*A*B"]]
        fragment = quotient_fragment([], pool)
        # A*B, B*A, A*A*B are all =_id equivalent: 3 classes remain (A, B, A*B).
        assert len(fragment) == 3

    def test_equations_merge_classes(self):
        pool = [parse_expression(t) for t in ["A", "B"]]
        fragment = quotient_fragment(["A = B"], pool)
        assert len(fragment) == 1

    def test_order_reflects_leq(self):
        pool = [parse_expression(t) for t in ["A", "A*B", "A+B"]]
        fragment = quotient_fragment([], pool)
        index = {str(r): i for i, r in enumerate(fragment.representatives)}
        assert fragment.leq(index["(A * B)"], index["A"])
        assert fragment.leq(index["A"], index["(A + B)"])
        assert not fragment.leq(index["A"], index["(A * B)"])

    def test_index_of(self):
        pool = [parse_expression(t) for t in ["A", "B", "A*B"]]
        fragment = quotient_fragment([], pool)
        assert fragment.index_of(parse_expression("B*A")) >= 0
        assert fragment.index_of(parse_expression("A + B")) == -1

    def test_shared_engine_accepts_any_dependency_order(self):
        # The engine contract compares PD *sets*: an engine whose dependency
        # list differs only in order (or repeats a member) must be accepted.
        from repro.implication.alg import ImplicationEngine

        pds = ["A = A*B", "B = B*C"]
        pool = [parse_expression(t) for t in ["A", "B", "C", "A*B"]]
        forward = quotient_fragment(pds, pool, engine=ImplicationEngine(pds))
        backward = quotient_fragment(pds, pool, engine=ImplicationEngine(list(reversed(pds))))
        assert forward.representatives == backward.representatives
        assert forward.order == backward.order
        with pytest.raises(LatticeError):
            quotient_fragment(pds, pool, engine=ImplicationEngine(["A = A*C"]))
        own = finite_counterexample(pds, "C = C*A")
        shared = finite_counterexample(pds, "C = C*A", engine=ImplicationEngine(list(reversed(pds))))
        assert (len(shared), shared.constants) == (len(own), own.constants)
        with pytest.raises(LatticeError):
            finite_counterexample(pds, "C = C*A", engine=ImplicationEngine(["A = A*C"]))


class TestFiniteCounterexample:
    def test_none_when_implied(self):
        assert finite_counterexample(["A = A*B", "B = B*C"], "A = A*C") is None

    def test_counterexample_for_unimplied_fpd(self):
        lattice = finite_counterexample(["A = A*B"], "B = B*A")
        assert lattice is not None
        assert lattice.satisfies("A = A*B")
        assert not lattice.satisfies("B = B*A")

    def test_counterexample_for_sum_query(self):
        lattice = finite_counterexample([], "A = A + B")
        assert lattice is not None
        assert not lattice.satisfies("A = A + B")

    def test_counterexample_satisfies_all_of_e(self):
        E = ["A = A*B", "C = C*B"]
        query = "A = A*C"
        assert not pd_implies(E, query)
        lattice = finite_counterexample(E, query)
        assert lattice is not None
        assert lattice.satisfies_all(E)
        assert not lattice.satisfies(query)

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(deadline=None)
    def test_theorem8_on_random_small_gamma(self, pd_count, seed):
        """``L_H`` exists iff ``Γ ⊭ q``, and then satisfies Γ and violates ``q``."""
        rng = random.Random(seed)
        gamma = random_pd_set(3, pd_count, rng, max_complexity=2)
        query = random_pd(attribute_names(3), rng, max_complexity=2)
        lattice = finite_counterexample(gamma, query)
        assert (lattice is None) == pd_implies(gamma, query)
        if lattice is not None:
            assert lattice.axiom_violations() == []
            assert lattice.satisfies_all(gamma)
            assert not lattice.satisfies(query)

    def test_pool_budget_enforced(self):
        with pytest.raises(LatticeError):
            theorem8_pool([], PartitionDependency.parse("A*(B+C*(D+E)) = A"), max_pool=10)

    def test_pool_contains_all_bounded_expressions(self):
        pool = theorem8_pool([], PartitionDependency.parse("A = A*B"))
        assert parse_expression("A") in pool
        assert parse_expression("B + A") in pool
        assert len(pool) == 2 + 8  # 2 attributes + 8 expressions with one operator
