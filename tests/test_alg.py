"""Tests for repro.implication.alg — the ALG decision procedure (Theorem 9, §5.2)."""

import random

from hypothesis import given, settings

from repro.dependencies.conversion import fd_to_pd, fds_to_pds
from repro.dependencies.pd import PartitionDependency
from repro.implication.alg import (
    ImplicationEngine,
    alg_closure,
    alg_closure_naive,
    pd_equivalent,
    pd_implies,
    pd_implies_all,
    pd_leq,
)
from repro.implication.identities import identically_leq
from repro.relational.functional_dependencies import implies as fd_implies
from repro.workloads.random_dependencies import random_fd_set, random_pd_set
from repro.workloads.random_expressions import random_expression

from tests.conftest import expressions


class TestBasicImplication:
    def test_empty_e_reduces_to_identities(self):
        assert pd_implies([], "A * (A + B) = A")
        assert not pd_implies([], "A = B")

    def test_fd_style_transitivity(self):
        E = ["A = A*B", "B = B*C"]
        assert pd_leq(E, "A", "C")
        assert pd_implies(E, "A = A*C")
        assert not pd_implies(E, "C = C*A")

    def test_sum_pd_consequences(self):
        E = ["C = A + B"]
        assert pd_leq(E, "A", "C")
        assert pd_leq(E, "B", "C")
        assert pd_implies(E, "C = B + A")
        assert pd_implies(E, "C + A = C")
        assert not pd_leq(E, "C", "A")

    def test_equation_used_both_directions(self):
        E = ["A = B"]
        assert pd_leq(E, "A", "B") and pd_leq(E, "B", "A")
        assert pd_implies(E, "B = A")

    def test_mixed_sum_and_product(self):
        # C = A + B and A = A*D, B = B*D imply C = C*D (C <= D).
        E = ["C = A + B", "A = A*D", "B = B*D"]
        assert pd_implies(E, "C = C*D")

    def test_theorem4_equivalent_formulations(self):
        # From the discussion after Theorem 4: C = A + B is equivalent to
        # {C = C*(A+B), A = A*C, B = B*C}.
        E1 = ["C = A + B"]
        E2 = ["C = C*(A+B)", "A = A*C", "B = B*C"]
        assert pd_implies_all(E1, E2)
        assert pd_implies_all(E2, E1)
        assert pd_equivalent(E1, E2)

    def test_example_f_equivalence(self):
        # X = Y·Z is equivalent to {X = X·Y·Z, Y·Z = Y·Z·X} (Example f).
        E1 = ["A = B*C"]
        E2 = ["A = A*B*C", "B*C = B*C*A"]
        assert pd_equivalent(E1, E2)

    def test_absorption_consequences_with_e(self):
        E = ["A = B + C"]
        assert pd_implies(E, "A * B = B")
        assert pd_implies(E, "A + B = A")


class TestAgreementWithOtherDeciders:
    def test_agrees_with_fd_closure_on_fpds(self):
        rng = random.Random(7)
        for trial in range(20):
            fds = random_fd_set(4, rng.randint(1, 4), seed=rng.randint(0, 10**6), max_side=2)
            target = random_fd_set(4, 1, seed=rng.randint(0, 10**6), max_side=2)[0]
            expected = fd_implies(fds, target)
            assert pd_implies(fds_to_pds(fds), fd_to_pd(target)) == expected

    def test_empty_e_agrees_with_identity_checker(self):
        rng = random.Random(11)
        universe = ["A", "B", "C"]
        for trial in range(30):
            left = random_expression(universe, rng.randint(0, 10**6), 3)
            right = random_expression(universe, rng.randint(0, 10**6), 3)
            assert pd_leq([], left, right) == identically_leq(left, right)

    def test_naive_and_worklist_closures_agree(self):
        rng = random.Random(13)
        for trial in range(10):
            pds = random_pd_set(3, rng.randint(1, 3), seed=rng.randint(0, 10**6), max_complexity=2)
            extra = [random_expression(["A", "B", "C"], rng.randint(0, 10**6), 2)]
            fast = alg_closure(pds, extra)
            slow = alg_closure_naive(pds, extra)
            assert fast.as_expression_pairs() == slow.as_expression_pairs()

    @given(expressions(max_depth=2), expressions(max_depth=2))
    @settings(deadline=None)
    def test_leq_with_empty_e_is_free_lattice_order(self, left, right):
        assert pd_leq([], left, right) == identically_leq(left, right)


class TestSoundness:
    def test_implied_pds_hold_in_satisfying_relations(self):
        # Soundness spot-check: E |= δ and r |= E  =>  r |= δ.
        from repro.relational.relations import Relation

        E = ["A = A*B", "B = B*C"]
        delta = PartitionDependency.parse("A = A*C")
        assert pd_implies(E, delta)
        satisfying = Relation.from_strings("r", "ABC", ["a1.b1.c1", "a2.b1.c1", "a3.b3.c1"])
        assert satisfying.satisfies_pd(E[0]) and satisfying.satisfies_pd(E[1])
        assert satisfying.satisfies_pd(delta)

    def test_non_implication_has_separating_relation(self):
        # E does not imply B <= A; exhibit a relation separating them.
        from repro.relational.relations import Relation

        E = ["A = A*B"]
        query = "B = B*A"
        assert not pd_implies(E, query)
        witness = Relation.from_strings("r", "AB", ["a1.b1", "a2.b1"])
        assert witness.satisfies_pd(E[0])
        assert not witness.satisfies_pd(query)


class TestImplicationEngine:
    def test_engine_caches_across_queries(self):
        engine = ImplicationEngine(["A = A*B", "B = B*C"], query_expressions=["A", "C"])
        assert engine.leq("A", "C")
        assert engine.leq("A", "B")
        assert not engine.leq("C", "A")

    def test_attribute_order_consequences(self):
        engine = ImplicationEngine(["A = A*B", "B = B*C"])
        pairs = engine.attribute_order_consequences(["A", "B", "C"])
        assert ("A", "B") in pairs and ("A", "C") in pairs and ("B", "C") in pairs
        assert ("C", "A") not in pairs

    def test_engine_accepts_new_expressions_lazily(self):
        engine = ImplicationEngine(["A = A*B"])
        assert engine.leq("A", "A*B")
        assert engine.leq("A * A", "A")
        assert engine.implies("A*B = A")

    def test_dependencies_property(self):
        engine = ImplicationEngine(["A = A*B"])
        assert engine.dependencies == [PartitionDependency.parse("A = A*B")]
