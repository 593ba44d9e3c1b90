"""The incremental ImplicationIndex against the from-scratch ALG oracles.

The load-bearing property: no matter how ``(E, V)`` is grown — batch
construction, expression-by-expression, dependency-by-dependency, arbitrary
interleavings — the arc relation equals the one :func:`alg_closure` (and on
smaller inputs :func:`alg_closure_naive`) computes from scratch over the
same final input.
"""

import random

from repro.dependencies.pd import PartitionDependency
from repro.implication.alg import (
    ImplicationEngine,
    alg_closure,
    alg_closure_naive,
    pd_equivalent,
)
from repro.implication.index import ImplicationIndex, implication_index
from repro.workloads.random_dependencies import random_pd_set
from repro.workloads.random_expressions import random_expression
from repro.workloads.random_implication import random_implication_workload

UNIVERSE = ["A", "B", "C"]


def _assert_classes_maximal(index):
    """No two distinct congruence classes may have arcs both ways.

    ``as_expression_pairs`` alone cannot see this (the arcs survive a missed
    collapse), so every randomized cross-check also pins the class level.
    """
    representatives = [members[0] for members in index.congruence_classes()]
    for i, left in enumerate(representatives):
        for right in representatives[i + 1 :]:
            assert not (index.has_arc(left, right) and index.has_arc(right, left)), (
                f"{left} and {right} are mutually reachable but in distinct classes"
            )
            assert index.equivalent(left, right) == (
                index.leq(left, right) and index.leq(right, left)
            )


def _random_case(rng, max_pds=4, max_complexity=3, max_extra=3):
    pds = random_pd_set(
        len(UNIVERSE), rng.randint(1, max_pds), seed=rng.randint(0, 10**6), max_complexity=max_complexity
    )
    extra = [
        random_expression(UNIVERSE, rng.randint(0, 10**6), max_complexity)
        for _ in range(rng.randint(0, max_extra))
    ]
    return pds, extra


class TestOracleAgreement:
    def test_batch_matches_worklist_oracle(self):
        rng = random.Random(101)
        for trial in range(30):
            pds, extra = _random_case(rng)
            index = ImplicationIndex(pds, extra)
            oracle = alg_closure(pds, extra)
            assert index.as_expression_pairs() == oracle.as_expression_pairs(), trial
            _assert_classes_maximal(index)

    def test_interleaved_growth_matches_worklist_oracle(self):
        rng = random.Random(202)
        for trial in range(30):
            pds, extra = _random_case(rng)
            steps = [("dependency", pd) for pd in pds] + [("expression", e) for e in extra]
            rng.shuffle(steps)
            index = ImplicationIndex()
            for kind, payload in steps:
                if kind == "dependency":
                    index.add_dependencies([payload])
                else:
                    index.add_expressions([payload])
            oracle = alg_closure(pds, extra)
            assert index.as_expression_pairs() == oracle.as_expression_pairs(), trial
            _assert_classes_maximal(index)

    def test_interleaved_growth_matches_naive_oracle(self):
        rng = random.Random(303)
        for trial in range(10):
            pds, extra = _random_case(rng, max_pds=3, max_complexity=2, max_extra=2)
            index = ImplicationIndex()
            for pd in pds:
                index.add_dependencies([pd])
            index.add_expressions(extra)
            oracle = alg_closure_naive(pds, extra)
            assert index.as_expression_pairs() == oracle.as_expression_pairs(), trial

    def test_query_order_does_not_change_answers(self):
        # Two indexes over the same theory, fed the same queries in opposite
        # orders, must agree on every verdict (the closure is monotone).
        theory, queries = random_implication_workload(4, 6, 20, seed=404)
        forward = ImplicationIndex(theory)
        backward = ImplicationIndex(theory)
        forward_answers = [
            forward.leq(q.left, q.right) and forward.leq(q.right, q.left) for q in queries
        ]
        backward_answers = [
            backward.leq(q.left, q.right) and backward.leq(q.right, q.left)
            for q in reversed(queries)
        ]
        assert forward_answers == backward_answers[::-1]

    def test_incremental_engine_matches_naive_engine(self):
        rng = random.Random(505)
        for trial in range(10):
            pds, _ = _random_case(rng, max_pds=3, max_complexity=2)
            queries = [
                PartitionDependency(
                    random_expression(UNIVERSE, rng.randint(0, 10**6), 2),
                    random_expression(UNIVERSE, rng.randint(0, 10**6), 2),
                )
                for _ in range(5)
            ]
            fast = ImplicationEngine(pds)
            slow = ImplicationEngine(pds, naive=True)
            for query in queries:
                assert fast.implies(query) == slow.implies(query), (trial, str(query))


class TestLeqPairs:
    """Row reads in bulk: ``leq_pairs`` is pairwise ``leq``, duplicates included."""

    def test_matches_pairwise_leq_with_duplicates(self):
        rng = random.Random(606)
        for trial in range(40):
            pds, extra = _random_case(rng)
            index = ImplicationIndex(pds)
            pool = [side for pd in pds for side in (pd.left, pd.right)] + extra
            pool += [rng.choice(pool) for _ in range(3)]  # repeated expressions
            rng.shuffle(pool)
            expected = [
                (i, j)
                for i, left in enumerate(pool)
                for j, right in enumerate(pool)
                if i != j and index.leq(left, right)
            ]
            assert index.leq_pairs(pool) == expected, trial

    def test_repeated_expression_lies_below_its_copy(self):
        index = ImplicationIndex(["A = A*B"])
        assert index.leq_pairs(["A*B", "B", "A*B"]) == [(0, 1), (0, 2), (2, 0), (2, 1)]

    def test_registers_unknown_expressions_like_leq(self):
        index = ImplicationIndex(["A = A*B"])
        assert index.leq_pairs(["A", "B", "C"]) == [(0, 1)]
        assert index.knows("C")

    def test_naive_engine_runs_the_leq_loop(self):
        pds = ["A = A*(B + C)", "B = B*C"]
        pool = ["A", "B", "C", "B + C", "A"]
        assert ImplicationEngine(pds, naive=True).leq_pairs(pool) == ImplicationEngine(
            pds
        ).leq_pairs(pool)


class TestCongruenceClasses:
    def test_equation_merges_classes(self):
        index = ImplicationIndex(["A = B"])
        assert index.equivalent("A", "B")
        assert index.representative("A") is index.representative("B")

    def test_chain_of_equalities_collapses_to_one_class(self):
        chain = [f"X{i} = X{i + 1}" for i in range(10)]
        index = ImplicationIndex(chain)
        first = index.representative("X0")
        for i in range(11):
            assert index.representative(f"X{i}") is first
        # 11 attribute vertices in a single class.
        assert index.vertex_count == 11
        assert index.class_count == 1

    def test_merge_rename_completing_mutual_pair_still_collapses(self):
        # A becomes mutual with the class {L, W} only once L = W joins the
        # pre-existing arcs A -> L and W -> A; A must land in that class.
        index = ImplicationIndex(["A = A*L", "W = W*A", "L = W"])
        assert index.leq("A", "L") and index.leq("L", "A")
        assert index.equivalent("A", "L")
        assert index.equivalent("A", "W")
        _assert_classes_maximal(index)

    def test_class_id_is_the_smallest_mutually_reachable_vertex(self):
        rng = random.Random(707)
        for trial in range(20):
            pds, extra = _random_case(rng)
            index = ImplicationIndex()
            for pd in pds:
                index.add_dependencies([pd])
            index.add_expressions(extra)
            pairs = alg_closure(pds, extra).as_expression_pairs()
            vertices = index.vertices()
            for expression in vertices:
                mutual = [
                    j for j, other in enumerate(vertices)
                    if (expression, other) in pairs and (other, expression) in pairs
                ]
                assert index.class_id(expression) == min(mutual), (trial, str(expression))
            state = index.export_state()
            restored = ImplicationIndex.from_state(
                state["dependencies"], state["expressions"], state["parent"], state["arcs"]
            )
            assert restored.export_state() == state
            assert restored.as_expression_pairs() == pairs

    def test_derived_equivalence_is_collapsed(self):
        # A*B =_E B*A is forced by commutativity inside ALG's rules once both
        # expressions are vertices, with no explicit equation.
        index = ImplicationIndex([], ["A*B", "B*A"])
        assert index.equivalent("A*B", "B*A")
        assert not index.equivalent("A", "B")

    def test_collapse_keeps_successor_sets_small(self):
        chain = [f"X{i} = X{i + 1}" for i in range(20)]
        index = ImplicationIndex(chain)
        # One class with a single self-arc instead of 21² expression pairs.
        assert index.arc_count() == 1
        assert len(index.as_expression_pairs()) == 21 * 21

    def test_congruence_classes_partition_the_vertices(self):
        theory, queries = random_implication_workload(3, 4, 6, seed=606, max_complexity=2)
        index = ImplicationIndex(theory, [q.left for q in queries])
        classes = index.congruence_classes()
        seen = [expr for members in classes for expr in members]
        assert len(seen) == index.vertex_count
        assert len(set(seen)) == index.vertex_count


class TestServiceSurface:
    def test_knows_and_has_arc_do_not_mutate(self):
        index = ImplicationIndex(["A = A*B"])
        count = index.vertex_count
        assert index.knows("A") and index.knows("A*B")
        assert not index.knows("C")
        assert index.has_arc("A", "B")
        assert index.vertex_count == count

    def test_has_arc_requires_registered_expressions(self):
        index = ImplicationIndex(["A = A*B"])
        try:
            index.has_arc("A", "C")
        except KeyError:
            pass
        else:  # pragma: no cover - defends the read-only contract
            raise AssertionError("has_arc must not register new expressions")

    def test_engine_add_dependencies_resumes(self):
        engine = ImplicationEngine(["A = A*B"])
        assert not engine.leq("A", "C")
        engine.add_dependencies(["B = B*C"])
        assert engine.leq("A", "C")
        assert engine.dependencies == [
            PartitionDependency.parse("A = A*B"),
            PartitionDependency.parse("B = B*C"),
        ]

    def test_naive_engine_add_dependencies_recomputes(self):
        engine = ImplicationEngine(["A = A*B"], naive=True)
        assert not engine.leq("A", "C")
        engine.add_dependencies(["B = B*C"])
        assert engine.leq("A", "C")

    def test_convenience_constructor(self):
        index = implication_index(["A = A*B"], ["C"])
        assert index.has_arc("A", "B")
        assert index.knows("C")

    def test_quotient_fragment_rejects_mismatched_engine(self):
        from repro.errors import LatticeError
        from repro.expressions.ast import attrs
        from repro.lattice.quotient import quotient_fragment

        a, b = attrs("A", "B")
        wrong_engine = ImplicationEngine(["A = B"])
        try:
            quotient_fragment(["A = A*B"], [a, b], engine=wrong_engine)
        except LatticeError:
            pass
        else:  # pragma: no cover - defends the shared-engine contract
            raise AssertionError("a shared engine over a different PD set must be rejected")

    def test_pd_equivalent_one_engine_per_direction(self):
        first = ["C = A + B"]
        second = ["C = C*(A+B)", "A = A*C", "B = B*C"]
        assert pd_equivalent(first, second)
        assert pd_equivalent(first, second, naive=True)
        assert not pd_equivalent(first, ["A = B"])
