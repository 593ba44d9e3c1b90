"""The incremental ImplicationIndex against the from-scratch ALG oracles.

The load-bearing property: no matter how ``(E, V)`` is grown — batch
construction, expression-by-expression, dependency-by-dependency, arbitrary
interleavings — the arc relation equals the one :func:`alg_closure` (and on
smaller inputs :func:`alg_closure_naive`) computes from scratch over the
same final input.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deadline import deadline_scope
from repro.dependencies.pd import PartitionDependency
from repro.errors import DeadlineExceeded
from repro.expressions.ast import Product, Sum, as_expression
from repro.implication.alg import (
    ImplicationEngine,
    alg_closure,
    alg_closure_naive,
    pd_equivalent,
    pd_implies,
)
from repro.implication.index import ImplicationIndex
from repro.implication.word_problems import lattice_word_problems
from repro.lattice.quotient import theorem8_pool
from repro.workloads.random_dependencies import random_pd_set
from repro.workloads.random_expressions import random_expression
from repro.workloads.random_implication import random_implication_workload

from tests.conftest import expressions, index_state

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

    def test_incremental_engine_matches_the_naive_closure(self):
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
            engine = ImplicationEngine(pds)
            for query in queries:
                closure = alg_closure_naive(pds, [query.left, query.right])
                left, right = closure.index[query.left], closure.index[query.right]
                expected = closure.has(left, right) and closure.has(right, left)
                assert engine.implies(query) == expected, (trial, str(query))


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

    def test_engine_pairs_match_the_naive_closure(self):
        pds = ["A = A*(B + C)", "B = B*C"]
        pool = ["A", "B", "C", "B + C", "A"]
        closure = alg_closure_naive(pds, pool)
        vids = [closure.index[as_expression(e)] for e in pool]
        expected = [
            (i, j)
            for i, p in enumerate(vids)
            for j, q in enumerate(vids)
            if i != j and closure.has(p, q)
        ]
        assert ImplicationEngine(pds).leq_pairs(pool) == expected


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
                # The class is named by its earliest-registered member.
                assert index.representative(expression) == vertices[min(mutual)], (trial, str(expression))

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


class TestHashConsing:
    """A composite that lands on a class the index holds is an alias of its row, not a new row."""

    def test_a_theorem8_pool_lands_on_the_rows_gamma_has(self):
        # Exact counts: the 21 pool expressions collapse into Γ's 3 classes
        # and create no row; one row per expression would make 21.
        gamma = [PartitionDependency.parse(pd) for pd in ["A = A*B", "B = B*C"]]
        pool = theorem8_pool(gamma, PartitionDependency.parse("C = C*A"))
        index = ImplicationEngine(gamma).index
        assert (index.vertex_count, index.row_count) == (5, 5)
        with index.overlay():
            index.add_expressions(pool)
            assert (len(pool), index.vertex_count, index.row_count, index.class_count) == (21, 21, 5, 3)
        assert (index.vertex_count, index.row_count) == (5, 5)

    def test_an_overlay_forgets_aliases_to_old_and_new_rows(self):
        index = ImplicationIndex([], ["A*B"])
        before = index_state(index)
        rows = index.row_count
        added = ["B*A", "A*C", "C*A", "(C*A)+B"]
        with index.overlay():
            index.add_expressions(added)
            # B*A lands on A*B's old row and C*A on the row A*C founds here;
            # (C*A)+B founds a row over that alias, indexed under the old B.
            assert index.class_id("B*A") == index.class_id("A*B") < rows
            assert index.class_id("C*A") == index.class_id("A*C") >= rows
            assert index.row_count == rows + 3  # C, A*C and (C*A)+B
            assert index.vertex_count == len(before[1]) + 5
        assert index_state(index) == before
        assert not any(index.knows(expression) for expression in added + ["C"])
        # The operand tables were unwound too: later registrations stay exact.
        with index.overlay():
            index.add_expressions(["B*A", "(A*C)+B"])
            oracle = alg_closure([], ["A*B", "B*A", "(A*C)+B"])
            assert index.as_expression_pairs() == oracle.as_expression_pairs()
        assert index_state(index) == before

    def test_an_alias_stays_exact_as_gamma_grows(self):
        pool = ["B*A", "A*B", "(A*B)+D"]
        index = ImplicationIndex([], pool)
        assert index.class_id("A*B") == index.class_id("B*A")
        assert index.row_count == index.vertex_count - 1  # A*B has no row of its own
        gamma = ["A*B = C", "C = C*D"]
        index.add_dependencies(gamma)
        assert index.as_expression_pairs() == alg_closure(gamma, pool).as_expression_pairs()
        _assert_classes_maximal(index)


class TestServiceSurface:
    def test_product_class_reads_without_registering(self):
        index = ImplicationIndex([], ["B*A", "C"])
        before = index_state(index)
        # A*B is equal to B*A, yet neither operand lies below the other: the
        # class is reached only through rule 4 with A*B as the origin.
        assert index.product_class("A", "B") == index.class_id("B*A")
        assert index.product_class("A", "C") == -1
        with pytest.raises(KeyError):
            index.product_class("A", "D")
        assert index_state(index) == before

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

    def test_grown_engine_matches_the_naive_closure(self):
        engine = ImplicationEngine(["A = A*B"])
        assert not engine.leq("A", "C")
        engine.add_dependencies(["B = B*C"])
        assert engine.leq("A", "C")
        closure = alg_closure_naive(engine.dependencies, engine.index.vertices())
        assert engine.index.as_expression_pairs() == closure.as_expression_pairs()

    def test_convenience_constructor(self):
        index = ImplicationIndex(["A = A*B"], ["C"])
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
        assert not pd_equivalent(first, ["A = B"])


_PAIRS = st.tuples(expressions(max_depth=2), expressions(max_depth=2))


def _assert_probes_match_registration(index, picks, compose, probe_class):
    """Each probe is the class id the composite gets when registered, −1 exactly when it founds a row."""
    before = index_state(index)
    vertices = index.vertices()
    rows = index.row_count
    for i, j in picks:
        left, right = vertices[i % len(vertices)], vertices[j % len(vertices)]
        probe = probe_class(left, right)
        assert index_state(index) == before
        with index.overlay():
            registered = index.class_id(compose(left, right))
            founded = index.row_count - rows
        # An old class id is the probe's answer; a new row (the only id at or
        # above the pre-overlay row count) is its own class root, and -1.
        assert probe == (registered if registered < rows else -1)
        assert founded == (probe == -1)
        assert index_state(index) == before


def _overlay_case(pairs, pool):
    """Γ from expression pairs, a warm engine over Γ and the pool, and its index's state."""
    gamma = [PartitionDependency(left, right) for left, right in pairs]
    engine = ImplicationEngine(gamma, pool)
    return gamma, engine, index_state(engine.index)


class TestOverlay:
    """Query overlays on a warm index: exact rollback, oracle answers (Lemma 9.2)."""

    @given(
        st.lists(_PAIRS, max_size=3),
        st.lists(expressions(max_depth=2), max_size=3),
        st.lists(st.tuples(expressions(max_depth=3), expressions(max_depth=3)), min_size=1, max_size=4),
    )
    @settings(deadline=None)
    def test_overlay_answers_match_the_oracle_and_roll_back(self, raw_gamma, pool, queries):
        gamma, engine, before = _overlay_case(raw_gamma, pool)
        index = engine.index
        sides = [side for pair in queries for side in pair]
        with index.overlay():
            index.add_expressions(sides)
            oracle = alg_closure(gamma, list(pool) + sides)
            assert index.as_expression_pairs() == oracle.as_expression_pairs()
            _assert_classes_maximal(index)
        assert index_state(index) == before
        # The batch entry point answers in an overlay too, as a fresh engine would.
        arcs = oracle.as_expression_pairs()
        expected = [(left, right) in arcs and (right, left) in arcs for left, right in queries]
        assert lattice_word_problems(gamma, queries, engine=engine) == expected
        assert lattice_word_problems(gamma, queries) == expected
        assert index_state(index) == before

    @given(
        st.lists(_PAIRS, max_size=3),
        st.lists(expressions(max_depth=2), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=0)), min_size=1, max_size=6),
    )
    @settings(deadline=None)
    def test_product_class_is_the_class_the_registered_product_gets(self, raw_gamma, pool, picks):
        index = _overlay_case(raw_gamma, pool)[1].index
        _assert_probes_match_registration(index, picks, Product, index.product_class)

    @given(
        st.lists(_PAIRS, max_size=3),
        st.lists(expressions(max_depth=2), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=0)), min_size=1, max_size=6),
    )
    @settings(deadline=None)
    def test_sum_class_is_the_class_the_registered_sum_gets(self, raw_gamma, pool, picks):
        index = _overlay_case(raw_gamma, pool)[1].index

        def sum_class(left, right):
            # A class id names a row, and every member of a class has that row.
            return index._sum_class(index.class_id(left), index.class_id(right))

        _assert_probes_match_registration(index, picks, Sum, sum_class)

    @given(
        st.lists(_PAIRS, max_size=3),
        st.lists(expressions(max_depth=2), min_size=1, max_size=4),
        st.lists(expressions(max_depth=3), min_size=1, max_size=4),
    )
    @settings(deadline=None)
    def test_class_ids_taken_before_an_overlay_stay_valid(self, raw_gamma, pool, extra):
        _, engine, before = _overlay_case(raw_gamma, pool)
        index = engine.index
        ids = [index.class_id(expression) for expression in pool]
        classes = index.classes()
        with index.overlay():
            index.add_expressions(extra)
            assert [index.class_id(expression) for expression in pool] == ids
        assert [index.class_id(expression) for expression in pool] == ids
        assert index.classes() == classes
        assert index_state(index) == before

    @given(
        st.lists(_PAIRS, max_size=3),
        st.lists(expressions(max_depth=2), max_size=3),
        st.lists(expressions(max_depth=3), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=40),
    )
    @settings(deadline=None)
    def test_deadline_mid_overlay_leaves_the_state_and_later_answers_exact(
        self, raw_gamma, pool, extra, polls
    ):
        gamma, engine, before = _overlay_case(raw_gamma, pool)
        index = engine.index
        # A scope that expires after ``polls`` budget checks: the overlay is
        # interrupted at every reachable point, mid-registration or mid-drain.
        with deadline_scope(60_000) as scope:
            countdown = iter(range(polls))

            def check():
                if next(countdown, None) is None:
                    raise DeadlineExceeded(scope)

            with mock.patch("repro.implication.index.check_deadline", check):
                try:
                    with index.overlay():
                        index.add_expressions(extra)
                except DeadlineExceeded as exc:
                    assert exc.scope is scope
        assert index_state(index) == before
        # The rolled-back index keeps answering exactly, inside and outside overlays.
        with index.overlay():
            index.add_expressions(extra)
            oracle = alg_closure(gamma, list(pool) + list(extra))
            assert index.as_expression_pairs() == oracle.as_expression_pairs()
        index.add_expressions(extra)
        assert index.as_expression_pairs() == oracle.as_expression_pairs()

    def test_an_expired_scope_interrupts_the_overlay_and_rolls_it_back(self):
        gamma = ["A = A*B", "B = B*C"]
        engine = ImplicationEngine(gamma, ["A*C"])
        index = engine.index
        before = index_state(index)
        with pytest.raises(DeadlineExceeded):
            with deadline_scope(0):
                with index.overlay():
                    index.add_expressions(["(A+D)*(C+E)"])
        assert index_state(index) == before
        assert lattice_word_problems(gamma, ["A = A*C", "C = C*A"], engine=engine) == [True, False]
        assert index_state(index) == before

    def test_gamma_cannot_grow_inside_an_overlay(self):
        index = ImplicationIndex(["A = A*B"])
        before = index_state(index)
        with pytest.raises(RuntimeError):
            with index.overlay():
                index.add_dependencies(["B = B*C"])
        assert index_state(index) == before
        index.add_dependencies(["B = B*C"])  # outside an overlay E grows as usual
        assert index.has_arc("A", "C")

    def test_a_long_batch_matches_fresh_engines_and_rolls_back(self):
        rng = random.Random(7)
        gamma = random_pd_set(4, 4, rng, max_complexity=2)
        queries = [
            PartitionDependency(random_expression(UNIVERSE, rng, 3), random_expression(UNIVERSE, rng, 3))
            for _ in range(19)
        ]
        engine = ImplicationEngine(gamma)
        before = index_state(engine.index)
        expected = [pd_implies(gamma, query) for query in queries]
        assert lattice_word_problems(gamma, queries, engine=engine) == expected
        assert index_state(engine.index) == before

    def test_an_engine_refused_a_write_keeps_its_theory(self):
        # E grows only where the index commits it: a write refused inside an
        # overlay leaves the engine over E, and every engine-contract check
        # then refuses it for E ∪ {δ} instead of answering over E.
        from repro.consistency.normalization import normalize_dependencies
        from repro.errors import LatticeError
        from repro.expressions.ast import attrs
        from repro.lattice.quotient import quotient_fragment

        engine = ImplicationEngine(["A = A*B"])
        with pytest.raises(RuntimeError):
            with engine.index.overlay():
                engine.add_dependencies(["B = B*C"])
        assert engine.dependencies == engine.index.dependencies
        grown = ["A = A*B", "B = B*C"]
        with pytest.raises(ValueError):
            lattice_word_problems(grown, ["A = A*C"], engine=engine)
        a, c = attrs("A", "C")
        with pytest.raises(LatticeError):
            quotient_fragment(grown, [a, a * c], engine=engine)
        with pytest.raises(ValueError, match="different PD set"):
            normalize_dependencies(grown, engine=engine)

    def test_an_engine_over_another_theory_is_refused(self):
        engine = ImplicationEngine(["A = A*B"])
        before = index_state(engine.index)
        with pytest.raises(ValueError):
            lattice_word_problems(["B = B*C"], ["A = A*B"], engine=engine)
        assert index_state(engine.index) == before
