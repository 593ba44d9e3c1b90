"""Tests for repro.consistency.normalization (the §6.2 pipeline: E → E' → E⁺ → F).

§6.2 names every composite *occurrence* of ``E`` with its own fresh
attribute; :func:`occurrence_binarization` keeps that construction as the
reference.  The pipeline names one ``=_E`` class of composites instead, and
must give the same chase verdict and witness size on every database.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.consistency.normalization import (
    NormalizedDependencies,
    SumConstraint,
    normalize_dependencies,
    validate_only_fpds,
)
from repro.consistency.pd_consistency import pd_consistency
from repro.dependencies.pd import PartitionDependency, as_partition_dependency
from repro.errors import ConsistencyError
from repro.expressions.ast import Attr, Product, Sum
from repro.implication.alg import ImplicationEngine, pd_implies
from repro.relational.chase_engine import CodedFds
from repro.relational.database import Database
from repro.relational.functional_dependencies import FunctionalDependency, implies
from repro.relational.relations import Relation
from repro.service.session import DependencyContext, Session
from repro.service.snapshot import dump_snapshot, restore_session
from repro.service.wire import QueryRequest
from repro.workloads.random_dependencies import random_pd
from repro.workloads.random_expressions import random_expression
from repro.workloads.random_relations import attribute_names

from tests.conftest import NaiveClosureEngine, expressions


def _fresh_names(pds):
    """``Z1, Z2, …`` skipping the attribute names of ``pds``."""
    reserved = set().union(*(pd.attributes for pd in pds))
    return (f"Z{n}" for n in itertools.count(1) if f"Z{n}" not in reserved)


def occurrence_binarization(pds):
    """§6.2's step 1 as stated: one fresh attribute per composite occurrence.

    Returns ``(equations, aliases, fresh)``: ``(op, C, A, B)`` tuples for
    ``C = A op B``, pairs of differently named PD sides, and the sorted
    fresh names.
    """
    fresh = _fresh_names(pds)
    equations, aliases = [], []

    def name(expression):
        if isinstance(expression, Attr):
            return expression.name
        a, b = name(expression.left), name(expression.right)
        c = next(fresh)
        equations.append(("*" if isinstance(expression, Product) else "+", c, a, b))
        return c

    for pd in pds:
        left, right = name(pd.left), name(pd.right)
        if left != right:
            aliases.append((left, right))
    return equations, aliases, sorted(c for _, c, _, _ in equations)


def class_naming(pds):
    """Step 1 as the pipeline does it, with classes decided pair by pair on a fresh engine over E.

    The same ``(equations, aliases, fresh)`` shape: one fresh name per
    ``=_E`` class of composites, one equation per distinct composite, in
    children-first order.
    """
    engine = ImplicationEngine(pds)
    fresh = _fresh_names(pds)
    named = {}
    equations, aliases = [], []

    def name(expression):
        if isinstance(expression, Attr):
            return expression.name
        if expression not in named:
            a, b = name(expression.left), name(expression.right)
            known = (c for e, c in named.items() if engine.implies(PartitionDependency(e, expression)))
            named[expression] = next(known, None) or next(fresh)
            op = "*" if isinstance(expression, Product) else "+"
            equations.append((op, named[expression], a, b))
        return named[expression]

    for pd in pds:
        left, right = name(pd.left), name(pd.right)
        if left != right:
            aliases.append((left, right))
    return equations, aliases, sorted(set(named.values()))


def _binary_pds(equations, aliases):
    """``E′``: the equations and aliases of a naming, as PDs over single attributes."""
    binary = [PartitionDependency(Attr(left), Attr(right)) for left, right in aliases]
    for op, c, a, b in equations:
        node = Product(Attr(a), Attr(b)) if op == "*" else Sum(Attr(a), Attr(b))
        binary.append(PartitionDependency(Attr(c), node))
    return binary


class TestClassNaming:
    def test_fpd_stays_small(self):
        # A = A*B: one fresh Z for A*B, with Z = A*B and the side equation A = Z.
        normalized = normalize_dependencies(["A = A*B"])
        assert normalized.fresh_attributes == ["Z1"]
        assert FunctionalDependency(["A"], ["Z1"]) in normalized.fds

    def test_nested_expression_introduces_one_name_per_composite(self):
        normalized = normalize_dependencies(["A = (B + C) * D"])
        assert normalized.fresh_attributes == ["Z1", "Z2"]  # one for B+C, one for (B+C)*D
        assert [str(constraint) for constraint in normalized.sum_constraints] == ["Z1 <= B + C"]

    def test_fresh_names_avoid_existing_attributes(self):
        normalized = normalize_dependencies(["Z1 = A + B"])
        assert normalized.fresh_attributes == ["Z2"]  # Z1 is taken by the input

    def test_attribute_equality_is_alias_only(self):
        normalized = normalize_dependencies(["A = B"])
        assert normalized.fresh_attributes == []
        assert normalized.fds == [FunctionalDependency("A", "B"), FunctionalDependency("B", "A")]

    def test_one_name_per_class(self):
        # B*C and C*B are one =_E class; the occurrence binarization names them twice.
        pds = [as_partition_dependency(pd) for pd in ["A = B*C", "D = C*B", "A = B*C"]]
        assert normalize_dependencies(pds).fresh_attributes == ["Z1"]
        assert occurrence_binarization(pds)[2] == ["Z1", "Z2", "Z3"]

    def test_a_class_name_never_equals_an_attribute(self):
        # A*A =_E A, yet its class gets a fresh name, so A stays a chase column.
        normalized = normalize_dependencies(["A*A = A"])
        assert normalized.fresh_attributes == ["Z1"]
        assert normalized.fds == [FunctionalDependency(["Z1"], ["A"]), FunctionalDependency(["A"], ["Z1"])]


class TestNormalizeDependencies:
    def test_pure_fpd_set_produces_equivalent_fds(self):
        normalized = normalize_dependencies(["A = A*B", "B = B*C"])
        assert not normalized.sum_constraints
        # The FD part must imply A -> B, B -> C and (transitively) A -> C.
        assert implies(normalized.fds, FunctionalDependency("A", "B"))
        assert implies(normalized.fds, FunctionalDependency("B", "C"))
        assert implies(normalized.fds, FunctionalDependency("A", "C"))
        assert not implies(normalized.fds, FunctionalDependency("C", "A"))

    def test_sum_pd_produces_sum_constraint_and_order_fds(self):
        normalized = normalize_dependencies(["C = A + B"])
        # A <= C and B <= C become FDs; one sum constraint Z <= A+B (Z aliased to C) survives.
        assert implies(normalized.fds, FunctionalDependency("A", "C"))
        assert implies(normalized.fds, FunctionalDependency("B", "C"))
        assert len(normalized.sum_constraints) == 1

    def test_sum_constraint_pruned_when_order_known(self):
        # With A <= B also in E, C <= A+B is subsumed by C <= B and must be pruned.
        normalized = normalize_dependencies(["C = A + B", "A = A*B"])
        assert normalized.sum_constraints == []
        assert implies(normalized.fds, FunctionalDependency("C", "B"))

    def test_closure_pairs_recorded(self):
        normalized = normalize_dependencies(["A = A*B", "B = B*C"])
        assert ("A", "C") in normalized.attribute_closure_pairs

    def test_universe_includes_fresh_attributes(self):
        normalized = normalize_dependencies(["A = (B + C) * D"])
        assert len(normalized.fresh_attributes) >= 2
        assert set(normalized.fresh_attributes) <= set(normalized.universe)

    def test_no_trivial_fds_emitted(self):
        normalized = normalize_dependencies(["A = A*B", "C = A + B"])
        assert all(not fd.is_trivial() for fd in normalized.fds)

    def test_normalized_fds_are_consequences_of_e(self):
        # Soundness of the pipeline: every produced FD, read as an FPD over the
        # extended universe, is implied by E ∪ E′ (E plus its naming's equations).
        from repro.dependencies.conversion import fd_to_pd

        pds = [as_partition_dependency(pd) for pd in ["C = A + B", "A = A*D", "A*D = D*A + B"]]
        e_prime = pds + _binary_pds(*class_naming(pds)[:2])
        for fd in normalize_dependencies(pds).fds:
            assert pd_implies(e_prime, fd_to_pd(fd)), str(fd)


def _closure_over_e_and_e_prime(pds, naming):
    """The reference pipeline: steps 2-3 with ALG closing E ∪ E′ over a naming's universe.

    ``naming`` is ``(equations, aliases, fresh)`` from :func:`class_naming`
    or :func:`occurrence_binarization`.  Returns ``(fds, sum_constraints,
    fresh, closure_pairs)``.
    """
    equations, aliases, fresh = naming
    fds, sums = [], []
    for left, right in aliases:
        fds += [FunctionalDependency([left], [right]), FunctionalDependency([right], [left])]
    for op, c, a, b in equations:
        if op == "*":
            fds += [FunctionalDependency([c], [a, b]), FunctionalDependency([a, b], [c])]
        else:
            fds += [FunctionalDependency([a], [c]), FunctionalDependency([b], [c])]
            sums.append(SumConstraint(c, a, b))
    universe = set(fresh).union(*(pd.attributes for pd in pds))
    engine = ImplicationEngine(pds + _binary_pds(equations, aliases))
    pairs = engine.attribute_order_consequences(universe)
    fds += [FunctionalDependency([a], [b]) for a, b in pairs]
    order = set(pairs)
    surviving = []
    for constraint in dict.fromkeys(sums):
        if (constraint.a, constraint.b) in order:
            fds.append(FunctionalDependency([constraint.c], [constraint.b]))
        elif (constraint.b, constraint.a) in order:
            fds.append(FunctionalDependency([constraint.c], [constraint.a]))
        else:
            surviving.append(constraint)
    fds = [fd for fd in dict.fromkeys(fds) if not fd.is_trivial()]
    return fds, surviving, fresh, sorted(pairs)


def occurrence_normalization(pds) -> NormalizedDependencies:
    """The per-occurrence normalization of §6.2, closed over E ∪ E′: the reference ``F``."""
    fds, surviving, fresh, pairs = _closure_over_e_and_e_prime(pds, occurrence_binarization(pds))
    names = sorted(set(fresh).union(*(pd.attributes for pd in pds)))
    bit = {name: 1 << i for i, name in enumerate(names)}
    masks = [(sum(bit[a] for a in fd.lhs), sum(bit[a] for a in fd.rhs)) for fd in fds]
    rows = [sum(bit[b] for a, b in pairs if a == name) for name in names]
    return NormalizedDependencies(pds, surviving, fresh, CodedFds(names, masks), rows)


def _artifacts(normalized):
    return (
        normalized.fds,
        normalized.sum_constraints,
        normalized.fresh_attributes,
        normalized.attribute_closure_pairs,
    )


def _random_theory(rng):
    universe = attribute_names(rng.randint(2, 6))
    count = rng.randint(1, 5)
    return [as_partition_dependency(random_pd(universe, rng, rng.randint(1, 3))) for _ in range(count)]


class TestClosureReadOffTheIndex:
    """Normalization over E's own index equals the E ∪ E′ closure over the class-named universe.

    List for list: ``fds``, ``sum_constraints``, ``fresh_attributes`` and the closure pairs.
    """

    def test_fresh_engine_matches_the_e_prime_closure(self):
        for seed in range(200):
            pds = _random_theory(random.Random(seed))
            expected = _closure_over_e_and_e_prime(pds, class_naming(pds))
            assert _artifacts(normalize_dependencies(pds)) == expected, seed

    def test_warm_and_restored_session_engines_match_the_e_prime_closure(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(None)
            return normalize_dependencies(*args, **kwargs)

        monkeypatch.setattr("repro.service.session.normalize_dependencies", spy)
        for seed in range(200):
            rng = random.Random(1000 + seed)
            pds = _random_theory(rng)
            split = rng.randint(0, len(pds))
            session = Session(pds[:split])
            # Extra query vertices the normalization never asks about.
            for _ in range(3):
                left = random_expression(["A", "B", "C", "X"], rng, 3)
                right = random_expression(["A", "B", "C", "X"], rng, 3)
                session.execute(QueryRequest(kind="implies", query=PartitionDependency(left, right)))
            session.add_dependencies(pds[split:])
            restored = restore_session(dump_snapshot(session))
            expected = _closure_over_e_and_e_prime(pds, class_naming(pds))
            for warm in (session, restored):
                context = warm.context_for(QueryRequest(kind="implies", query=pds[0]))
                assert not calls, seed  # nothing normalized before the read
                assert _artifacts(context.normalized) == expected, seed
                assert len(calls) == 1, seed
                calls.clear()

    def test_normalizing_on_a_warm_engine_registers_no_vertices(self):
        pds = [as_partition_dependency(pd) for pd in ["A = (B + C) * D", "B = B*(A + D)"]]
        engine = ImplicationEngine(pds)
        before = engine.index.vertex_count
        normalize_dependencies(pds, engine=engine)
        assert engine.index.vertex_count == before

    def test_naive_closure_gives_the_same_artifacts(self):
        pds = [as_partition_dependency(pd) for pd in ["C = A + B", "A = A*(B + D)"]]
        naive = NaiveClosureEngine(pds)
        assert _artifacts(normalize_dependencies(pds, engine=naive)) == _artifacts(
            normalize_dependencies(pds)
        )

    @pytest.mark.parametrize(
        "engine_dependencies",
        [["A = A*B"], ["A = A*B", "B = B*C", "C = C*D"], []],
        ids=["subset", "superset", "empty"],
    )
    def test_mismatched_engine_is_refused(self, engine_dependencies):
        with pytest.raises(ValueError, match="different PD set"):
            normalize_dependencies(
                ["A = A*B", "B = B*C"], engine=ImplicationEngine(engine_dependencies)
            )


#: Database columns: the attributes the drawn PDs use plus the first fresh
#: names, so some databases collide with ``F``'s fresh attributes.
COLUMNS = ["A", "B", "C", "D", "Z1", "Z2"]


@st.composite
def databases(draw) -> Database:
    """One to three small relations over ``COLUMNS``; relations may repeat rows, so dropped columns show."""
    relations = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        attributes = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True))
        rows = draw(st.lists(st.tuples(*[st.sampled_from("ab") for _ in attributes]), max_size=4))
        relations.append(
            Relation.from_rows(f"R{index}", attributes, [dict(zip(attributes, row)) for row in rows])
        )
    return Database(relations)


drawn_pds = st.one_of(
    st.builds(PartitionDependency, expressions(max_depth=2), expressions(max_depth=2)),
    st.builds(lambda side: PartitionDependency(side, side), expressions(max_depth=2)),
)


@st.composite
def growing_theories(draw):
    """Γ as a base plus ``DependencyContext.extend`` batches, and query expressions registered beside it."""
    theory = draw(st.lists(drawn_pds, min_size=1, max_size=5))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=len(theory)), max_size=2)))
    bounds = [0, *cuts, len(theory)]
    batches = [theory[start:stop] for start, stop in zip(bounds, bounds[1:])]
    return batches, draw(st.lists(expressions(max_depth=2), max_size=3))


def _attributes_in_f(normalized):
    """The attributes of Γ that ``F`` mentions: the chase columns other than the database's and fresh ones."""
    return {a for fd in normalized.fds for a in fd.attributes} - set(normalized.fresh_attributes)


def _assert_matches_the_occurrence_binarization(batches, queries, database):
    context = DependencyContext(batches[0])
    context.engine.prepare(queries)  # index rows outside Γ, which the naming must not read
    for batch in batches[1:]:
        context.extend(batch)
    theory = list(context.dependencies)
    result = pd_consistency(database, theory, engine=context.chase_engine, normalized=context.normalized)
    reference = pd_consistency(database, theory, normalized=occurrence_normalization(theory))
    assert _attributes_in_f(result.normalized) == _attributes_in_f(reference.normalized)
    assert result.consistent == reference.consistent
    if reference.consistent:
        assert len(result.weak_instance) == len(reference.weak_instance)
    return result


class TestAgainstTheOccurrenceBinarization:
    """Naming classes instead of occurrences changes neither the verdict nor the witness size."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(theory=growing_theories(), database=databases())
    def test_verdict_and_witness_size(self, theory, database):
        batches, queries = theory
        _assert_matches_the_occurrence_binarization(batches, queries, database)

    @pytest.mark.parametrize(
        "theory, columns, witness_rows",
        [
            (["A = A"], ["C"], 1),
            (["A*A = A"], ["C"], 2),
            (["B + B = B + B"], ["C"], 2),
            (["(B*B + A)*A = (A + C)*C"], ["A", "C"], 2),
        ],
    )
    def test_composites_on_attribute_rows_keep_their_attributes(self, theory, columns, witness_rows):
        # Two relations hold the same row.  It stays two witness rows exactly
        # when an attribute outside the database is a chase column: never for
        # A = A, while in the other three every such attribute sits under a
        # composite that aliases onto an attribute's row, and is still named.
        row = {column: column.lower() for column in columns}
        database = Database([Relation.from_rows(name, columns, [row]) for name in ("R1", "R2")])
        pds = [as_partition_dependency(pd) for pd in theory]
        result = _assert_matches_the_occurrence_binarization([pds], [], database)
        assert result.consistent and len(result.weak_instance) == witness_rows


class TestValidateOnlyFpds:
    def test_accepts_fpds_in_any_of_the_three_forms(self):
        fds = validate_only_fpds(["A = A*B", "C = C + B", "A <= D"])
        assert FunctionalDependency("A", "B") in fds
        assert FunctionalDependency("B", "C") in fds
        assert FunctionalDependency("A", "D") in fds

    def test_rejects_general_pds(self):
        with pytest.raises(ConsistencyError):
            validate_only_fpds(["C = A + B"])

    def test_skips_trivial_fpds(self):
        # X = X·Y with Y ⊆ X holds in every interpretation and yields no FD.
        assert validate_only_fpds(["A*B = A*B*A"]) == []

    def test_reversed_sides_still_recognized(self):
        # "A*B = A" is the FPD A ≤ B with its sides swapped, i.e. the FD A -> B.
        assert validate_only_fpds(["A*B = A"]) == [FunctionalDependency("A", "B")]
