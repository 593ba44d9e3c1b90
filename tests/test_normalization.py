"""Tests for repro.consistency.normalization (the §6.2 pipeline: E → E' → E⁺ → F)."""

import random

import pytest

from repro.consistency.normalization import (
    SumConstraint,
    binarize,
    functional_part,
    normalize_dependencies,
    validate_only_fpds,
)
from repro.dependencies.pd import PartitionDependency, as_partition_dependency
from repro.errors import ConsistencyError
from repro.expressions.ast import Attr, Product, Sum
from repro.implication.alg import ImplicationEngine, pd_implies
from repro.relational.functional_dependencies import FunctionalDependency, implies
from repro.service.session import Session
from repro.service.snapshot import dump_snapshot, restore_session
from repro.service.wire import QueryRequest
from repro.workloads.random_dependencies import random_pd
from repro.workloads.random_expressions import random_expression
from repro.workloads.random_relations import attribute_names


class TestBinarize:
    def test_fpd_stays_small(self):
        equations, aliases, fresh = binarize(["A = A*B"])
        # A = A*B: the right side becomes a fresh attribute Z with Z = A*B and alias A = Z.
        assert len(equations) == 1 and equations[0][0] == "*"
        assert len(aliases) == 1
        assert len(fresh) == 1

    def test_nested_expression_introduces_multiple_fresh_attributes(self):
        equations, aliases, fresh = binarize(["A = (B + C) * D"])
        assert len(fresh) == 2  # one for B+C, one for (B+C)*D
        ops = sorted(op for op, *_ in equations)
        assert ops == ["*", "+"]

    def test_fresh_names_avoid_existing_attributes(self):
        equations, aliases, fresh = binarize(["Z1 = A + B"])
        assert "Z1" not in fresh  # Z1 is taken by the input
        assert all(name not in {"Z1", "A", "B"} for name in fresh)

    def test_attribute_equality_is_alias_only(self):
        equations, aliases, fresh = binarize(["A = B"])
        assert equations == [] and aliases == [("A", "B")] and fresh == []


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

    def test_functional_part_helper(self):
        assert functional_part(["A = A*B"]) == normalize_dependencies(["A = A*B"]).fds

    def test_normalized_fds_are_consequences_of_e(self):
        # Soundness of the pipeline: every produced FD, read as an FPD over the
        # extended universe, is implied by E' (original E + binarization equations).
        E = ["C = A + B", "A = A*D"]
        normalized = normalize_dependencies(E)
        from repro.consistency.normalization import binarize as _binarize
        from repro.dependencies.pd import PartitionDependency
        from repro.expressions.ast import Attr, Product, Sum

        equations, aliases, _ = _binarize(E)
        e_prime = [PartitionDependency.parse(pd) for pd in E]
        for left, right in aliases:
            e_prime.append(PartitionDependency(Attr(left), Attr(right)))
        for op, c, a, b in equations:
            node = Product(Attr(a), Attr(b)) if op == "*" else Sum(Attr(a), Attr(b))
            e_prime.append(PartitionDependency(Attr(c), node))
        for fd in normalized.fds:
            from repro.dependencies.conversion import fd_to_pd

            assert pd_implies(e_prime, fd_to_pd(fd)), str(fd)


def _closure_over_e_and_e_prime(pds):
    """The reference pipeline: steps 2-3 with ALG closing E ∪ E' over the extended universe."""
    equations, aliases, fresh = binarize(pds)
    fds, sums, binary_pds = [], [], []
    for left, right in aliases:
        fds += [FunctionalDependency([left], [right]), FunctionalDependency([right], [left])]
        binary_pds.append(PartitionDependency(Attr(left), Attr(right)))
    for op, c, a, b in equations:
        if op == "*":
            fds += [FunctionalDependency([c], [a, b]), FunctionalDependency([a, b], [c])]
            binary_pds.append(PartitionDependency(Attr(c), Product(Attr(a), Attr(b))))
        else:
            fds += [FunctionalDependency([a], [c]), FunctionalDependency([b], [c])]
            sums.append(SumConstraint(c, a, b))
            binary_pds.append(PartitionDependency(Attr(c), Sum(Attr(a), Attr(b))))
    universe = set(fresh).union(*(pd.attributes for pd in pds))
    pairs = ImplicationEngine(pds + binary_pds).attribute_order_consequences(universe)
    fds += [FunctionalDependency([a], [b]) for a, b in pairs]
    order = set(pairs)
    surviving = []
    for constraint in sums:
        if (constraint.a, constraint.b) in order:
            fds.append(FunctionalDependency([constraint.c], [constraint.b]))
        elif (constraint.b, constraint.a) in order:
            fds.append(FunctionalDependency([constraint.c], [constraint.a]))
        else:
            surviving.append(constraint)
    fds = [fd for fd in dict.fromkeys(fds) if not fd.is_trivial()]
    return fds, surviving, fresh, sorted(pairs)


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
    """Normalization over E's own index equals the E ∪ E' closure, list for list."""

    def test_fresh_engine_matches_the_e_prime_closure(self):
        for seed in range(200):
            pds = _random_theory(random.Random(seed))
            assert _artifacts(normalize_dependencies(pds)) == _closure_over_e_and_e_prime(pds), seed

    def test_warm_and_restored_session_engines_match_the_e_prime_closure(self):
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
            expected = _closure_over_e_and_e_prime(pds)
            for warm in (session, restored):
                context = warm.context_for(QueryRequest(kind="implies", query=pds[0]))
                assert context.peek_normalized() is None
                assert _artifacts(context.normalized) == expected, seed

    def test_normalizing_on_a_warm_engine_registers_no_vertices(self):
        pds = [as_partition_dependency(pd) for pd in ["A = (B + C) * D", "B = B*(A + D)"]]
        engine = ImplicationEngine(pds)
        before = engine.index.vertex_count
        normalize_dependencies(pds, engine=engine)
        assert engine.index.vertex_count == before

    def test_naive_engine_gives_the_same_artifacts(self):
        pds = [as_partition_dependency(pd) for pd in ["C = A + B", "A = A*(B + D)"]]
        naive = ImplicationEngine(pds, naive=True)
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
