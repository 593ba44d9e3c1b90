"""Tests for the indexed, int-coded chase engine.

The naive :func:`chase_fds` is kept as the oracle (the
``alg_closure_naive``/``alg_closure`` pattern): the engine must produce
byte-identical chased tableaux on randomized workloads, and representative
election must be the order the engine codes as "smaller id wins".
"""

import random

import pytest

from repro.consistency.normalization import normalize_dependencies
from repro.errors import DependencyError
from repro.relational.chase import (
    Tableau,
    TableauValue,
    chase_database,
    chase_fds,
    representative_instance,
)
from repro.relational.chase_engine import (
    ChaseEngine,
    chase_database_indexed,
    chase_fds_indexed,
    chase_many,
)
from repro.relational.database import Database
from repro.relational.functional_dependencies import FunctionalDependency, parse_fd_set
from repro.relational.relations import Relation
from repro.relational.weak_instance import weak_instance_consistency
from repro.workloads.random_dependencies import random_fd_set, random_pd_set
from repro.workloads.random_relations import chained_consistent_database, random_database


class TestRepresentativeElection:
    """The election order the int engine codes as "smaller id wins"."""

    def test_constant_always_wins_election(self):
        tableau = Tableau("AB")
        i = tableau.add_row({"B": "b"})
        null = tableau.value(i, "A")
        constant = tableau.value(i, "B")
        # Argument order must not matter: the constant is elected either way.
        assert tableau.equate(constant, null)
        assert tableau.value(i, "A") == constant

    def test_null_election_is_order_independent(self):
        # Whichever argument order is used, the smaller null label survives.
        for flip in (False, True):
            tableau = Tableau("AB")
            i = tableau.add_row({})
            first = tableau.value(i, "A")  # n1
            second = tableau.value(i, "B")  # n2
            pair = (second, first) if flip else (first, second)
            assert tableau.equate(*pair)
            assert tableau.value(i, "B") == first


class TestEngineMatchesNaiveOracle:
    """Regression for the delta machinery: engine == naive, always."""

    def test_randomized_cross_check(self):
        for seed in range(60):
            rng = random.Random(seed)
            database = random_database(
                relation_count=rng.randint(1, 4),
                universe_size=rng.randint(2, 6),
                attributes_per_relation=rng.randint(1, 4),
                tuples_per_relation=rng.randint(1, 6),
                domain_size=rng.randint(1, 4),
                seed=seed,
            )
            fds = random_fd_set(rng.randint(2, 6), rng.randint(1, 5), seed=seed)
            naive = chase_database(database, fds)
            indexed = chase_database_indexed(database, fds)
            assert naive.consistent == indexed.consistent, f"seed {seed}"
            if naive.consistent:
                left = naive.tableau.to_relation()
                right = indexed.tableau.to_relation()
                assert left == right, f"seed {seed}"
                # Byte-identical rendering, not just set equality.
                assert str(left) == str(right), f"seed {seed}"

    def test_deep_chase_cross_check(self):
        database, fds = chained_consistent_database(
            universe_size=6, relation_count=8, tuples_per_relation=20, domain_size=8, seed=3
        )
        naive = chase_database(database, fds)
        indexed = chase_database_indexed(database, fds)
        assert naive.consistent and indexed.consistent
        assert str(naive.tableau.to_relation()) == str(indexed.tableau.to_relation())
        assert naive.steps == indexed.steps  # same forced merges, counted once each

    def test_same_tableau_object_both_ways(self):
        # Chasing two fresh representative instances of the same database must
        # agree cell-for-cell (same null counter, same election).
        database = Database(
            [
                Relation.from_strings("R", "AB", ["a1.b1", "a2.b1"]),
                Relation.from_strings("S", "BC", ["b1.c1"]),
            ]
        )
        fds = parse_fd_set(["B -> AC"])
        first = representative_instance(database)
        second = representative_instance(database)
        naive = chase_fds(first, fds)
        indexed = chase_fds_indexed(second, fds)
        assert naive.consistent == indexed.consistent
        assert naive.tableau.rows_as_values() == indexed.tableau.rows_as_values()


class TestChaseEdgeCases:
    def test_empty_relations_database(self):
        database = Database([Relation.from_strings("R", "AB", [])])
        for result in (
            chase_database(database, parse_fd_set(["A -> B"])),
            chase_database_indexed(database, parse_fd_set(["A -> B"])),
        ):
            assert result.consistent
            assert result.steps == 0
            assert result.tableau.row_count == 0

    def test_empty_tableau_chase(self):
        tableau = Tableau("AB")
        result = chase_fds_indexed(tableau, parse_fd_set(["A -> B"]))
        assert result.consistent and result.steps == 0

    def test_no_fds_is_trivially_consistent(self):
        database = Database([Relation.from_strings("R", "AB", ["a.b", "a.b2"])])
        result = chase_database_indexed(database, [])
        assert result.consistent and result.steps == 0

    def test_fd_with_empty_lhs_rejected_at_construction(self):
        # The FD type itself forbids an empty determinant, so both chases are
        # shielded from the degenerate "every row agrees on {}" case.
        with pytest.raises(DependencyError):
            FunctionalDependency([], ["A"])
        with pytest.raises(DependencyError):
            FunctionalDependency(["A"], [])

    def test_nulls_promoted_to_constants(self):
        # S's tuple lacks B; the chase must promote its padding null to b1.
        database = Database(
            [
                Relation.from_strings("R", "AB", ["a1.b1"]),
                Relation.from_strings("S", "AC", ["a1.c1"]),
            ]
        )
        result = chase_database_indexed(database, parse_fd_set(["A -> B"]))
        assert result.consistent
        values = result.tableau.rows_as_values()
        assert all(row["B"] == TableauValue.constant("b1") for row in values)

    def test_constant_clash_reports_violation(self):
        database = Database([Relation.from_strings("S", "BC", ["b1.c1", "b1.c2"])])
        result = chase_database_indexed(database, parse_fd_set(["B -> C"]))
        assert not result.consistent
        assert result.violation is not None
        assert result.violation.lhs == frozenset({"B"})

    def test_chase_is_idempotent(self):
        # chase(chase(d)) == chase(d): re-chasing the materialized witness
        # (nulls rendered as fresh symbols) changes nothing.
        database, fds = chained_consistent_database(
            universe_size=5, relation_count=6, tuples_per_relation=10, domain_size=6, seed=11
        )
        first = weak_instance_consistency(database, fds)
        assert first.consistent and first.witness is not None
        rechased = chase_database_indexed(Database.single(first.witness), fds)
        assert rechased.consistent
        assert rechased.steps == 0
        assert rechased.tableau.to_relation(first.witness.name) == first.witness

    def test_engine_extends_universe_with_fd_attributes(self):
        database = Database([Relation.from_strings("R", "AB", ["a.b"])])
        result = chase_database_indexed(database, parse_fd_set(["A -> C"]))
        assert result.consistent
        assert "C" in result.tableau.attributes


class TestBatchApi:
    def test_chase_many_matches_one_shot(self):
        fds = parse_fd_set(["A -> B", "B -> C"])
        databases = [
            Database([Relation.from_strings("R", "AB", ["a1.b1"])]),
            Database([Relation.from_strings("S", "BC", ["b1.c1", "b1.c2"])]),
            Database(
                [
                    Relation.from_strings("R", "AB", ["a1.b1"]),
                    Relation.from_strings("S", "BC", ["b1.c1"]),
                ]
            ),
        ]
        results = chase_many(databases, fds)
        assert [r.consistent for r in results] == [True, False, True]
        for database, result in zip(databases, results):
            oracle = chase_database(database, fds)
            assert oracle.consistent == result.consistent
            if oracle.consistent:
                assert str(oracle.tableau.to_relation()) == str(result.tableau.to_relation())

    def test_engine_is_reusable_and_stateless_across_chases(self):
        engine = ChaseEngine(parse_fd_set(["A -> B"]))
        clash = Database([Relation.from_strings("R", "AB", ["a1.b1", "a1.b2"])])
        clean = Database([Relation.from_strings("R", "AB", ["a1.b1", "a2.b2"])])
        assert not engine.chase_database(clash).consistent
        # The failed run must leave no residue that corrupts the next one.
        assert engine.chase_database(clean).consistent
        assert not engine.chase_database(clash).consistent

    def test_engine_exposes_its_fds(self):
        fds = parse_fd_set(["A -> B"])
        assert ChaseEngine(fds).fds == fds

    def test_mismatched_engine_rejected(self):
        from repro.errors import ConsistencyError

        database = Database([Relation.from_strings("R", "AB", ["a1.b1"])])
        wrong_engine = ChaseEngine(parse_fd_set(["B -> A"]))
        with pytest.raises(ConsistencyError):
            weak_instance_consistency(database, parse_fd_set(["A -> B"]), engine=wrong_engine)

    def test_weak_instance_consistency_accepts_prebuilt_engine(self):
        fds = parse_fd_set(["A -> B", "B -> C"])
        engine = ChaseEngine(fds)
        database = Database(
            [
                Relation.from_strings("R", "AB", ["a1.b1"]),
                Relation.from_strings("S", "BC", ["b1.c1"]),
            ]
        )
        with_engine = weak_instance_consistency(database, fds, engine=engine)
        without = weak_instance_consistency(database, fds)
        assert with_engine.consistent == without.consistent
        assert with_engine.witness == without.witness


def _clashing_attributes(tableau, fd):
    """Attributes of ``fd.rhs`` on which two rows agreeing on ``fd.lhs`` hold distinct constants."""
    rows = tableau.rows_as_values()
    clashes = set()
    for i, first in enumerate(rows):
        for second in rows[i + 1 :]:
            if all(first[a] == second[a] for a in fd.lhs):
                clashes |= {
                    b
                    for b in fd.rhs
                    if first[b].is_constant and second[b].is_constant and first[b] != second[b]
                }
    return clashes


class TestOneBucketPerLeftHandSide:
    """FDs sharing a left-hand side share one bucket index (the normalization shape)."""

    def test_normalization_shaped_sets_match_naive_chase(self):
        consistent = inconsistent = 0
        for seed in range(120):
            rng = random.Random(seed)
            size = rng.randint(2, 5)
            pds = random_pd_set(size, rng.randint(1, 4), seed=seed, max_complexity=rng.randint(1, 3))
            fds = normalize_dependencies(pds).fds
            database = random_database(
                relation_count=rng.randint(1, 3),
                universe_size=size,
                attributes_per_relation=rng.randint(1, size),
                tuples_per_relation=rng.randint(1, 5),
                domain_size=rng.randint(1, 5),
                seed=seed,
            )
            naive = chase_database(database, fds)
            indexed = chase_database_indexed(database, fds)
            assert naive.consistent == indexed.consistent, seed
            if indexed.consistent:
                consistent += 1
                assert naive.tableau.rows_as_values() == indexed.tableau.rows_as_values(), seed
                assert naive.steps == indexed.steps, seed
            else:
                inconsistent += 1
                violation = indexed.violation
                assert violation in fds, seed
                clashes = _clashing_attributes(indexed.tableau, violation)
                same_lhs = [fd for fd in fds if fd.lhs == violation.lhs]
                assert any(
                    next(fd for fd in same_lhs if b in fd.rhs) == violation for b in clashes
                ), seed
        assert consistent >= 20 and inconsistent >= 20, (consistent, inconsistent)

    def test_many_fds_per_lhs_share_a_bucket_index(self):
        engine = ChaseEngine(parse_fd_set(["A -> B", "C -> D", "A -> C", "A -> B", "C -> A"]))
        assert engine._lhs == [("A",), ("C",)]
        assert engine._rhs == [("B", "C"), ("A", "D")]

    def test_clash_reports_first_fd_of_the_lhs_holding_the_attribute(self):
        fds = parse_fd_set(["A -> B", "A -> CD", "A -> C"])
        database = Database([Relation.from_strings("R", "ACD", ["a.c1.d", "a.c2.d"])])
        result = chase_database_indexed(database, fds)
        assert not result.consistent
        assert result.violation == fds[1]

    def test_clash_during_rekeying_reports_the_grouped_fd(self):
        # The C buckets are filed first (S's C is still a null); A -> C then
        # merges that null into c, S's bucket re-keys onto R's and the two
        # witnesses clash on E, which only C -> E holds.
        fds = parse_fd_set(["C -> D", "C -> E", "A -> C"])
        database = Database(
            [
                Relation.from_strings("R", "AC", ["a.c"]),
                Relation.from_strings("S", "AE", ["a.e1"]),
                Relation.from_strings("T", "CE", ["c.e2"]),
            ]
        )
        result = chase_database_indexed(database, fds)
        assert not result.consistent
        assert result.violation == fds[1]
