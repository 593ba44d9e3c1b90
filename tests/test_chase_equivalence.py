"""Randomized equivalence of the int-coded chase engine with the object chase oracle.

:class:`ChaseEngine` codes tableaux as ints; :func:`chase_fds` /
:func:`chase_database` over :class:`Tableau` objects stay as the oracle.  On
every drawn database and FD set the two must agree on the verdict, and on a
consistent chase also on ``steps`` (one per class merge) and the witness,
byte for byte.  On a clash the engine's violation must be an FD of the set
that the chased tableau really violates, and the engine's two entry points
(coded database, coded object tableau) must agree exactly.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.consistency.normalization import normalize_dependencies
from repro.consistency.pd_consistency import pd_consistency
from repro.deadline import check_deadline, deadline_scope
from repro.errors import DeadlineExceeded
from repro.relational import chase_engine as chase_engine_module
from repro.relational.chase import chase_database, representative_instance
from repro.relational.chase_engine import ChaseEngine
from repro.relational.database import Database
from repro.relational.functional_dependencies import FunctionalDependency
from repro.relational.relations import Relation
from repro.relational.weak_instance import is_weak_instance
from repro.workloads.random_dependencies import random_pd_set

#: Column names: the letters random PD sets use plus the first fresh names
#: normalization invents, so databases collide with ``F``'s fresh attributes.
POOL = ["A", "B", "C", "D", "Z1", "Z2"]
SYMBOLS = ["a", "b", "c"]

SETTINGS = settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def random_databases(draw) -> Database:
    """One to three small relations over ``POOL``; symbols are shared across columns."""
    relations = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        attributes = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True))
        rows = draw(
            st.lists(
                st.tuples(*[st.sampled_from(SYMBOLS) for _ in attributes]), min_size=0, max_size=5
            )
        )
        relations.append(
            Relation.from_rows(f"R{index}", attributes, [dict(zip(attributes, row)) for row in rows])
        )
    return Database(relations)


@st.composite
def projected_databases(draw) -> Database:
    """Projections of one hidden relation over ``POOL`` in which ``A``'s value is ``key % period[A]``.

    Every FD ``X -> Y`` whose periods divide holds in the hidden relation, so
    random FDs often chase to a consistent fixpoint through chains of null
    merges and bucket re-keys instead of clashing on the first pass.
    """
    keys = draw(st.integers(min_value=2, max_value=8))
    period = {a: draw(st.sampled_from([1, 2, 4, 8])) for a in POOL}
    hidden = [{a: f"{a.lower()}{key % period[a]}" for a in POOL} for key in range(keys)]
    relations = []
    for index in range(draw(st.integers(min_value=1, max_value=5))):
        attributes = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3, unique=True))
        chosen = draw(st.lists(st.sampled_from(hidden), min_size=1, max_size=keys))
        rows = [{a: row[a] for a in attributes} for row in chosen]
        relations.append(Relation.from_rows(f"R{index}", attributes, rows))
    return Database(relations)


databases = st.one_of(random_databases(), projected_databases())


def fd_lists():
    """Mostly unary FDs (the normalization's shape), some with two-attribute sides."""
    name = st.sampled_from(POOL)
    unary = st.builds(lambda a, b: FunctionalDependency([a], [b]), name, name)
    side = st.sets(st.sampled_from(POOL), min_size=1, max_size=2)
    return st.lists(
        st.one_of(unary, unary, st.builds(FunctionalDependency, side, side)), min_size=1, max_size=8
    )


@st.composite
def pd_sets(draw):
    return random_pd_set(
        draw(st.integers(min_value=2, max_value=4)),
        draw(st.integers(min_value=1, max_value=4)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        max_complexity=draw(st.integers(min_value=1, max_value=3)),
    )


def _clashing_attributes(rows, fd):
    """Attributes of ``fd.rhs`` on which two rows agreeing on ``fd.lhs`` hold distinct constants."""
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


def _assert_matches_oracle(result, oracle, fds) -> None:
    """The engine's result against the object chase of the same database."""
    assert result.consistent == oracle.consistent
    # The lazily built tableau and the witness rendered from ints agree.
    assert result.tableau.to_relation() == result.to_relation()
    if oracle.consistent:
        assert result.violation is None
        assert result.steps == oracle.steps
        assert str(result.to_relation()) == str(oracle.to_relation())
        assert result.tableau.rows_as_values() == oracle.tableau.rows_as_values()
        return
    violation = result.violation
    assert violation in fds
    # The violation is real: two rows agree on its LHS and clash on an RHS
    # attribute, and it is the first FD of that LHS holding the attribute.
    clashes = _clashing_attributes(result.tableau.rows_as_values(), violation)
    same_lhs = [fd for fd in fds if fd.lhs == violation.lhs]
    assert any(next(fd for fd in same_lhs if b in fd.rhs) == violation for b in clashes)


def _assert_entry_points_agree(engine, database, result) -> None:
    """Chasing the object representative instance gives the coded chase's exact run."""
    tableau = representative_instance(database, result.tableau.attributes)
    encoded = engine.chase(tableau)
    assert (encoded.consistent, encoded.violation, encoded.steps) == (
        result.consistent,
        result.violation,
        result.steps,
    )
    assert encoded.tableau is tableau
    assert tableau.rows_as_values() == result.tableau.rows_as_values()


class TestEngineAgainstObjectChase:
    @SETTINGS
    @given(database=databases, fds=fd_lists())
    def test_random_fd_sets(self, database, fds):
        engine = ChaseEngine(fds)
        result = engine.chase_database(database)
        _assert_matches_oracle(result, chase_database(database, fds), fds)
        _assert_entry_points_agree(engine, database, result)

    @SETTINGS
    @given(database=databases, pds=pd_sets())
    def test_normalization_shaped_fd_sets(self, database, pds):
        normalized = normalize_dependencies(pds)
        fds = normalized.fds
        engine = ChaseEngine(normalized.coded_fds)
        # Built from the coded groups or by grouping the FD list: one shape.
        listed = ChaseEngine(fds)
        assert (engine._lhs, engine._rhs) == (listed._lhs, listed._rhs)
        assert engine.fds == fds
        result = engine.chase_database(database)
        _assert_matches_oracle(result, chase_database(database, fds), fds)
        _assert_entry_points_agree(engine, database, result)

    @SETTINGS
    @given(database=databases, pds=pd_sets())
    def test_columns_named_like_fresh_attributes(self, database, pds):
        # Theorem 12 renames a column named like a fresh attribute of F for the
        # chase.  The oracle renames it to a name of its own; the verdict and
        # the witness's row count cannot depend on which name was chosen.
        normalized = normalize_dependencies(pds)
        result = pd_consistency(database, pds, normalized=normalized)
        taken = set(normalized.universe) | set(database.universe)
        renaming = {}
        for attribute in normalized.fresh_attributes:
            if attribute in database.universe:
                renaming[attribute] = next(
                    name for name in (f"col{i}" for i in range(100)) if name not in taken
                )
                taken.add(renaming[attribute])
        renamed = Database(
            [
                relation.rename_attributes(
                    {old: new for old, new in renaming.items() if old in relation.attributes},
                    name=relation.name,
                )
                for relation in database
            ]
        )
        oracle = chase_database(renamed, normalized.fds)
        assert result.consistent == oracle.consistent
        if oracle.consistent:
            witness = result.weak_instance
            assert len(witness) == len(oracle.to_relation())
            assert is_weak_instance(witness, database)
            assert (result.interpretation is None) == (len(witness) == 0)
        else:
            assert result.weak_instance is None and result.interpretation is None


class TestDeadlineMidChase:
    @settings(max_examples=60, deadline=None)
    @given(pds=pd_sets(), seed=st.integers(min_value=0, max_value=10_000), cut=st.integers(min_value=1))
    def test_expiry_at_any_check_raises_and_leaves_no_residue(self, pds, seed, cut):
        normalized = normalize_dependencies(pds)
        rng = random.Random(seed)
        names = sorted(normalized.universe)[:4]
        database = Database(
            [
                Relation.from_rows(
                    "R", names, [{a: rng.choice(SYMBOLS) for a in names} for _ in range(6)]
                )
            ]
        )
        engine = ChaseEngine(normalized.coded_fds)
        checks = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chase_engine_module, "check_deadline", lambda: checks.append(None))
            expected = engine.chase_database(database)
        assume(checks)  # F is empty when E has only trivial PDs: nothing to interrupt
        cut = 1 + (cut - 1) % len(checks)
        calls = []

        def expire_at_cut() -> None:
            calls.append(None)
            if len(calls) == cut:
                scope.expires_at = 0.0  # the budget runs out right here
            check_deadline()

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chase_engine_module, "check_deadline", expire_at_cut)
            with deadline_scope(60_000) as scope:
                with pytest.raises(DeadlineExceeded) as raised:
                    engine.chase_database(database)
        assert raised.value.scope is scope
        assert len(calls) == cut
        # The interrupted run leaves nothing behind in the reusable engine.
        again = engine.chase_database(database)
        assert (again.consistent, again.violation, again.steps) == (
            expected.consistent,
            expected.violation,
            expected.steps,
        )
        assert again.to_relation() == expected.to_relation()
