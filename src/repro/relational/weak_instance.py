"""Weak instances and Honeyman's weak-satisfaction test (paper §2.1, §4.3, §6.2).

A relation ``w`` over the full attribute universe ``U`` is a *weak instance*
for a database ``d`` iff every tuple of every relation ``ri`` (over ``Ui``)
of ``d`` appears in the projection ``w[Ui]``.  A database ``d`` is
*consistent with a set of FDs Σ under the weak instance assumption* iff some
weak instance for ``d`` satisfies Σ.

Honeyman's test decides this in polynomial time: chase the representative
instance of ``d`` with Σ; consistency holds iff the chase never equates two
distinct constants.  Moreover the chased tableau itself (with nulls rendered
as fresh symbols) *is* a weak instance satisfying Σ whenever the test
succeeds, which is exactly the constructive content the paper's Theorems 6
and 7 rely on.

The chase runs on the int-coded
:class:`~repro.relational.chase_engine.ChaseEngine`, which renders the
witness straight from its int tableau; the object chase of
:mod:`repro.relational.chase` stays as the cross-check oracle.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConsistencyError
from repro.relational.attributes import AttributeSet, as_attribute_set
from repro.relational.chase import ChaseResult
from repro.relational.chase_engine import ChaseEngine
from repro.relational.database import Database
from repro.relational.functional_dependencies import FunctionalDependency
from repro.relational.relations import Relation


def is_weak_instance(candidate: Relation, database: Database) -> bool:
    """True iff ``candidate`` is a weak instance for ``database``.

    ``candidate`` must be a relation over (at least) the database universe;
    every tuple of every database relation must appear in the projection of
    ``candidate`` onto that relation's attributes.
    """
    universe = database.universe
    if not universe <= candidate.attributes:
        raise ConsistencyError(
            "a weak instance must be defined over every attribute of the database"
        )
    for relation in database.relations:
        projected = candidate.project(relation.attributes)
        for row in relation.rows:
            if row not in projected.rows:
                return False
    return True


@dataclass(frozen=True)
class WeakInstanceResult:
    """Result of the weak-instance consistency test.

    ``consistent`` says whether a weak instance satisfying the FDs exists;
    when it does, ``witness`` is one such weak instance (the chased
    representative instance with nulls rendered as fresh symbols) and
    ``chase`` carries the underlying chase result for inspection.
    """

    consistent: bool
    witness: Optional[Relation]
    chase: ChaseResult


def weak_instance_consistency(
    database: Database,
    fds: Sequence[FunctionalDependency],
    witness_name: str = "weak_instance",
    engine: Optional[ChaseEngine] = None,
) -> WeakInstanceResult:
    """Honeyman's test: is ``database`` consistent with ``fds`` under the weak-instance assumption?

    Runs the FD chase on the representative instance — via the indexed,
    delta-driven, int-coded :class:`~repro.relational.chase_engine.ChaseEngine`
    (the naive :func:`~repro.relational.chase.chase_fds` produces the
    identical tableau and survives as a cross-check oracle).  Callers issuing
    many tests against one FD set can pass a prebuilt ``engine`` to amortize
    the FD preprocessing; it must have been built from the same dependencies
    as ``fds`` (a mismatch raises, rather than silently chasing with the
    engine's set and reporting the verdict against the other).  On success
    the chased instance is rendered as an actual weak instance satisfying the
    FDs and returned as the witness.
    """
    if engine is None:
        engine = ChaseEngine(fds)
    elif set(engine.fds) != set(fds):
        raise ConsistencyError(
            "the prebuilt chase engine was constructed from a different FD set "
            "than the one being tested"
        )
    return chase_weak_instance(database, engine, witness_name)


def chase_weak_instance(
    database: Database, engine: ChaseEngine, witness_name: str = "weak_instance"
) -> WeakInstanceResult:
    """Honeyman's test with ``engine``'s own FD set — the body of :func:`weak_instance_consistency`.

    Callers that built ``engine`` from their own artifact (Theorem 12's
    :func:`~repro.consistency.pd_consistency.pd_consistency`) call this
    directly, skipping the FD-set comparison.
    """
    result = engine.chase_database(database)
    if not result.consistent:
        return WeakInstanceResult(False, None, result)
    return WeakInstanceResult(True, result.to_relation(witness_name), result)


def is_consistent_with_fds(database: Database, fds: Sequence[FunctionalDependency]) -> bool:
    """Boolean convenience wrapper around :func:`weak_instance_consistency`."""
    return weak_instance_consistency(database, fds).consistent


def weak_instance_with_fixed_domains(
    database: Database, fds: Sequence[FunctionalDependency]
) -> Optional[Relation]:
    """Search for a weak instance ``w`` satisfying ``fds`` with ``w[A] = d[A]`` for every ``A``.

    This is the *CAD + EAP* variant of consistency (Theorem 6b / Theorem 11):
    the weak instance may only use symbols already present in the database
    under each attribute.  The problem is NP-complete; this function simply
    delegates to the exact solver in :mod:`repro.consistency.cad` and returns
    the witness relation (or ``None``).  It is re-exported here so that the
    two variants of the weak-instance assumption live side by side.
    """
    from repro.consistency.cad import cad_consistency

    outcome = cad_consistency(database, fds)
    return outcome.witness if outcome.consistent else None


def projection_containment_report(candidate: Relation, database: Database) -> dict[str, bool]:
    """Per-relation report of the weak-instance containment condition.

    Useful for debugging inconsistent databases: maps each relation name to
    whether its tuples are all contained in the corresponding projection of
    ``candidate``.
    """
    report: dict[str, bool] = {}
    for relation in database.relations:
        projected = candidate.project(relation.attributes)
        report[relation.name] = all(row in projected.rows for row in relation.rows)
    return report


def universe_of(database: Database, fds: Sequence[FunctionalDependency]) -> AttributeSet:
    """The attribute universe spanned by a database together with a set of FDs."""
    attrs = database.universe
    for fd in fds:
        attrs = attrs | as_attribute_set(fd.attributes)
    return attrs
