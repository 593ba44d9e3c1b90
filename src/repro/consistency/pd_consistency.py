"""The polynomial-time consistency test for a database and a set of PDs (Theorem 12, §6.2).

Given a database ``d`` over attributes ``U`` and an arbitrary finite set
``E`` of PDs, decide whether some partition interpretation satisfies both —
equivalently (Theorem 7) whether ``d`` has a weak instance satisfying ``E``.

The pipeline, following §6.2:

1. normalize ``E`` (name, re-express, close, prune) into an FD set ``F``
   over an extended universe — ``E``'s attributes plus one fresh attribute
   per ``=_E`` class of its composite subexpressions — and surviving sum
   constraints ``C ≤ A+B`` (:mod:`repro.consistency.normalization`); one
   ``leq_masks`` read over ``E``'s subexpressions, on a caller's warm ALG
   engine when one is at hand, gives both the classes and the closure;
2. by Lemma 12.1, ``d`` has a weak instance satisfying ``E⁺`` iff it has one
   satisfying ``F`` alone, so run Honeyman's chase on ``(d, F)`` — on the
   int-coded :class:`~repro.relational.chase_engine.ChaseEngine`, built from
   step 1's coded ``F``.  A column of ``d`` that happens to share its name
   with one of the fresh attributes invented in step 1 is renamed for the
   chase, since ``E`` says nothing about it;
3. report the verdict and, on success, the chased weak instance; the
   witness interpretation ``I(w)`` (per Theorem 7's proof) is constructed
   from it when first read.

The witness of step 3 satisfies ``F`` but not necessarily the pruned sum
constraints (Lemma 12.1 repairs those with an infinite sequence of tuple
insertions — the limit object cannot be materialized).  The result therefore
carries both the verdict and the finite witness, and
:func:`repair_sum_constraints_once` exposes one round of the Lemma 12.1
repair so callers (and tests) can watch the construction converge on the
violations present in the finite witness.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from repro.consistency.normalization import NormalizedDependencies, SumConstraint, normalize_dependencies
from repro.dependencies.pd import PartitionDependencyLike, as_partition_dependency
from repro.errors import ConsistencyError
from repro.partitions.canonical import canonical_interpretation
from repro.partitions.interpretation import PartitionInterpretation
from repro.relational.attributes import Attribute
from repro.relational.chase_engine import ChaseEngine
from repro.relational.database import Database
from repro.relational.functional_dependencies import closure
from repro.relational.relations import Relation
from repro.relational.schema import RelationScheme
from repro.relational.tuples import Row
from repro.relational.weak_instance import WeakInstanceResult, chase_weak_instance


@dataclass(frozen=True)
class PdConsistencyResult:
    """Outcome of the Theorem 12 test.

    ``consistent`` — the verdict (polynomial-time, exact);
    ``normalized`` — the normalization artifacts (FD set ``F``, sum constraints, closure pairs);
    ``weak_instance`` — a weak instance for ``d`` satisfying ``F`` (when consistent);
    ``interpretation`` — ``I(w)`` for that weak instance (satisfies ``d`` and ``F``),
    built on first read.

    A fresh attribute of ``F`` that shares its name with a column of ``d``
    appears in ``weak_instance`` under a primed name (``Z1'``), so every
    column of ``d`` keeps its own name and values.
    """

    consistent: bool
    normalized: NormalizedDependencies
    weak_instance: Optional[Relation]
    chase: WeakInstanceResult

    @cached_property
    def interpretation(self) -> Optional[PartitionInterpretation]:
        if not self.weak_instance:
            return None
        return canonical_interpretation(self.weak_instance)


def pd_consistency(
    database: Database,
    dependencies: Sequence[PartitionDependencyLike],
    engine: Optional[ChaseEngine] = None,
    normalized: Optional[NormalizedDependencies] = None,
) -> PdConsistencyResult:
    """Theorem 12: polynomial-time consistency of ``(d, E)`` for an arbitrary PD set ``E``.

    The chase of step 2 runs on the indexed
    :class:`~repro.relational.chase_engine.ChaseEngine`, one bucket index
    per left-hand side of ``F``.  Callers holding the step-1 artifacts
    already (from :func:`normalize_dependencies`, which reads its closure
    step off an ALG engine over ``E`` — a warm one if the caller passes it)
    can pass ``normalized`` to skip re-normalizing; a prebuilt ``engine``
    (from :func:`pd_chase_engine`) additionally skips the chase engine's own
    FD preprocessing.  An engine built from ``normalized.coded_fds`` is
    accepted by identity; any other must chase the same FD set, or
    :class:`~repro.errors.ConsistencyError` is raised.
    :func:`pd_consistency_many` wires both up for a batch of databases.
    Database columns named like a fresh attribute of ``F`` are renamed for
    the chase (see :class:`PdConsistencyResult`).
    """
    if normalized is None:
        normalized = normalize_dependencies([as_partition_dependency(pd) for pd in dependencies])
    if engine is None:
        engine = ChaseEngine(normalized.coded_fds)
    elif engine.coded is not normalized.coded_fds and set(engine.fds) != set(normalized.fds):
        raise ConsistencyError(
            "the prebuilt chase engine was constructed from a different FD set "
            "than the normalized one being tested"
        )
    database, renaming = _rename_fresh_collisions(database, normalized)
    chase_result = chase_weak_instance(database, engine)
    if renaming and chase_result.consistent:
        chase_result = replace(chase_result, witness=_swap_back(chase_result.witness, renaming))
    return _result_from_chase(normalized, chase_result)


def _rename_fresh_collisions(
    database: Database, normalized: NormalizedDependencies
) -> tuple[Database, dict[Attribute, Attribute]]:
    """Rename the columns of ``database`` named like a fresh attribute of ``F``.

    Returns the database to chase and the renaming ``{column: new name}``
    (empty, with the database itself, when nothing collides).  New names add
    primes until they are unused by the database and by ``F``.
    """
    universe = database.universe
    colliding = [attribute for attribute in normalized.fresh_attributes if attribute in universe]
    if not colliding:
        return database, {}
    taken = set(universe) | set(normalized.universe)
    renaming: dict[Attribute, Attribute] = {}
    for attribute in colliding:
        candidate = attribute + "'"
        while candidate in taken:
            candidate += "'"
        taken.add(candidate)
        renaming[attribute] = candidate
    relations = []
    for relation in database:
        mapping = {old: new for old, new in renaming.items() if old in relation.attributes}
        relations.append(relation.rename_attributes(mapping, name=relation.name) if mapping else relation)
    return Database(relations), renaming


def _swap_back(witness: Relation, renaming: dict[Attribute, Attribute]) -> Relation:
    """Give the database's columns their names back; the fresh attributes take the primed ones.

    Every fresh attribute occurs in some FD of ``F``, so the witness has both columns of each pair.
    """
    swap = dict(renaming)
    swap.update((new, old) for old, new in renaming.items())
    return witness.rename_attributes(swap, name=witness.name)


def _result_from_chase(
    normalized: NormalizedDependencies, chase_result: WeakInstanceResult
) -> PdConsistencyResult:
    """Assemble the Theorem 12 result from a chase outcome (``I(w)`` is built on first read)."""
    return PdConsistencyResult(chase_result.consistent, normalized, chase_result.witness, chase_result)


def pd_consistency_many(
    databases: Iterable[Database],
    dependencies: Sequence[PartitionDependencyLike],
    normalized: Optional[NormalizedDependencies] = None,
) -> list[PdConsistencyResult]:
    """Theorem 12 over a batch of databases sharing one PD set.

    Normalization (step 1 — name ``E``'s composite classes and read the
    closure off one ALG engine over ``E``, re-express, prune) and the
    chase-engine preprocessing both depend only on ``E``, so the batch pays
    them once instead of once per database; only the chase itself (step 2)
    runs per database.  Results
    match per-database :func:`pd_consistency` exactly.
    """
    if normalized is None:
        normalized = normalize_dependencies([as_partition_dependency(pd) for pd in dependencies])
    engine = ChaseEngine(normalized.coded_fds)
    return [
        pd_consistency(database, dependencies, engine=engine, normalized=normalized)
        for database in databases
    ]


def is_pd_consistent(database: Database, dependencies: Sequence[PartitionDependencyLike]) -> bool:
    """Boolean convenience wrapper around :func:`pd_consistency`."""
    return pd_consistency(database, dependencies).consistent


def pd_chase_engine(
    dependencies: Sequence[PartitionDependencyLike],
    normalized: Optional[NormalizedDependencies] = None,
) -> ChaseEngine:
    """A reusable chase engine over the FD translation of a PD set.

    Useful for driving the chase directly (e.g. via
    :func:`repro.relational.weak_instance.weak_instance_consistency` with the
    normalized FD set) against many databases.  Pass the ``normalized``
    artifacts along to :func:`pd_consistency` to skip step 1 there too, or
    use :func:`pd_consistency_many`, which amortizes both for a batch.
    """
    if normalized is None:
        normalized = normalize_dependencies([as_partition_dependency(pd) for pd in dependencies])
    return ChaseEngine(normalized.coded_fds)


# -- the Lemma 12.1 repair step -------------------------------------------------------------


def sum_constraint_violations(
    relation: Relation, constraint: SumConstraint
) -> list[tuple[Row, Row]]:
    """Pairs of tuples violating ``C ≤ A+B`` in a relation over the extended universe.

    A violation is a pair agreeing on ``C`` but *not* connected by a chain of
    tuples consecutively sharing their ``A`` or ``B`` value.
    """
    rows = relation.sorted_rows()
    if not rows:
        return []
    # Union-find over row indexes for the chain (A or B shared) relation.
    parent = list(range(len(rows)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for attribute in (constraint.a, constraint.b):
        by_value: dict[str, int] = {}
        for i, row in enumerate(rows):
            value = row[attribute]
            if value in by_value:
                union(i, by_value[value])
            else:
                by_value[value] = i

    violations = []
    for i, j in itertools.combinations(range(len(rows)), 2):
        if rows[i][constraint.c] == rows[j][constraint.c] and find(i) != find(j):
            violations.append((rows[i], rows[j]))
    return violations


def repair_sum_constraints_once(
    witness: Relation,
    normalized: NormalizedDependencies,
    fresh_prefix: str = "w",
) -> tuple[Relation, int]:
    """One round of the Lemma 12.1 repair: fix every current ``C ≤ A+B`` violation.

    For each violating pair ``t1, t2`` a new tuple ``t`` is added with
    ``t[A] = t1[A]``, ``t[B] = t2[B]``, ``t[A⁺] = t1[A⁺]``, ``t[B⁺] = t2[B⁺]``
    (attribute closures under ``F``) and fresh symbols elsewhere — exactly
    the construction in the lemma's proof.  Returns the repaired relation and
    the number of tuples added.  Repeating the call converges for many finite
    witnesses but need not terminate in general (the lemma builds the weak
    instance as a limit); callers should bound the number of rounds.
    """
    fds = normalized.fds
    rows = set(witness.rows)
    counter = itertools.count(1)
    added = 0
    universe = witness.attributes
    for constraint in normalized.sum_constraints:
        if constraint.a not in universe or constraint.b not in universe or constraint.c not in universe:
            continue
        for t1, t2 in sum_constraint_violations(Relation(witness.scheme, rows), constraint):
            a_plus = closure([constraint.a], fds) & universe
            b_plus = closure([constraint.b], fds) & universe
            cells: dict[str, str] = {}
            for attribute in universe:
                if attribute in a_plus:
                    cells[attribute] = t1[attribute]
                elif attribute in b_plus:
                    cells[attribute] = t2[attribute]
                else:
                    cells[attribute] = f"{fresh_prefix}{next(counter)}_{attribute}"
            rows.add(Row(cells))
            added += 1
    scheme = RelationScheme(witness.name, universe)
    return Relation(scheme, rows), added


def consistency_with_explicit_weak_instance(
    database: Database,
    dependencies: Sequence[PartitionDependencyLike],
    candidate: Relation,
) -> bool:
    """Check directly that ``candidate`` is a weak instance for ``d`` satisfying ``E``.

    This is the right-hand side of Theorem 7 stated verbatim — useful for
    validating the Theorem 12 pipeline on small examples where a weak
    instance can be guessed or constructed by hand.
    """
    from repro.dependencies.satisfaction import relation_satisfies_all_pds
    from repro.relational.weak_instance import is_weak_instance

    pds = [as_partition_dependency(pd) for pd in dependencies]
    return is_weak_instance(candidate, database) and relation_satisfies_all_pds(candidate, pds)
