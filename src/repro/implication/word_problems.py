"""Uniform word problems: the algebraic face of dependency implication (§5.1, §5.3).

The paper's central identification is:

* **PD implication** = the uniform word problem for **lattices**
  (Theorem 8 / Theorem 9): given equations ``E`` between lattice terms over
  generators ``U`` and a query equation, decide whether every lattice with
  constants over ``U`` satisfying ``E`` satisfies the query.
* **FD implication** = the uniform word problem for **idempotent commutative
  semigroups** (§5.3): terms are ``·``-only, i.e. finite non-empty sets of
  generators, and the word problem reduces to FD implication both ways.

This module exposes both word problems with algebra-flavoured signatures, so
a reader coming from universal algebra can use the library without touching
relational vocabulary, and so tests can state the reductions exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Optional

from repro.dependencies.pd import PartitionDependencyLike, as_partition_dependency
from repro.errors import DependencyError
from repro.expressions.ast import ExpressionLike, as_expression
from repro.implication.alg import ImplicationEngine, pd_implies
from repro.implication.identities import identically_equal
from repro.relational.attributes import AttributeSet, as_attribute_set
from repro.relational.functional_dependencies import FunctionalDependency, implies


def lattice_word_problem(
    equations: Iterable[PartitionDependencyLike | tuple[ExpressionLike, ExpressionLike]],
    query: PartitionDependencyLike | tuple[ExpressionLike, ExpressionLike],
) -> bool:
    """The uniform word problem for lattices: does ``E ∪ LA`` imply the query equation?

    Decided in polynomial time by ALG (Theorem 9).  By Theorem 8 the answer
    is the same over all lattices, finite lattices, relations and finite
    relations.
    """
    pds = [as_partition_dependency(eq) for eq in equations]
    return pd_implies(pds, as_partition_dependency(query))


def lattice_word_problems(
    equations: Iterable[PartitionDependencyLike | tuple[ExpressionLike, ExpressionLike]],
    queries: Iterable[PartitionDependencyLike | tuple[ExpressionLike, ExpressionLike]],
    *,
    engine: Optional[ImplicationEngine] = None,
) -> list[bool]:
    """Batch uniform word problems: many query equations against one theory ``E``.

    ``E`` is closed once, by ``engine`` — a warm engine over exactly
    ``equations`` (a service tenant's; one over a different PD set raises
    :class:`ValueError`) — or, without it, by one fresh
    :class:`~repro.implication.alg.ImplicationEngine`.  Each query is
    then answered in its own
    :meth:`~repro.implication.index.ImplicationIndex.overlay`, which
    registers the query's subexpressions, reads the verdict and rolls the
    index back, so the engine is left exactly as it was found.  Lemma 9.2
    (ALG over a larger vertex set is conservative) makes every verdict the
    one a fresh engine over ``E`` and the query's own subexpressions gives.

    One overlay per query, not per batch: an overlay's arc relation is
    quadratic in its vertex set, and one overlay holding a whole
    2000-query single-Γ stream was measured more than 10× slower than
    per-query ones.
    """
    pds = [as_partition_dependency(eq) for eq in equations]
    if engine is None:
        engine = ImplicationEngine(pds)
    elif set(engine.dependencies) != set(pds):
        raise ValueError("lattice_word_problems needs an engine over exactly the given equations")
    index = engine.index
    verdicts: list[bool] = []
    for query in queries:
        pd = as_partition_dependency(query)
        with index.overlay():
            verdicts.append(index.equivalent(pd.left, pd.right))
    return verdicts


def lattice_identity(query: PartitionDependencyLike | tuple[ExpressionLike, ExpressionLike]) -> bool:
    """The word problem for the free lattice (``E = ∅``): is the query a lattice identity?

    Decided by the ``≤_id`` recursion (Theorem 10); cheaper than running ALG.
    """
    pd = as_partition_dependency(query)
    return identically_equal(pd.left, pd.right)


def _term_to_attribute_set(term) -> AttributeSet:
    """Interpret a ``·``-only term (or an explicit generator collection) as a set of generators.

    Accepted forms: a partition expression built only from ``*`` (e.g. the
    parse of ``"A * B"``), a string in the expression syntax, or a collection
    of generator names (set/frozenset/list).
    """
    if isinstance(term, (frozenset, set, list)):
        return as_attribute_set(term)
    expression = as_expression(term)
    if not expression.is_product_of_attributes():
        raise DependencyError(
            f"semigroup terms must be products of generators, got {expression}"
        )
    return expression.attributes()


def semigroup_word_problem(
    equations: Sequence[tuple[ExpressionLike, ExpressionLike]],
    query: tuple[ExpressionLike, ExpressionLike],
) -> bool:
    """The uniform word problem for idempotent commutative semigroups.

    Terms are products of generators, i.e. finite non-empty generator sets.
    Following §5.3, an equation ``X = Y`` is translated to the FD pair
    ``{X → Y, Y → X}`` and the query ``P = Q`` holds iff both ``P → Q`` and
    ``Q → P`` follow — decided with the attribute-closure algorithm.
    """
    fds: list[FunctionalDependency] = []
    for left, right in equations:
        left_set = _term_to_attribute_set(left)
        right_set = _term_to_attribute_set(right)
        fds.append(FunctionalDependency(left_set, right_set))
        fds.append(FunctionalDependency(right_set, left_set))
    query_left = _term_to_attribute_set(query[0])
    query_right = _term_to_attribute_set(query[1])
    return implies(fds, FunctionalDependency(query_left, query_right)) and implies(
        fds, FunctionalDependency(query_right, query_left)
    )


def fd_implication_as_semigroup_problem(
    fds: Sequence[FunctionalDependency], target: FunctionalDependency
) -> bool:
    """FD implication phrased as a semigroup word problem (§5.3).

    The FD ``X → Y`` corresponds to the equation ``X = X·Y``; the reduction
    is sound and complete, so the answer always agrees with
    :func:`repro.relational.functional_dependencies.implies` (tests verify
    this on random inputs).
    """
    equations = [(set(fd.lhs), set(fd.lhs | fd.rhs)) for fd in fds]
    query = (set(target.lhs), set(target.lhs | target.rhs))
    return semigroup_word_problem(equations, query)
