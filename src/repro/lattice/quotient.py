"""Quotient lattices ``L_E`` and finite counterexamples ``L_H`` (Theorem 8, §5.1).

For a finite set ``E`` of PDs the paper defines the relation ``=_E`` on
partition expressions (the congruence generated by the lattice identities and
the equations of ``E``) and shows that the quotient ``L_E`` is a lattice with
constants that satisfies exactly the PDs implied by ``E``.  ``L_E`` is
infinite in general; the finite-implication half of Theorem 8 (adapted from
Dean's argument) cuts out a *finite* sublattice ``L_H``:

    take ``H`` = all expressions over the relevant attributes whose
    complexity is at most the maximum complexity occurring in ``E, e, e'``;
    ``L_H`` = the ``=_E``-classes of all finite products of members of ``H``,
    together with the class of ``A1 + ... + An``.

``L_H`` satisfies ``E``, and when ``E ⊭ e = e'`` it also violates ``e = e'``
— a concrete finite countermodel.  This module materializes both objects for
*small* inputs (the construction is inherently exponential, which is exactly
why the paper develops ALG instead of using it as a decision procedure).

The pipeline is **class-driven**: PR 2's :class:`ImplicationIndex` collapses
Γ-equivalent vertices into congruence classes, and ``=_E`` membership *is*
class-id equality, so

* :func:`quotient_fragment` collapses a pool by one group-by on class ids
  (one ``class_id`` probe per pool member) instead of the O(|pool|·|classes|)
  pairwise ``leq`` scan (preserved as
  :func:`repro.lattice.oracle.quotient_fragment_pairwise`);
* :meth:`QuotientFragment.index_of` is an O(1) dictionary lookup from class
  id to representative index;
* :func:`finite_counterexample`'s product-closure loop is a worklist keyed on
  class ids — a product either hits a known class (dict hit) or founds a new
  element — replacing the linear canonicalization scan over all elements
  (preserved as :func:`repro.lattice.oracle.finite_counterexample_oracle`).
  The product's class is read off its operands' rows first
  (:meth:`~repro.implication.index.ImplicationIndex.product_class`: by
  Lemma 9.2 the composite's old origins are ``down[p] & down[q]`` and its old
  targets ``up[p] | up[q]`` closed under rule 4), so only products that do
  not land on a known element are built and registered, and the lattice
  order is one :meth:`~repro.implication.index.ImplicationIndex.leq_masks`
  read.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro import profiling
from repro.deadline import check_deadline
from repro.dependencies.pd import PartitionDependency, PartitionDependencyLike, as_partition_dependency
from repro.errors import LatticeError
from repro.expressions.ast import PartitionExpression, Product, attr, sum_of
from repro.implication.alg import ImplicationEngine
from repro.lattice.core import FiniteLattice
from repro.lattice.free_lattice import bounded_expressions


@dataclass(frozen=True)
class QuotientFragment:
    """``=_E`` classes of a pool of expressions, ordered by ``≤_E``.

    ``representatives`` holds one (smallest) expression per class;
    ``order`` is the set of ordered pairs (by representative index) in the
    ``≤_E`` order.
    """

    dependencies: tuple[PartitionDependency, ...]
    representatives: tuple[PartitionExpression, ...]
    order: frozenset[tuple[int, int]]

    @cached_property
    def _engine(self) -> ImplicationEngine:
        """A lazily-built engine over ``E`` with every representative registered.

        Cached on the instance (``cached_property`` writes through the frozen
        dataclass), so repeated :meth:`index_of` calls share one incremental
        closure instead of rebuilding it per call.
        """
        return ImplicationEngine(self.dependencies, query_expressions=self.representatives)

    @cached_property
    def _index_by_class(self) -> dict[int, int]:
        """Congruence-class id → representative index, on the fragment's own engine."""
        index = self._engine.index
        return {index.class_id(rep): i for i, rep in enumerate(self.representatives)}

    def index_of(self, expression: PartitionExpression) -> int:
        """The index of the class containing ``expression`` (−1 if not represented).

        One ``class_id`` probe on the fragment's own engine and a dictionary
        hit; registering the query expression cannot disturb the cached
        table because adding vertices never merges existing classes.
        """
        return self._index_by_class.get(self._engine.index.class_id(expression), -1)

    def leq(self, i: int, j: int) -> bool:
        """Order between two classes by index."""
        return (i, j) in self.order

    def __len__(self) -> int:
        return len(self.representatives)


def _engine_over(pds: Sequence[PartitionDependency], engine: Optional[ImplicationEngine]) -> ImplicationEngine:
    """``engine`` if it reasons over exactly the PD *set* ``pds``, a fresh engine if it is ``None``."""
    if engine is None:
        return ImplicationEngine(pds)
    if set(engine.dependencies) != set(pds):
        raise LatticeError("the shared engine must reason over exactly the PD set of the construction")
    return engine


def quotient_fragment(
    dependencies: Iterable[PartitionDependencyLike],
    pool: Sequence[PartitionExpression],
    engine: Optional[ImplicationEngine] = None,
) -> QuotientFragment:
    """Collapse ``pool`` into ``=_E`` classes and record the ``≤_E`` order between them.

    A caller constructing several quotient artifacts over the same ``E`` (as
    :func:`finite_counterexample` does) can pass a shared incremental
    ``engine``; it must reason over exactly the same PD *set* (order and
    multiplicity of the dependencies do not matter), else :class:`LatticeError`
    is raised.  The pool is registered on it; to leave it unchanged, call
    inside an :meth:`~repro.implication.index.ImplicationIndex.overlay`.
    """
    pds = tuple(as_partition_dependency(pd) for pd in dependencies)
    engine = _engine_over(pds, engine)
    engine.prepare(pool)
    index = engine.index
    by_class: dict[int, PartitionExpression] = {}
    for candidate in sorted(pool, key=lambda e: (e.size(), str(e))):
        by_class.setdefault(index.class_id(candidate), candidate)
    representatives = tuple(by_class.values())
    class_ids = list(by_class)
    order = frozenset(
        (i, j)
        for i, left in enumerate(class_ids)
        for j, right in enumerate(class_ids)
        if index.class_leq(left, right)
    )
    return QuotientFragment(pds, representatives, order)


def theorem8_pool(
    dependencies: Sequence[PartitionDependency],
    query: PartitionDependency,
    max_pool: int = 4000,
) -> list[PartitionExpression]:
    """The expression set ``H`` of Theorem 8: all expressions of bounded complexity.

    The bound is the maximum complexity among ``E`` and the query.  Raises
    :class:`LatticeError` when the pool would exceed ``max_pool`` expressions
    (the construction is exponential; callers hitting the cap should shrink
    their input or use ALG, which is the paper's whole point).
    """
    attributes = sorted(
        set(query.attributes) | {a for pd in dependencies for a in pd.attributes}
    )
    complexity = max(
        [query.left.complexity(), query.right.complexity()]
        + [pd.left.complexity() for pd in dependencies]
        + [pd.right.complexity() for pd in dependencies]
    )
    # Estimate the pool size before materializing it: count[k] expressions of
    # complexity exactly k over n generators satisfy
    # count[0] = n, count[k] = 2 * Σ_{i+j=k-1} count[i]·count[j].
    counts = [len(attributes)]
    for k in range(1, complexity + 1):
        counts.append(2 * sum(counts[i] * counts[k - 1 - i] for i in range(k)))
    estimated = sum(counts)
    if estimated > max_pool:
        raise LatticeError(
            f"Theorem 8 pool would have {estimated} expressions (> {max_pool}); "
            "the construction is exponential — use ALG for implication instead"
        )
    return bounded_expressions(attributes, complexity)


def finite_counterexample(
    dependencies: Iterable[PartitionDependencyLike],
    query: PartitionDependencyLike,
    max_pool: int = 4000,
    engine: Optional[ImplicationEngine] = None,
) -> Optional[FiniteLattice]:
    """The finite lattice ``L_H`` witnessing ``E ⊭ e = e'`` (or ``None`` when ``E ⊨ e = e'``).

    The returned lattice has the attributes of ``E`` and the query as
    constants, satisfies every PD of ``E``, and violates the query — the
    constructive content of the equivalence (b) ⇔ (c) in Theorem 8.
    ``engine`` has the contract of :func:`quotient_fragment`'s.
    """
    pds = [as_partition_dependency(pd) for pd in dependencies]
    target = as_partition_dependency(query)
    # One incremental engine is shared by the whole construction: the
    # implication check, the pool collapse and the product-closure loop all
    # extend the same closure instead of rebuilding it.
    engine = _engine_over(pds, engine)
    if engine.implies(target):
        return None

    pool = theorem8_pool(pds, target, max_pool=max_pool)
    attributes = sorted({a for e in pool for a in e.attributes()})
    top_expression = sum_of([attr(a) for a in attributes])

    # Collapse the pool into =_E classes first (this is the expensive step).
    fragment = quotient_fragment(pds, pool, engine=engine)
    index = engine.index

    # L_H: classes of finite products of pool classes, plus the class of
    # A1+...+An.  The closure runs as a worklist over the growing element
    # list, keyed on congruence-class ids: each unordered pair is examined
    # once, and a product is either a dict hit on a known class or founds a
    # new element (and new pairs).  The product's class is first read off
    # its operands' rows (``product_class``, Lemma 9.2): registration would
    # alias a product on a known class without a new row anyway, but the
    # pre-probe skips building and hashing ``Product(other, current)`` for
    # the products that land on a known element; only the others go
    # through ``canonical``.  Class ids are stable here because only
    # expressions — never dependencies — are added past this point.
    elements: list[PartitionExpression] = list(fragment.representatives)
    engine.prepare([top_expression])
    element_by_class: dict[int, PartitionExpression] = {
        index.class_id(expression): expression for expression in elements
    }

    def canonical(expression: PartitionExpression) -> PartitionExpression:
        class_id = index.class_id(expression)
        known = element_by_class.get(class_id)
        if known is not None:
            return known
        element_by_class[class_id] = expression
        elements.append(expression)
        return expression

    position = 0
    prof = profiling.active()
    while position < len(elements):
        if prof is not None:
            prof.closure_pops += 1
            prof.deadline_checks += 1
        check_deadline()  # the closure is super-polynomial; honor query budgets
        current = elements[position]
        for other in elements[:position]:
            if index.product_class(other, current) not in element_by_class:
                canonical(Product(other, current))
        position += 1
    canonical(top_expression)

    constants = {}
    for attribute in attributes:
        constants[attribute] = canonical(attr(attribute))

    # The elements are distinct classes, so one row read orders them all.
    up = [row | 1 << i for i, row in enumerate(index.leq_masks(elements))]
    return FiniteLattice._from_order_rows(elements, up, constants)
