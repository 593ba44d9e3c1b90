"""ALG: the polynomial-time decision procedure for PD implication (§5.2, Theorem 9).

Given a finite set ``E`` of PDs and two partition expressions ``e, e'``, the
paper's Algorithm ALG builds a digraph ``Γ`` over the set ``V`` of all
subexpressions of ``E``, ``e`` and ``e'`` by closing under seven rules
(reflexivity of attributes, the ID rules restricted to ``V``, the equations
of ``E``, and transitivity).  Lemma 9.2 proves that for ``p, q ∈ V``:

    ``p ≤_E q``  iff  ``(p, q) ∈ Γ``

and therefore ``E ⊨ e = e'`` iff both ``(e, e')`` and ``(e', e)`` are arcs.
Since ``E ⊨_lat``, ``⊨_lat,fin``, ``⊨_rel`` and ``⊨_rel,fin`` all coincide
(Theorem 8), ALG decides the implication problem for PDs over relations,
finite relations, lattices and finite lattices at once — and it *is* a
decision procedure for the uniform word problem for lattices.

Two implementations are provided and cross-checked by the tests:

* :func:`alg_closure_naive` — the literal "repeat until no new arcs are
  added" loop of the paper (a straightforward O(n⁴)-flavoured fixpoint);
* :func:`alg_closure` — a worklist refinement that processes each inserted
  arc once, propagating through per-node indexes (much faster in practice,
  same output).

The public entry points are :func:`pd_leq`, :func:`pd_implies`,
:func:`pd_implies_all` and :class:`ImplicationEngine` (which caches the
closure so that many queries against the same ``E`` and query-expression
pool are cheap — the Theorem 12 consistency test needs exactly that).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.dependencies.pd import (
    PartitionDependency,
    PartitionDependencyLike,
    as_partition_dependency,
)
from repro.expressions.ast import (
    Attr,
    ExpressionLike,
    PartitionExpression,
    Product,
    Sum,
    as_expression,
)
from repro.implication.index import ImplicationIndex


def _vertex_set(
    dependencies: Sequence[PartitionDependency],
    extra: Iterable[PartitionExpression],
) -> list[PartitionExpression]:
    """``V``: all subexpressions of the PDs in ``E`` and of the extra query expressions."""
    seen: dict[PartitionExpression, None] = {}
    roots: list[PartitionExpression] = []
    for pd in dependencies:
        roots.append(pd.left)
        roots.append(pd.right)
    roots.extend(extra)
    for root in roots:
        for node in root.subexpressions():
            seen.setdefault(node, None)
    return list(seen)


class _ArcRelation:
    """A mutable binary relation over the vertex list, with forward/backward adjacency."""

    def __init__(self, vertices: Sequence[PartitionExpression]) -> None:
        self.vertices = list(vertices)
        self.index = {vertex: i for i, vertex in enumerate(self.vertices)}
        n = len(self.vertices)
        self.arcs: set[tuple[int, int]] = set()
        self.successors: list[set[int]] = [set() for _ in range(n)]
        self.predecessors: list[set[int]] = [set() for _ in range(n)]

    def has(self, source: int, target: int) -> bool:
        return (source, target) in self.arcs

    def add(self, source: int, target: int) -> bool:
        """Insert an arc; returns True iff it is new."""
        if (source, target) in self.arcs:
            return False
        self.arcs.add((source, target))
        self.successors[source].add(target)
        self.predecessors[target].add(source)
        return True

    def as_expression_pairs(self) -> set[tuple[PartitionExpression, PartitionExpression]]:
        return {(self.vertices[i], self.vertices[j]) for i, j in self.arcs}


def _structure_indexes(relation: _ArcRelation):
    """Index the composite vertices by their operands, for the ID-rule propagation.

    Returns ``(products, sums, product_by_operand, sum_by_operand)`` where
    ``products``/``sums`` map a vertex index to its two operand indexes and
    the ``*_by_operand`` maps send an operand index to the composite vertices
    it participates in.
    """
    products: dict[int, tuple[int, int]] = {}
    sums: dict[int, tuple[int, int]] = {}
    product_by_operand: dict[int, list[int]] = {}
    sum_by_operand: dict[int, list[int]] = {}
    for i, vertex in enumerate(relation.vertices):
        if isinstance(vertex, Product):
            left = relation.index[vertex.left]
            right = relation.index[vertex.right]
            products[i] = (left, right)
            product_by_operand.setdefault(left, []).append(i)
            product_by_operand.setdefault(right, []).append(i)
        elif isinstance(vertex, Sum):
            left = relation.index[vertex.left]
            right = relation.index[vertex.right]
            sums[i] = (left, right)
            sum_by_operand.setdefault(left, []).append(i)
            sum_by_operand.setdefault(right, []).append(i)
    return products, sums, product_by_operand, sum_by_operand


def _seed_arcs(
    relation: _ArcRelation, dependencies: Sequence[PartitionDependency]
) -> list[tuple[int, int]]:
    """Rule 1 (attribute reflexivity) and rule 6 of ALG (the equations of E)."""
    seeds: list[tuple[int, int]] = []
    for i, vertex in enumerate(relation.vertices):
        if isinstance(vertex, Attr):
            seeds.append((i, i))
    for pd in dependencies:
        left = relation.index[pd.left]
        right = relation.index[pd.right]
        seeds.append((left, right))
        seeds.append((right, left))
    return seeds


def alg_closure(
    dependencies: Sequence[PartitionDependencyLike],
    query_expressions: Iterable[ExpressionLike] = (),
) -> _ArcRelation:
    """Run ALG (worklist variant) and return the closed arc relation ``Γ`` over ``V``."""
    pds = [as_partition_dependency(pd) for pd in dependencies]
    extra = [as_expression(e) for e in query_expressions]
    relation = _ArcRelation(_vertex_set(pds, extra))
    products, sums, product_by_operand, sum_by_operand = _structure_indexes(relation)

    worklist: list[tuple[int, int]] = []

    def insert(source: int, target: int) -> None:
        if relation.add(source, target):
            worklist.append((source, target))

    for source, target in _seed_arcs(relation, pds):
        insert(source, target)

    while worklist:
        p, s = worklist.pop()

        # Rule 7 (transitivity): (p, s) composed with existing arcs.
        for t in list(relation.successors[s]):
            insert(p, t)
        for o in list(relation.predecessors[p]):
            insert(o, s)

        # Rule 2: (p, s) and (q, s) with p + q in V  ⇒  (p + q, s).
        for composite in sum_by_operand.get(p, ()):
            left, right = sums[composite]
            other = right if left == p else left
            if relation.has(other, s) or other == p:
                insert(composite, s)

        # Rule 3: (p, s) with p * q (or q * p) in V  ⇒  (p * q, s).
        for composite in product_by_operand.get(p, ()):
            insert(composite, s)

        # Rule 4: (s', p) and (s', q) with p * q in V  ⇒  (s', p * q).
        # Our new arc is (p, s) read as (s', p') with s' = p, p' = s.
        for composite in product_by_operand.get(s, ()):
            left, right = products[composite]
            other = right if left == s else left
            if relation.has(p, other) or other == s:
                insert(p, composite)

        # Rule 5: (s', p) with p + q (or q + p) in V  ⇒  (s', p + q).
        for composite in sum_by_operand.get(s, ()):
            insert(p, composite)

    return relation


def alg_closure_naive(
    dependencies: Sequence[PartitionDependencyLike],
    query_expressions: Iterable[ExpressionLike] = (),
) -> _ArcRelation:
    """The literal fixpoint formulation of ALG from the paper (repeat rules until stable).

    Asymptotically slower than :func:`alg_closure` but a direct transcription
    of the published pseudo-code; used as an oracle in tests and as the
    baseline in the implication benchmark.
    """
    pds = [as_partition_dependency(pd) for pd in dependencies]
    extra = [as_expression(e) for e in query_expressions]
    relation = _ArcRelation(_vertex_set(pds, extra))
    products, sums, _, _ = _structure_indexes(relation)

    for source, target in _seed_arcs(relation, pds):
        relation.add(source, target)

    changed = True
    while changed:
        changed = False
        n = len(relation.vertices)
        # Rule 2 and 3: products/sums below a common target.
        for composite, (left, right) in sums.items():
            for s in range(n):
                if relation.has(left, s) and relation.has(right, s):
                    changed |= relation.add(composite, s)
        for composite, (left, right) in products.items():
            for s in range(n):
                if relation.has(left, s) or relation.has(right, s):
                    changed |= relation.add(composite, s)
        # Rule 4 and 5: targets above a common source.
        for composite, (left, right) in products.items():
            for s in range(n):
                if relation.has(s, left) and relation.has(s, right):
                    changed |= relation.add(s, composite)
        for composite, (left, right) in sums.items():
            for s in range(n):
                if relation.has(s, left) or relation.has(s, right):
                    changed |= relation.add(s, composite)
        # Rule 7: transitivity.
        for (p, s) in list(relation.arcs):
            for t in list(relation.successors[s]):
                changed |= relation.add(p, t)
    return relation


# -- public query layer -----------------------------------------------------------


class ImplicationEngine:
    """Decides ``E ⊨ e = e'`` queries against a growing set of PDs.

    A facade over the persistent
    :class:`~repro.implication.index.ImplicationIndex`, which holds the one
    copy of ``E``: a query mentioning a new expression extends the vertex set
    and *resumes* rule propagation delta-wise instead of recomputing the
    closure, so long query streams against one PD set cost little more than
    one closure overall.  The paper's literal pseudo-code survives as
    :func:`alg_closure_naive`, the oracle the tests compare against.
    """

    def __init__(
        self,
        dependencies: Iterable[PartitionDependencyLike] = (),
        query_expressions: Iterable[ExpressionLike] = (),
    ) -> None:
        self._index = ImplicationIndex(dependencies, query_expressions)

    @property
    def dependencies(self) -> list[PartitionDependency]:
        """The PD set ``E`` this engine reasons over (the index's own)."""
        return self._index.dependencies

    @property
    def index(self) -> ImplicationIndex:
        """The underlying incremental index."""
        return self._index

    def add_dependencies(self, dependencies: Iterable[PartitionDependencyLike]) -> None:
        """Extend ``E`` in place; the incremental index resumes propagation."""
        self._index.add_dependencies(dependencies)

    def prepare(self, expressions: Iterable[ExpressionLike]) -> None:
        """Register query expressions ahead of time (one propagation for the batch)."""
        self._index.add_expressions(expressions)

    def leq(self, left: ExpressionLike, right: ExpressionLike) -> bool:
        """``left ≤_E right``: the PD ``left = left·right`` is implied by ``E``."""
        return self._index.leq(left, right)

    def leq_masks(self, expressions: Iterable[ExpressionLike]) -> list[int]:
        """Per position ``i``, the mask of positions ``j ≠ i`` with ``expressions[i] ≤_E expressions[j]``.

        Delegates to :meth:`ImplicationIndex.leq_masks` (one row read per
        expression).
        """
        return self._index.leq_masks(list(expressions))

    def leq_pairs(self, expressions: Iterable[ExpressionLike]) -> list[tuple[int, int]]:
        """Position pairs ``(i, j)``, ``i ≠ j``, with ``expressions[i] ≤_E expressions[j]``.

        Row-major order: :meth:`leq_masks`, spelled out.
        """
        return self._index.leq_pairs(list(expressions))

    def class_id(self, expression: ExpressionLike) -> int:
        """The ``=_E`` congruence-class id of an expression.

        Delegates to :meth:`ImplicationIndex.class_id`; the quotient pipeline
        collapses expression pools by grouping on these ids instead of
        pairwise ``leq`` probes.
        """
        return self._index.class_id(expression)

    def implies(self, dependency: PartitionDependencyLike) -> bool:
        """``E ⊨ e = e'`` (equivalently over lattices, finite lattices, relations, finite relations)."""
        pd = as_partition_dependency(dependency)
        return self.leq(pd.left, pd.right) and self.leq(pd.right, pd.left)

    def implies_all(self, dependencies: Iterable[PartitionDependencyLike]) -> bool:
        """True iff every PD in ``dependencies`` is implied (single propagation)."""
        pds = [as_partition_dependency(pd) for pd in dependencies]
        self.prepare([side for pd in pds for side in (pd.left, pd.right)])
        return all(self.implies(pd) for pd in pds)

    def attribute_order_consequences(
        self, attributes: Iterable[str]
    ) -> list[tuple[str, str]]:
        """All consequences of the form ``A ≤ B`` between the given attributes.

        The reflexive pairs ``A ≤ A`` are omitted; pairs come sorted.  The
        Theorem 12 closure step asks the same question over its extended
        universe (:func:`repro.consistency.normalization.normalize_dependencies`).
        """
        names = sorted(set(attributes))
        return [(names[i], names[j]) for i, j in self.leq_pairs(Attr(name) for name in names)]


def pd_leq(
    dependencies: Iterable[PartitionDependencyLike],
    left: ExpressionLike,
    right: ExpressionLike,
) -> bool:
    """``left ≤_E right`` for a one-shot query."""
    return ImplicationEngine(dependencies).leq(left, right)


def pd_implies(
    dependencies: Iterable[PartitionDependencyLike],
    dependency: PartitionDependencyLike,
) -> bool:
    """``E ⊨ δ`` for a one-shot query (Theorem 9's polynomial-time implication test)."""
    return ImplicationEngine(dependencies).implies(dependency)


def pd_implies_all(
    dependencies: Iterable[PartitionDependencyLike],
    queries: Iterable[PartitionDependencyLike],
) -> bool:
    """``E ⊨ δ`` for every δ in ``queries`` (single closure computation)."""
    return ImplicationEngine(dependencies).implies_all(queries)


def pd_equivalent(
    first: Iterable[PartitionDependencyLike],
    second: Iterable[PartitionDependencyLike],
) -> bool:
    """True iff the two PD sets imply each other.

    Each direction is decided on one engine whose closure already contains
    every query expression, so the arc relation is propagated exactly once
    per PD set (instead of once per query, as rebuilding via two
    :func:`pd_implies_all` calls used to do).
    """
    first_list = [as_partition_dependency(pd) for pd in first]
    second_list = [as_partition_dependency(pd) for pd in second]
    forward = ImplicationEngine(
        first_list,
        query_expressions=[side for pd in second_list for side in (pd.left, pd.right)],
    )
    if not forward.implies_all(second_list):
        return False
    backward = ImplicationEngine(
        second_list,
        query_expressions=[side for pd in first_list for side in (pd.left, pd.right)],
    )
    return backward.implies_all(first_list)
