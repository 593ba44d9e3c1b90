"""An incremental ALG closure over big-int rows (the implication hot path).

:func:`repro.implication.alg.alg_closure` recomputes the whole digraph ``Γ``
from scratch for a fixed vertex set.  Every realistic caller, however, issues
a *stream* of queries against one PD set — the Theorem 12 normalization asks
for all ``A ≤ B`` pairs, the quotient construction classifies a growing pool
of expressions, batched FD implication translates many targets — and each new
query drags a handful of new subexpressions into ``V``.  Recomputing Γ per
query throws away almost all of the work.

:class:`ImplicationIndex` keeps the closed relation alive between calls:

* **Rows** — vertex ``v`` owns two Python ints: bit ``j`` of ``up[v]`` means
  ``v ≤_E j`` and bit ``j`` of ``down[v]`` means ``j ≤_E v``.  The two are
  mirrors of one arc set, so ``leq`` is a single bit test and every ALG rule
  is a row OR or AND.
* **Delta rows** — bits newly set in a row are queued per vertex and
  propagated once.  A vertex that gains targets ``Δ`` ORs in ``up[t]`` for
  each ``t ∈ Δ`` (rule 7), feeds ``Δ`` to its product composites (rule 3) and
  ``Δ & up[q]`` to its sum composites with other operand ``q`` (rule 2).  A
  vertex that gains origins ``Δ'`` ORs in ``down[o]`` for each ``o ∈ Δ'``
  (rule 7), feeds ``Δ'`` to its sum composites (rule 5) and ``Δ' & down[q]``
  to its product composites (rule 4).
* **Incremental vertices** — :meth:`add_expressions` registers only the
  missing subexpressions; a new composite catches up with one OR and one AND
  of its operands' rows (rules 2–5 restricted to the new vertex), the rules
  keyed on the far end of each catch-up arc fire at once, and the queued
  deltas derive the rest.  :meth:`add_dependencies` likewise extends ``E`` by
  adding the two equation arcs and propagating their consequences.
* **Congruence classes** — vertices provably Γ-equivalent (arcs both ways,
  i.e. ``p ≤_E q`` and ``q ≤_E p``) form one class, and ``up[v] & down[v]``
  is exactly ``v``'s class.  Its lowest set bit — the smallest member id,
  mirroring the chase engine's representative election — is the class id.
  Nothing is merged or re-keyed: classes are read off the rows.

The fixpoint is the one the from-scratch closure computes, which
``tests/test_implication_index.py`` verifies against both
:func:`~repro.implication.alg.alg_closure` and
:func:`~repro.implication.alg.alg_closure_naive` on randomized interleavings.
Propagation polls :func:`~repro.deadline.check_deadline` once per vertex
created and once per delta-row pop; a budget that expires mid-propagation
leaves the remaining deltas queued, and the next call resumes from them.

The index never forgets: dependencies and vertices can only be added, which
is exactly the monotone shape of ALG (rules only ever insert arcs).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.deadline import active_deadlines, check_deadline
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
    as_expression,
)


def _bits(row: int) -> list[int]:
    """The set bit positions of ``row``, ascending.

    A sparse row is walked by its lowest set bit; scanning the binary string
    is faster once a row has more than a few bits set.
    """
    if row.bit_count() < 8:
        out = []
        while row:
            low = row & -row
            out.append(low.bit_length() - 1)
            row ^= low
        return out
    digits = bin(row)[:1:-1]
    out = []
    position = digits.find("1")
    while position >= 0:
        out.append(position)
        position = digits.find("1", position + 1)
    return out


class ImplicationIndex:
    """Persistent, incremental arc relation ``Γ`` of ALG over a growing ``(E, V)``.

    ``leq(e, e')`` answers ``e ≤_E e'`` (registering the expressions first if
    needed); :meth:`add_dependencies` grows ``E``; :meth:`add_expressions`
    grows the query-expression pool.  All operations leave the relation closed
    under the seven ALG rules restricted to the current vertex set.
    """

    def __init__(
        self,
        dependencies: Iterable[PartitionDependencyLike] = (),
        expressions: Iterable[ExpressionLike] = (),
    ) -> None:
        self._init_empty([])
        self.add_dependencies(dependencies)
        self.add_expressions(expressions)

    def _init_empty(self, dependencies: list[PartitionDependency]) -> None:
        self._dependencies = dependencies
        self._vertex: dict[PartitionExpression, int] = {}
        self._exprs: list[PartitionExpression] = []
        self._up: list[int] = []
        self._down: list[int] = []
        # Operand vertex id -> (composite id, the composite's other operand id).
        self._products_of: dict[int, list[tuple[int, int]]] = {}
        self._sums_of: dict[int, list[tuple[int, int]]] = {}
        self._operands = 0  # bit v set iff v is an operand of some composite
        # Vertex id -> row bits set but not yet propagated.
        self._new_up: dict[int, int] = {}
        self._new_down: dict[int, int] = {}

    # -- public surface ---------------------------------------------------------

    @property
    def dependencies(self) -> list[PartitionDependency]:
        """The PD set ``E`` accumulated so far."""
        return list(self._dependencies)

    @property
    def vertex_count(self) -> int:
        """Number of registered subexpressions (vertices of ``Γ``)."""
        return len(self._exprs)

    @property
    def class_count(self) -> int:
        """Number of congruence classes (collapsed vertices)."""
        self._drain()
        return len(self._roots())

    def arc_count(self) -> int:
        """Number of arcs between class representatives (not expanded)."""
        self._drain()
        roots = self._roots()
        mask = sum(1 << root for root in roots)
        return sum((self._up[root] & mask).bit_count() for root in roots)

    def add_dependencies(self, dependencies: Iterable[PartitionDependencyLike]) -> None:
        """Extend ``E`` and resume propagation from the new equation arcs."""
        pds = [as_partition_dependency(raw) for raw in dependencies]
        # Register every side before committing any PD, so a deadline that
        # stops registration leaves ``E`` and the rows unchanged.
        sides = [(self._register(pd.left), self._register(pd.right)) for pd in pds]
        self._dependencies.extend(pds)
        for left, right in sides:
            self._add_up(left, 1 << right)
            self._add_up(right, 1 << left)
        self._drain()

    def add_expressions(self, expressions: Iterable[ExpressionLike]) -> None:
        """Extend the vertex set with all subexpressions of ``expressions``."""
        for raw in expressions:
            self._register(as_expression(raw))
        self._drain()

    def knows(self, expression: ExpressionLike) -> bool:
        """True iff the expression is already a vertex (no mutation)."""
        return as_expression(expression) in self._vertex

    def leq(self, left: ExpressionLike, right: ExpressionLike) -> bool:
        """``left ≤_E right``, registering the expressions if necessary."""
        p = self._register(as_expression(left))
        q = self._register(as_expression(right))
        self._drain()
        return bool(self._up[p] >> q & 1)

    def leq_pairs(self, expressions: Sequence[ExpressionLike]) -> list[tuple[int, int]]:
        """Position pairs ``(i, j)``, ``i ≠ j``, with ``expressions[i] ≤_E expressions[j]``.

        Pairs come in row-major order.  Each expression costs one ``up``-row
        read, masked down to the vertices of the list, instead of one
        :meth:`leq` per pair.  Repeated expressions share a vertex, so each
        copy lies below the other.  Unregistered expressions are registered
        first, as :meth:`leq` does.
        """
        vids = [self._register(as_expression(raw)) for raw in expressions]
        self._drain()
        positions: dict[int, list[int]] = {}
        for position, vid in enumerate(vids):
            positions.setdefault(vid, []).append(position)
        mask = sum(1 << vid for vid in positions)
        up = self._up
        pairs: list[tuple[int, int]] = []
        for i, vid in enumerate(vids):
            above = sorted(j for target in _bits(up[vid] & mask) for j in positions[target])
            pairs.extend((i, j) for j in above if j != i)
        return pairs

    def has_arc(self, left: ExpressionLike, right: ExpressionLike) -> bool:
        """``left ≤_E right`` for already-registered expressions (no new vertices).

        Raises :class:`KeyError` when either expression was never registered.
        """
        p = self._vertex[as_expression(left)]
        q = self._vertex[as_expression(right)]
        self._drain()
        return bool(self._up[p] >> q & 1)

    def equivalent(self, left: ExpressionLike, right: ExpressionLike) -> bool:
        """``left =_E right``: the two expressions are in the same congruence class."""
        p = self._register(as_expression(left))
        q = self._register(as_expression(right))
        self._drain()
        return bool(self._up[p] >> q & self._down[p] >> q & 1)

    def congruence_classes(self) -> list[list[PartitionExpression]]:
        """The current classes of Γ-equivalent vertices, in vertex order."""
        return list(self.classes().values())

    def class_id(self, expression: ExpressionLike) -> int:
        """The congruence-class id of an expression (registering it if necessary).

        Two expressions share a class id iff they are provably ``=_E``
        (mutual Γ-arcs).  Ids are stable as long as only *expressions* are
        added: registering a new vertex cannot merge existing classes (ALG
        restricted to a larger ``V`` is conservative over the old one), so a
        snapshot of class ids stays valid across ``add_expressions`` /
        ``leq`` calls.  :meth:`add_dependencies` can merge classes and
        thereby retire ids — take fresh snapshots after growing ``E``.
        """
        vid = self._register(as_expression(expression))
        self._drain()
        return self._root(vid)

    def classes(self) -> dict[int, list[PartitionExpression]]:
        """The current classes keyed by class id (member expressions in vertex order)."""
        self._drain()
        groups: dict[int, list[PartitionExpression]] = {}
        for vid, expression in enumerate(self._exprs):
            groups.setdefault(self._root(vid), []).append(expression)
        return groups  # a root is its class's first member, so keys ascend

    def class_leq(self, left_class: int, right_class: int) -> bool:
        """``≤_E`` between two congruence classes by *current* class id (read-only).

        One bit test — the quotient order computation runs k² of these.
        Both arguments must be class ids from the current snapshot (as
        returned by :meth:`class_id` / :meth:`classes`).
        """
        return bool(self._up[left_class] >> right_class & 1)

    def representative(self, expression: ExpressionLike) -> PartitionExpression:
        """The elected representative of the expression's congruence class."""
        return self._exprs[self.class_id(expression)]

    def vertices(self) -> list[PartitionExpression]:
        """All registered subexpressions, in registration order."""
        return list(self._exprs)

    def as_expression_pairs(self) -> set[tuple[PartitionExpression, PartitionExpression]]:
        """The full arc relation expanded back to expression pairs.

        Matches :meth:`repro.implication.alg._ArcRelation.as_expression_pairs`
        exactly (the cross-check oracles rely on this).
        """
        self._drain()
        exprs = self._exprs
        return {
            (source, exprs[target])
            for source, row in zip(exprs, self._up)
            for target in _bits(row)
        }

    # -- snapshot support -------------------------------------------------------

    def export_state(self) -> dict:
        """The closed arc relation as plain, restore-ready Python structures.

        Everything derived (the rows of non-root vertices, the operand
        indexes, the empty delta queues) is omitted — :meth:`from_state`
        rebuilds it — so the state is minimal and canonical: expressions in
        vertex-id order, each vertex's class root, and arcs as sorted target
        roots per class root.  Exporting twice (or exporting a restored
        index) yields equal structures, which is what gives the service's
        snapshot codec its encode→decode→encode byte-identity.
        """
        self._drain()  # exported state must be a fixpoint, never mid-propagation
        roots = self._roots()
        mask = sum(1 << root for root in roots)
        return {
            "expressions": list(self._exprs),
            "dependencies": list(self._dependencies),
            "parent": [self._root(vid) for vid in range(len(self._exprs))],
            "arcs": {root: _bits(self._up[root] & mask) for root in roots},
        }

    @classmethod
    def from_state(
        cls,
        dependencies: Iterable[PartitionDependencyLike],
        expressions: Iterable[PartitionExpression],
        parent: Iterable[int],
        arcs: dict[int, Iterable[int]],
    ) -> "ImplicationIndex":
        """Rebuild an index from :meth:`export_state` output without re-propagating.

        The stored relation is already the ALG fixpoint, so no rules fire:
        the vertices are re-registered in their original order (re-interning
        each expression), the class-level arcs are expanded into member rows,
        and the operand indexes are reconstructed.  Malformed state raises
        :class:`ValueError` — the service codec wraps that into its own error
        type.  That includes arcs that contradict ``parent``: a class root
        without its self-arc, or two roots with arcs both ways (their classes
        would have been one).
        """
        index = cls.__new__(cls)
        index._init_empty([as_partition_dependency(pd) for pd in dependencies])

        for vid, node in enumerate(expressions):
            if node in index._vertex:
                raise ValueError(f"duplicate vertex expression at id {vid}")
            if not isinstance(node, Attr):
                left = index._vertex.get(node.left)  # type: ignore[attr-defined]
                right = index._vertex.get(node.right)  # type: ignore[attr-defined]
                if left is None or right is None:
                    raise ValueError(
                        f"vertex {vid} appears before its operands (state is not children-first)"
                    )
                index._index_operands(vid, node, left, right)
            index._vertex[node] = vid
            index._exprs.append(node)

        count = len(index._exprs)
        roots = list(parent)
        if len(roots) != count:
            raise ValueError(f"parent array has {len(roots)} entries for {count} vertices")
        for vid, root in enumerate(roots):
            if not isinstance(root, int) or not 0 <= root <= vid or roots[root] != root:
                raise ValueError(f"vertex {vid} has invalid class root {root!r}")
        members: dict[int, int] = {}
        for vid, root in enumerate(roots):
            members[root] = members.get(root, 0) | 1 << vid

        up = dict.fromkeys(members, 0)
        down = dict.fromkeys(members, 0)
        for source, targets in arcs.items():
            if source not in members:
                raise ValueError(f"arc source {source!r} is not a class representative")
            for target in targets:
                if target not in members:
                    raise ValueError(f"arc target {target!r} is not a class representative")
                up[source] |= members[target]
                down[target] |= members[source]
        for root, member_mask in members.items():
            if not up[root] >> root & 1:
                raise ValueError(f"class root {root} has no self-arc")
            if up[root] & down[root] != member_mask:
                raise ValueError(f"class root {root} has arcs both ways with another class root")
        index._up = [up[root] for root in roots]
        index._down = [down[root] for root in roots]
        return index

    # -- vertex registration ----------------------------------------------------

    def _register(self, expression: PartitionExpression) -> int:
        """Intern ``expression`` and all its subexpressions as vertices (children first)."""
        vid = self._vertex.get(expression)
        if vid is not None:
            return vid
        stack: list[tuple[PartitionExpression, bool]] = [(expression, False)]
        while stack:
            node, expanded = stack.pop()
            if node in self._vertex:
                continue
            if expanded:
                check_deadline()  # one budget check per vertex created
                self._create_vertex(node)
            else:
                stack.append((node, True))
                if not isinstance(node, Attr):
                    stack.append((node.left, False))  # type: ignore[attr-defined]
                    stack.append((node.right, False))  # type: ignore[attr-defined]
        return self._vertex[expression]

    def _index_operands(self, vid: int, node: PartitionExpression, left: int, right: int) -> None:
        """Record composite ``vid`` under each of its operands, with the other operand."""
        self._operands |= 1 << left | 1 << right
        table = self._products_of if isinstance(node, Product) else self._sums_of
        table.setdefault(left, []).append((vid, right))
        if right != left:
            table.setdefault(right, []).append((vid, left))

    def _create_vertex(self, node: PartitionExpression) -> None:
        """Add one vertex whose operands are already registered, with rule catch-up.

        A composite's rows are one OR and one AND of its operands' rows.
        These catch-up arcs are not queued as deltas: transitivity through
        them already follows from the operands' own arcs (and from the
        operands' future deltas, which rules 2–5 forward here), and no
        composite has the new vertex as an operand yet.  Only the rules keyed
        on the *other* end of each new arc remain, and they fire right here.
        """
        vid = len(self._exprs)
        self._vertex[node] = vid
        self._exprs.append(node)
        self._up.append(0)
        self._down.append(0)

        if isinstance(node, Attr):
            self._add_up(vid, 1 << vid)  # Rule 1: reflexivity of attributes.
            return

        left = self._vertex[node.left]  # type: ignore[attr-defined]
        right = self._vertex[node.right]  # type: ignore[attr-defined]
        self._index_operands(vid, node, left, right)
        up, down = self._up, self._down
        bit = 1 << vid
        product = isinstance(node, Product)
        # Rules 3 and 2: p*q ≤ s when p ≤ s or q ≤ s; p+q ≤ s when both are.
        targets = up[left] | up[right] if product else up[left] & up[right]
        up[vid] = targets
        for target in _bits(targets):
            down[target] |= bit
        # Rules 4 and 5: o ≤ p*q when o ≤ p and o ≤ q; o ≤ p+q when either is.
        # Read after the mirror above, so a product finds its own self-arc.
        origins = down[left] & down[right] if product else down[left] | down[right]
        down[vid] = origins
        for origin in _bits(origins):
            up[origin] |= bit
        # The rules keyed on the other end of each new arc (only operands of
        # some composite have any).
        for origin in _bits(origins & self._operands):
            self._targets_gained(origin, bit)
        for target in _bits(targets & self._operands):
            self._origins_gained(target, bit)

    # -- rows and delta propagation ---------------------------------------------

    def _root(self, vid: int) -> int:
        """The class id of ``vid``: the lowest set bit of ``up[vid] & down[vid]``."""
        both = self._up[vid] & self._down[vid]
        return (both & -both).bit_length() - 1

    def _roots(self) -> list[int]:
        """Every class id, ascending (a vertex is a root iff no smaller member exists)."""
        return [
            vid
            for vid, (up, down) in enumerate(zip(self._up, self._down))
            if not up & down & ((1 << vid) - 1)
        ]

    def _add_up(self, vid: int, targets: int) -> None:
        """Record ``vid ≤ t`` for every bit ``t`` of ``targets`` and queue what is new."""
        fresh = targets & ~self._up[vid]
        if not fresh:
            return
        self._up[vid] |= fresh
        self._new_up[vid] = self._new_up.get(vid, 0) | fresh
        bit = 1 << vid
        down, new_down = self._down, self._new_down
        while fresh:
            low = fresh & -fresh
            target = low.bit_length() - 1
            down[target] |= bit
            new_down[target] = new_down.get(target, 0) | bit
            fresh ^= low

    def _add_down(self, vid: int, origins: int) -> None:
        """Record ``o ≤ vid`` for every bit ``o`` of ``origins`` and queue what is new."""
        fresh = origins & ~self._down[vid]
        if not fresh:
            return
        self._down[vid] |= fresh
        self._new_down[vid] = self._new_down.get(vid, 0) | fresh
        bit = 1 << vid
        up, new_up = self._up, self._new_up
        while fresh:
            low = fresh & -fresh
            origin = low.bit_length() - 1
            up[origin] |= bit
            new_up[origin] = new_up.get(origin, 0) | bit
            fresh ^= low

    def _targets_gained(self, vid: int, delta: int) -> None:
        """Rules 3 and 2 for ``vid`` gaining the targets ``delta``: its composites follow."""
        up = self._up
        # Rule 3: p*q ≤ s for each new s ≥ p.
        for composite, _ in self._products_of.get(vid, ()):
            if delta & ~up[composite]:
                self._add_up(composite, delta)
        # Rule 2: p+q ≤ s for each new s ≥ p that is also ≥ q.
        for composite, other in self._sums_of.get(vid, ()):
            gained = delta & up[other]
            if gained & ~up[composite]:
                self._add_up(composite, gained)

    def _origins_gained(self, vid: int, delta: int) -> None:
        """Rules 5 and 4 for ``vid`` gaining the origins ``delta``: its composites follow."""
        down = self._down
        # Rule 5: o ≤ p+q for each new o ≤ p.
        for composite, _ in self._sums_of.get(vid, ()):
            if delta & ~down[composite]:
                self._add_down(composite, delta)
        # Rule 4: o ≤ p*q for each new o ≤ p that is also ≤ q.
        for composite, other in self._products_of.get(vid, ()):
            gained = delta & down[other]
            if gained & ~down[composite]:
                self._add_down(composite, gained)

    def _drain(self) -> None:
        """Propagate queued delta rows until the relation is closed."""
        new_up, new_down = self._new_up, self._new_down
        if not (new_up or new_down):
            return  # the common case: queries between growth steps
        up, down = self._up, self._down
        # Nothing in this loop can open a deadline scope, so when none is
        # active on entry the per-pop poll is skipped outright.
        budgeted = bool(active_deadlines())
        while new_up or new_down:
            if budgeted:
                check_deadline()  # one budget check per delta-row pop
            if new_up:
                vid, delta = new_up.popitem()
                self._targets_gained(vid, delta)
                # Rule 7: vid ≤ t ≤ u for each new target t.
                reach = 0
                for target in _bits(delta):
                    reach |= up[target]
                if reach & ~up[vid]:
                    self._add_up(vid, reach)
            else:
                vid, delta = new_down.popitem()
                self._origins_gained(vid, delta)
                # Rule 7: o ≤ p ≤ vid for each new origin p.
                reach = 0
                for origin in _bits(delta):
                    reach |= down[origin]
                if reach & ~down[vid]:
                    self._add_down(vid, reach)


def implication_index(
    dependencies: Iterable[PartitionDependencyLike] = (),
    expressions: Iterable[ExpressionLike] = (),
) -> ImplicationIndex:
    """Convenience constructor mirroring :func:`repro.implication.alg.alg_closure`."""
    return ImplicationIndex(dependencies, expressions)
