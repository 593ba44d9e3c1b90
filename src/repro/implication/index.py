"""An incremental ALG closure over big-int rows (the implication hot path).

:func:`repro.implication.alg.alg_closure` recomputes the whole digraph ``Γ``
from scratch for a fixed vertex set.  Every realistic caller, however, issues
a *stream* of queries against one PD set — the Theorem 12 normalization asks
for all ``A ≤ B`` pairs, the quotient construction classifies a growing pool
of expressions, batched FD implication translates many targets — and each new
query drags a handful of new subexpressions into ``V``.  Recomputing Γ per
query throws away almost all of the work.

:class:`ImplicationIndex` keeps the closed relation alive between calls:

* **Rows** — row ``v`` owns two Python ints: bit ``j`` of ``up[v]`` means
  ``v ≤_E j`` and bit ``j`` of ``down[v]`` means ``j ≤_E v``.  The two are
  mirrors of one arc set, so ``leq`` is a single bit test and every ALG rule
  is a row OR or AND.  Every walk over a row's set bits goes through the
  shared kernel :func:`repro.bits.bit_positions` (one table read for a row
  under twelve bits wide).
* **Delta rows** — bits newly set in a row are queued per vertex and
  propagated once.  A vertex that gains targets ``Δ`` ORs in ``up[t]`` for
  each ``t ∈ Δ`` (rule 7), feeds ``Δ`` to its product composites (rule 3) and
  ``Δ & up[q]`` to its sum composites with other operand ``q`` (rule 2).  A
  vertex that gains origins ``Δ'`` ORs in ``down[o]`` for each ``o ∈ Δ'``
  (rule 7), feeds ``Δ'`` to its sum composites (rule 5) and ``Δ' & down[q]``
  to its product composites (rule 4).  Mirroring a delta onto the far
  rows, and each rule-7 OR, walks the delta's bits through the same kernel.
* **Incremental vertices** — :meth:`add_expressions` registers only the
  missing subexpressions; a new composite catches up with one OR and one AND
  of its operands' rows (rules 2–5 restricted to the new vertex), the rules
  keyed on the far end of each catch-up arc fire at once, and the queued
  deltas derive the rest.  :meth:`add_dependencies` likewise extends ``E`` by
  adding the two equation arcs and propagating their consequences.
* **Congruence classes** — vertices provably Γ-equivalent (arcs both ways,
  i.e. ``p ≤_E q`` and ``q ≤_E p``) form one class, and ``up[v] & down[v]``
  is exactly ``v``'s class.  Its lowest set bit — the smallest member row,
  which holds the class's earliest-registered expression, mirroring the chase
  engine's representative election — is the class id.
  Nothing is merged or re-keyed: classes are read off the rows.
* **Class probes** — :meth:`~ImplicationIndex.product_class` answers which
  class ``p*q`` would join without registering it.  The operand rows are
  closed, so the composite's old origins are ``down[p] & down[q]`` and its
  old targets are ``up[p] | up[q]`` closed under rule 4 (the one rule that
  starts new arcs at the composite), and Lemma 9.2 keeps every old row fixed.
  Sums have the dual probe: targets exactly ``up[p] & up[q]``, origins
  ``down[p] | down[q]`` closed under rule 2.
* **Hash-consing** — each composite is probed as it is registered, after its
  operands and a drain.  One that lands on a class the index already holds
  becomes an *alias*: its expression maps to that class's row and no row is
  created.  Only a composite that founds a new class gets a row, built over
  its operands' rows.  The rows stay subexpression-closed (a row's operands
  are rows), so ALG stays exact over them (Theorem 9), and a row built over
  an alias stands for an expression ``=_E`` to its own by congruence.
  ``=_E`` is monotone in ``E``, so an alias stays valid as
  :meth:`~ImplicationIndex.add_dependencies` grows ``E``.  Ids are row ids;
  :meth:`~ImplicationIndex.vertices`, :meth:`~ImplicationIndex.classes` and
  :meth:`~ImplicationIndex.as_expression_pairs` enumerate every registered
  expression through the alias map.

The fixpoint is the one the from-scratch closure computes, which
``tests/test_implication_index.py`` verifies against both
:func:`~repro.implication.alg.alg_closure` and
:func:`~repro.implication.alg.alg_closure_naive` on randomized interleavings.
When a deadline scope is active, propagation polls
:func:`~repro.deadline.check_deadline` once per expression registered and
once per delta-row pop; a budget that expires mid-propagation leaves the
remaining deltas queued, and the next call resumes from them.

Outside an overlay the index never forgets: dependencies and vertices can
only be added, which is exactly the monotone shape of ALG (rules only ever
insert arcs).  Read-only query streams use :meth:`ImplicationIndex.overlay`
instead: the block registers and answers its queries on the warm relation,
and on exit (normal or by any exception, a deadline included) every vertex it
added is forgotten, aliases included.  The rollback is exact because ALG over a
larger vertex set is conservative over a smaller one (Lemma 9.2: ``p ≤_E q``
iff ``(p, q) ∈ Γ`` for *any* ``V`` containing both), so the old rows only
ever gained bits at the new positions: popping the new expressions,
truncating the row lists and masking each old row back to the old width
restores the pre-entry fixpoint.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterable, Iterator, Sequence

from repro.bits import bit_positions
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
        self._dependencies: list[PartitionDependency] = []
        # Every registered expression -> its row id, in registration order
        # (an alias maps to the row of the class it landed on).
        self._vertex: dict[PartitionExpression, int] = {}
        self._exprs: list[PartitionExpression] = []  # row id -> the expression that founded it
        self._up: list[int] = []
        self._down: list[int] = []
        # Operand vertex id -> (composite id, the composite's other operand id).
        self._products_of: dict[int, list[tuple[int, int]]] = {}
        self._sums_of: dict[int, list[tuple[int, int]]] = {}
        self._operands = 0  # bit v set iff v is an operand of some composite
        # Vertex id -> row bits set but not yet propagated.
        self._new_up: dict[int, int] = {}
        self._new_down: dict[int, int] = {}
        self._overlays = 0  # open overlay blocks; E cannot grow inside one
        self.add_dependencies(dependencies)
        self.add_expressions(expressions)

    # -- public surface ---------------------------------------------------------

    @property
    def dependencies(self) -> list[PartitionDependency]:
        """The PD set ``E`` accumulated so far."""
        return list(self._dependencies)

    @property
    def vertex_count(self) -> int:
        """Number of registered subexpressions (vertices of ``Γ``), aliases included."""
        return len(self._vertex)

    @property
    def row_count(self) -> int:
        """Number of rows: registered expressions that founded a class when registered."""
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
        if pds and self._overlays:
            raise RuntimeError("E cannot grow inside an overlay: its rollback keeps only vertices")
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

    def leq_masks(self, expressions: Sequence[ExpressionLike]) -> list[int]:
        """Per position ``i``, the mask of positions ``j ≠ i`` with ``expressions[i] ≤_E expressions[j]``.

        Each expression costs one ``up``-row read, masked down to the vertices
        of the list and spread onto the positions holding them.  Repeated
        expressions share a vertex, so each copy lies below the other.
        Unregistered expressions are registered first, as :meth:`leq` does.
        """
        vertex = self._vertex
        vids = []
        for raw in expressions:
            vid = vertex.get(raw)
            vids.append(self._register(as_expression(raw)) if vid is None else vid)
        self._drain()
        spread: dict[int, int] = {}
        for position, vid in enumerate(vids):
            spread[vid] = spread.get(vid, 0) | 1 << position
        mask = sum(1 << vid for vid in spread)
        up = self._up
        rows = []
        for i, vid in enumerate(vids):
            row = 0
            for target in bit_positions(up[vid] & mask):
                row |= spread[target]
            rows.append(row & ~(1 << i))
        return rows

    def leq_pairs(self, expressions: Sequence[ExpressionLike]) -> list[tuple[int, int]]:
        """Position pairs ``(i, j)``, ``i ≠ j``, with ``expressions[i] ≤_E expressions[j]``.

        Pairs come in row-major order: :meth:`leq_masks`, spelled out.
        """
        return [(i, j) for i, row in enumerate(self.leq_masks(expressions)) for j in bit_positions(row)]

    def has_arc(self, left: ExpressionLike, right: ExpressionLike) -> bool:
        """``left ≤_E right`` for already-registered expressions (no new vertices).

        Raises :class:`KeyError` when either expression was never registered.
        """
        p = self._vertex[as_expression(left)]
        q = self._vertex[as_expression(right)]
        self._drain()
        return bool(self._up[p] >> q & 1)

    def product_class(self, left: ExpressionLike, right: ExpressionLike) -> int:
        """The class id ``left*right`` would get if registered, or −1 if it would found a new class.

        Read-only: the composite is not registered, and the answer is the one
        :meth:`class_id` would give after registering it.  Raises
        :class:`KeyError` when either operand was never registered, like
        :meth:`has_arc`.

        Let ``p`` and ``q`` be the operands, drained, and ``n`` the composite.
        Registering ``n`` leaves every old row as it was (Lemma 9.2), so
        ``n``'s class id is the root of any old row ``s`` with
        ``s ≤_E n ≤_E s``, and a new row when there is none.  The operand
        rows are closed, so both sides of that test are read off them:

        * the old origins of ``n`` are exactly ``down[p] & down[q]`` (rule 4),
          the AND :meth:`_create_vertex` takes: rules 2, 3 and 7 derive an
          origin of ``n`` only from origins already in that set;
        * the old targets of ``n`` start as ``up[p] | up[q]`` (rule 3), the OR
          :meth:`_create_vertex` takes, and the old rows keep that set closed
          under rule 7.  One rule still starts arcs at ``n``: rule 4 with
          ``n`` as the origin, ``n ≤ a*b`` for an old product whose operands
          are both targets already (this is how ``A*B`` reaches ``B*A``).
          :meth:`_probe` adds those products and their ``up`` rows until
          nothing is gained or the targets meet the origins.
        """
        p = self._vertex[as_expression(left)]
        q = self._vertex[as_expression(right)]
        self._drain()
        return self._product_class(p, q)

    def equivalent(self, left: ExpressionLike, right: ExpressionLike) -> bool:
        """``left =_E right``: the two expressions are in the same congruence class."""
        p = self._register(as_expression(left))
        q = self._register(as_expression(right))
        self._drain()
        return bool(self._up[p] >> q & self._down[p] >> q & 1)

    def congruence_classes(self) -> list[list[PartitionExpression]]:
        """The current classes of Γ-equivalent expressions, in class-id order."""
        return list(self.classes().values())

    def class_id(self, expression: ExpressionLike) -> int:
        """The congruence-class id of an expression (registering it if necessary).

        Two expressions share a class id iff they are provably ``=_E``
        (mutual Γ-arcs).  The id is the class's smallest row id, whose row
        holds the class's earliest-registered expression; it is a row id, not
        a position in :meth:`vertices` (an alias has no row).  Ids are stable
        as long as only *expressions* are added: registering a new expression
        cannot merge existing classes (ALG restricted to a larger ``V`` is
        conservative over the old one), so a snapshot of class ids stays
        valid across ``add_expressions`` / ``leq`` calls.
        :meth:`add_dependencies` can merge classes and thereby retire ids —
        take fresh snapshots after growing ``E``.
        """
        vid = self._register(as_expression(expression))
        self._drain()
        return self._root(vid)

    def classes(self) -> dict[int, list[PartitionExpression]]:
        """The current classes keyed by class id (member expressions in registration order)."""
        self._drain()
        roots = [self._root(vid) for vid in range(len(self._exprs))]
        groups: dict[int, list[PartitionExpression]] = {}
        for expression, vid in self._vertex.items():
            groups.setdefault(roots[vid], []).append(expression)
        # A root is registered before any alias to its class, so keys ascend.
        return groups

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
        """All registered subexpressions in registration order, aliases included.

        A position in this list is not a row id: an alias has no row of its own.
        """
        return list(self._vertex)

    def as_expression_pairs(self) -> set[tuple[PartitionExpression, PartitionExpression]]:
        """The full arc relation expanded back to expression pairs.

        Matches :meth:`repro.implication.alg._ArcRelation.as_expression_pairs`
        exactly (the cross-check oracles rely on this).
        """
        self._drain()
        members: list[list[PartitionExpression]] = [[] for _ in self._exprs]
        for expression, vid in self._vertex.items():
            members[vid].append(expression)
        return {
            (source, target)
            for sources, row in zip(members, self._up)
            for column in bit_positions(row)
            for source in sources
            for target in members[column]
        }

    @contextlib.contextmanager
    def overlay(self) -> Iterator["ImplicationIndex"]:
        """Answer throw-away queries on the warm relation, then roll it back exactly.

        Inside the block the index is used as usual (:meth:`add_expressions`,
        :meth:`leq`, :meth:`equivalent`, ...) except that ``E`` cannot grow.
        On exit — normal, :class:`~repro.errors.DeadlineExceeded` or any other
        exception — every vertex registered inside is forgotten: the relation
        is the pre-entry fixpoint again (same vertices, same arcs), and class
        ids taken before the block stay valid.  Entry closes any
        propagation left queued by an interrupted call first.
        """
        self._drain()
        count, registered, operands = len(self._exprs), len(self._vertex), self._operands
        self._overlays += 1
        try:
            yield self
        finally:
            self._overlays -= 1
            self._rollback(count, registered, operands)

    def _rollback(self, count: int, registered: int, operands: int) -> None:
        """Forget the expressions past the first ``registered`` and the rows ``≥ count`` (:meth:`overlay` exit).

        Expressions are popped newest first, so each new composite row is
        unindexed while its operand-table entries are the last in their lists.
        An alias, to an old row or to a new one, owns no entries and is just
        popped.  An old row can only have gained bits at new positions
        (Lemma 9.2), so masking it restores it; queued deltas are then stale
        and dropped.
        """
        self._new_up.clear()
        self._new_down.clear()
        exprs, vertex = self._exprs, self._vertex
        while len(vertex) > registered:
            node, vid = vertex.popitem()
            if exprs[vid] is not node or isinstance(node, Attr):
                continue  # an alias, or a row with no operands
            table = self._products_of if isinstance(node, Product) else self._sums_of
            for operand in {vertex[node.left], vertex[node.right]}:  # type: ignore[attr-defined]
                entries = table[operand]
                entries.pop()
                if not entries:
                    del table[operand]
        if len(exprs) == count:
            return
        del exprs[count:]
        mask = (1 << count) - 1
        self._up = [row & mask for row in self._up[:count]]
        self._down = [row & mask for row in self._down[:count]]
        self._operands = operands

    # -- vertex registration ----------------------------------------------------

    def _register(self, expression: PartitionExpression) -> int:
        """Intern ``expression`` and all its subexpressions (children first), hash-consed modulo ``=_E``.

        Each composite is probed on its drained operands' rows: one that lands
        on a known class becomes an alias of that class's row, and only one
        that founds a new class gets a row of its own.
        """
        vertex = self._vertex
        vid = vertex.get(expression)
        if vid is not None:
            return vid
        # As in :meth:`_drain`: nothing below opens a deadline scope, so
        # with none active on entry the per-expression poll is skipped.
        budgeted = bool(active_deadlines())
        new_up, new_down = self._new_up, self._new_down
        stack: list[tuple[PartitionExpression, bool]] = [(expression, False)]
        while stack:
            node, expanded = stack.pop()
            if node in vertex:
                continue
            if expanded:
                if budgeted:
                    check_deadline()  # one budget check per expression registered
                if isinstance(node, Attr):
                    self._create_vertex(node)
                    continue
                p = vertex[node.left]  # type: ignore[attr-defined]
                q = vertex[node.right]  # type: ignore[attr-defined]
                if new_up or new_down:
                    self._drain()
                known = self._product_class(p, q) if isinstance(node, Product) else self._sum_class(p, q)
                if known < 0:
                    self._create_vertex(node)
                else:
                    vertex[node] = known
            else:
                stack.append((node, True))
                if not isinstance(node, Attr):
                    stack.append((node.left, False))  # type: ignore[attr-defined]
                    stack.append((node.right, False))  # type: ignore[attr-defined]
        return vertex[expression]

    def _product_class(self, p: int, q: int) -> int:
        """:meth:`product_class` on drained operand rows ``p`` and ``q``."""
        up, down = self._up, self._down
        return self._probe(down[p] & down[q], up[p] | up[q], up, self._products_of)

    def _sum_class(self, p: int, q: int) -> int:
        """The class id ``p+q`` would get if registered over drained rows ``p`` and ``q``, or −1.

        The dual of :meth:`product_class`.  Registering ``n = p+q`` leaves
        every old row as it was (Lemma 9.2), and the operand rows are closed:

        * the old targets of ``n`` are exactly ``up[p] & up[q]`` (rule 2),
          the AND :meth:`_create_vertex` takes: rules 4, 5 and 7 derive a
          target of ``n`` only from targets already in that set;
        * the old origins of ``n`` start as ``down[p] | down[q]`` (rule 5),
          the OR :meth:`_create_vertex` takes, and the old rows keep that set
          closed under rule 7 (and so under rule 3).  One rule still ends arcs
          at ``n``: rule 2 with ``n`` as the target, ``a+b ≤ n`` for an old
          sum whose operands are both origins already.  :meth:`_probe` adds
          those sums and their ``down`` rows until nothing is gained or the
          origins meet the targets.
        """
        up, down = self._up, self._down
        return self._probe(up[p] & up[q], down[p] | down[q], down, self._sums_of)

    def _probe(
        self, fixed: int, grown: int, rows: list[int], table: dict[int, list[tuple[int, int]]]
    ) -> int:
        """The root of an old row in both ``fixed`` and the closure of ``grown``, or −1.

        ``grown`` is closed under the composites of ``table``: a composite
        whose two operands are both in it joins it with its whole row from
        ``rows``.  The loop stops as soon as the two sets meet.
        """
        fresh = grown
        while not grown & fixed:
            gained = 0
            for member in bit_positions(fresh & self._operands):
                for composite, other in table.get(member, ()):
                    if grown >> other & 1:
                        gained |= rows[composite]
            fresh = gained & ~grown
            if not fresh:
                return -1
            grown |= fresh
        both = grown & fixed
        return self._root((both & -both).bit_length() - 1)

    def _create_vertex(self, node: PartitionExpression) -> None:
        """Add one row for an expression whose operands are already registered, with rule catch-up.

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
        product = isinstance(node, Product)
        # Record the composite under each operand, with the other operand.
        self._operands |= 1 << left | 1 << right
        table = self._products_of if product else self._sums_of
        table.setdefault(left, []).append((vid, right))
        if right != left:
            table.setdefault(right, []).append((vid, left))
        up, down = self._up, self._down
        bit = 1 << vid
        # Rules 3 and 2: p*q ≤ s when p ≤ s or q ≤ s; p+q ≤ s when both are.
        targets = up[left] | up[right] if product else up[left] & up[right]
        up[vid] = targets
        for target in bit_positions(targets):
            down[target] |= bit
        # Rules 4 and 5: o ≤ p*q when o ≤ p and o ≤ q; o ≤ p+q when either is.
        # Read after the mirror above, so a product finds its own self-arc.
        origins = down[left] & down[right] if product else down[left] | down[right]
        down[vid] = origins
        for origin in bit_positions(origins):
            up[origin] |= bit
        # The rules keyed on the other end of each new arc (only operands of
        # some composite have any).
        for origin in bit_positions(origins & self._operands):
            self._targets_gained(origin, bit)
        for target in bit_positions(targets & self._operands):
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
        for target in bit_positions(fresh):
            down[target] |= bit
            new_down[target] = new_down.get(target, 0) | bit

    def _add_down(self, vid: int, origins: int) -> None:
        """Record ``o ≤ vid`` for every bit ``o`` of ``origins`` and queue what is new."""
        fresh = origins & ~self._down[vid]
        if not fresh:
            return
        self._down[vid] |= fresh
        self._new_down[vid] = self._new_down.get(vid, 0) | fresh
        bit = 1 << vid
        up, new_up = self._up, self._new_up
        for origin in bit_positions(fresh):
            up[origin] |= bit
            new_up[origin] = new_up.get(origin, 0) | bit

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
                for target in bit_positions(delta):
                    reach |= up[target]
                if reach & ~up[vid]:
                    self._add_up(vid, reach)
            else:
                vid, delta = new_down.popitem()
                self._origins_gained(vid, delta)
                # Rule 7: o ≤ p ≤ vid for each new origin p.
                reach = 0
                for origin in bit_positions(delta):
                    reach |= down[origin]
                if reach & ~down[vid]:
                    self._add_down(vid, reach)

