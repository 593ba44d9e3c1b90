"""Finite lattices on a dense integer/bitset kernel (§2.2).

A lattice is a set with two binary operations ``*`` (meet) and ``+`` (join)
satisfying associativity, commutativity, idempotence and the two absorption
laws; the natural partial order is ``x ≤ y  iff  x = x·y  iff  y = y + x``.

:class:`FiniteLattice` used to store hashable elements in dict operation
tables and answer every structural question by O(n²)–O(n³) elementwise scans
(that implementation survives as
:class:`repro.lattice.oracle.OracleFiniteLattice`, the cross-check oracle of
the randomized equivalence suite).  This module is the production kernel:

* elements are interned once into contiguous ids ``0 .. n-1`` (``_elements``
  list for id → element, ``_index`` dict for element → id);
* meet and join are flat id → id tables (lists of lists — two machine-int
  indexations per operation, no tuple keys, no hashing);
* the ``≤`` order is stored as per-element **bitset rows** (Python big-ints):
  ``up[i]`` has bit ``j`` set iff ``i ≤ j`` and ``down[j]`` has bit ``i`` set
  iff ``i ≤ j``, so order tests are one shift-and-mask and order-theoretic
  queries (covers, bounds, GLB/LUB candidates) are word-parallel ``&``/``|``;
* :meth:`from_partial_order` assigns ids along a linear extension, so the
  greatest lower bound of ``x, y`` is the **highest set bit** of
  ``down[x] & down[y]`` (dually the LUB is the highest-position bit of
  ``up[x] & up[y]`` under the reversed extension) — one big-int ``&`` plus
  ``bit_length`` instead of a quadratic scan per pair.  That construction
  checks the order once: reflexivity, antisymmetry and a mask equality per
  GLB/LUB, which force transitivity, so no lattice-law pass follows, and the
  lattice keeps the rows it was built from.  The Theorem 8 countermodel
  ``L_H`` hands its index's ``leq_masks`` rows straight to it; every other
  constructor derives the rows from the meet table with :func:`order_rows`;
* :meth:`axiom_violations` (run by the callback constructor) replaces the
  O(n³) associativity sweep with the order-theoretic characterization —
  idempotence, commutativity and absorption on the tables, then
  transitivity and the GLB/LUB property as O(n²) bitset-row comparisons
  (``down[x·y] == down[x] & down[y]``).  The two characterizations agree: a
  magma pair is a lattice iff its induced ``≤`` is a partial order realized
  by the tables as GLB and LUB.

A *lattice with constants over U* additionally names some elements with
attribute names (the ``g`` of §2.2); expression evaluation memoizes id
results per interned AST node, so a batch of PDs walks each shared
subexpression once (the PR 3 DAG-evaluation pattern).
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable, Mapping
from typing import Callable, Optional

from repro.bits import bit_positions
from repro.errors import LatticeError
from repro.expressions.ast import Attr, ExpressionLike, PartitionExpression, Product, Sum, as_expression

#: Lattice elements can be any hashable value.
LatticeElement = Hashable


class FiniteLattice:
    """An explicit finite lattice on the integer/bitset kernel, optionally with constants.

    ``constants`` maps attribute names to elements; several names may point
    at the same element, matching the paper's remark that an element can
    have more than one name.  The public surface is element-valued; the
    id-level kernel (``meet_ids``/``join_ids``/``up_masks``/``down_masks``)
    is exposed read-only for the property checks and the quotient pipeline.
    """

    __slots__ = (
        "_elements",
        "_index",
        "_meet_ids",
        "_join_ids",
        "_up",
        "_down",
        "_constants",
        "_constant_ids",
        "_eval_cache",
    )

    def __init__(
        self,
        elements: Iterable[LatticeElement],
        meet: Callable[[LatticeElement, LatticeElement], LatticeElement],
        join: Callable[[LatticeElement, LatticeElement], LatticeElement],
        constants: Optional[Mapping[str, LatticeElement]] = None,
        validate: bool = True,
    ) -> None:
        interned = list(dict.fromkeys(elements))
        if not interned:
            raise LatticeError("a lattice must be non-empty")
        index = {element: i for i, element in enumerate(interned)}
        meet_ids: list[list[int]] = []
        join_ids: list[list[int]] = []
        for x in interned:
            meet_row: list[int] = []
            join_row: list[int] = []
            for y in interned:
                m = index.get(meet(x, y))
                j = index.get(join(x, y))
                if m is None or j is None:
                    raise LatticeError(
                        f"meet/join of {x!r}, {y!r} escapes the element set"
                    )
                meet_row.append(m)
                join_row.append(j)
            meet_ids.append(meet_row)
            join_ids.append(join_row)
        self._init_from_tables(
            interned, index, meet_ids, join_ids, *order_rows(meet_ids), constants
        )
        if validate:
            problems = self.axiom_violations()
            if problems:
                raise LatticeError(f"lattice axioms violated: {problems[:3]} ...")

    def _init_from_tables(
        self,
        elements: list[LatticeElement],
        index: dict[LatticeElement, int],
        meet_ids: list[list[int]],
        join_ids: list[list[int]],
        up: list[int],
        down: list[int],
        constants: Optional[Mapping[str, LatticeElement]],
    ) -> None:
        self._elements = elements
        self._index = index
        self._meet_ids = meet_ids
        self._join_ids = join_ids
        self._up = up
        self._down = down
        self._constants = dict(constants or {})
        self._constant_ids: dict[str, int] = {}
        for name, element in self._constants.items():
            cid = index.get(element)
            if cid is None:
                raise LatticeError(f"constant {name!r} names unknown element {element!r}")
            self._constant_ids[name] = cid
        self._eval_cache: dict[PartitionExpression, int] = {}

    @classmethod
    def _trusted(
        cls,
        elements: list[LatticeElement],
        meet_ids: list[list[int]],
        join_ids: list[list[int]],
        up: list[int],
        down: list[int],
        constants: Optional[Mapping[str, LatticeElement]] = None,
    ) -> "FiniteLattice":
        """Internal constructor from precomputed id tables and order rows (no checks)."""
        self = object.__new__(cls)
        index = {element: i for i, element in enumerate(elements)}
        self._init_from_tables(elements, index, meet_ids, join_ids, up, down, constants)
        return self

    # -- constructors ---------------------------------------------------------------
    @classmethod
    def from_tables(
        cls,
        elements: Iterable[LatticeElement],
        meet_table: Mapping[tuple[LatticeElement, LatticeElement], LatticeElement],
        join_table: Mapping[tuple[LatticeElement, LatticeElement], LatticeElement],
        constants: Optional[Mapping[str, LatticeElement]] = None,
        validate: bool = True,
    ) -> "FiniteLattice":
        """Build from explicit operation tables (missing symmetric entries are filled in)."""

        def meet(x: LatticeElement, y: LatticeElement) -> LatticeElement:
            if (x, y) in meet_table:
                return meet_table[(x, y)]
            return meet_table[(y, x)]

        def join(x: LatticeElement, y: LatticeElement) -> LatticeElement:
            if (x, y) in join_table:
                return join_table[(x, y)]
            return join_table[(y, x)]

        return cls(elements, meet, join, constants, validate)

    @classmethod
    def from_partial_order(
        cls,
        elements: Iterable[LatticeElement],
        leq: Callable[[LatticeElement, LatticeElement], bool],
        constants: Optional[Mapping[str, LatticeElement]] = None,
    ) -> "FiniteLattice":
        """Build a lattice from a partial order, checking that meets and joins exist.

        The order is probed once (n² ``leq`` calls) into bitset rows; ids are
        then ranked along a linear extension so every GLB/LUB is the
        highest-position set bit of one mask intersection.  Raises
        :class:`LatticeError` when the relation is not reflexive or not
        antisymmetric, or some pair has no greatest lower bound or least
        upper bound (i.e. the order is not a lattice order).

        These checks are the whole validation; no lattice-law pass follows.
        They also force transitivity: for ``x ≤ y`` the GLB check on
        ``(x, y)`` finds a ``g`` with ``down[g] == down[x] & down[y]``; that
        set holds ``x`` (reflexivity and ``x ≤ y``) and ``g`` (reflexivity),
        so ``x ≤ g ≤ x`` and ``g == x`` by antisymmetry, hence
        ``down[x] ⊆ down[y]``.  Tables that realize the GLB and LUB of a
        partial order satisfy every law :meth:`axiom_violations` checks.
        """
        items = list(dict.fromkeys(elements))
        up = [sum(1 << j for j, y in enumerate(items) if leq(x, y)) for x in items]
        return cls._from_order_rows(items, up, constants)

    @classmethod
    def _from_order_rows(
        cls,
        items: list[LatticeElement],
        up: list[int],
        constants: Optional[Mapping[str, LatticeElement]] = None,
    ) -> "FiniteLattice":
        """:meth:`from_partial_order` on distinct ``items`` and their ``up`` rows, kept as the order."""
        n = len(items)
        if not n:
            raise LatticeError("a lattice must be non-empty")
        down = [0] * n
        for i, row in enumerate(up):
            bit = 1 << i
            for j in bit_positions(row):
                down[j] |= bit
        for i in range(n):
            if not (up[i] >> i) & 1:
                raise LatticeError(f"the order is not reflexive at {items[i]!r}")
            others = up[i] & down[i] & ~(1 << i)
            if others:
                j = others.bit_length() - 1
                raise LatticeError(
                    f"the order is not antisymmetric at {items[i]!r}, {items[j]!r}"
                )

        # Rank ids along a linear extension (|down-set| is monotone in <),
        # then re-express each mask in rank space so the GLB of a pair is the
        # highest set bit of the intersected down-rows (dually for the LUB).
        order = sorted(range(n), key=lambda i: (down[i].bit_count(), i))
        rank = [0] * n
        for position, i in enumerate(order):
            rank[i] = position
        rank_down = [_rank_mask(down[i], rank) for i in range(n)]
        co_rank = [n - 1 - position for position in rank]
        rank_up = [_rank_mask(up[i], co_rank) for i in range(n)]

        meet_ids: list[list[int]] = []
        join_ids: list[list[int]] = []
        co_order = list(reversed(order))
        for i in range(n):
            down_i = rank_down[i]
            up_i = rank_up[i]
            meet_row: list[int] = []
            join_row: list[int] = []
            for j in range(n):
                # An empty intersection picks position -1, whose (reflexive,
                # hence non-empty) row then fails the equality check.
                lower = down_i & rank_down[j]
                glb = order[lower.bit_length() - 1]
                if rank_down[glb] != lower:
                    raise LatticeError(
                        f"elements {items[i]!r}, {items[j]!r} have no unique greatest lower bound"
                    )
                meet_row.append(glb)
                upper = up_i & rank_up[j]
                lub = co_order[upper.bit_length() - 1]
                if rank_up[lub] != upper:
                    raise LatticeError(
                        f"elements {items[i]!r}, {items[j]!r} have no unique least upper bound"
                    )
                join_row.append(lub)
            meet_ids.append(meet_row)
            join_ids.append(join_row)
        return cls._trusted(items, meet_ids, join_ids, up, down, constants)

    @classmethod
    def chain(cls, length: int) -> "FiniteLattice":
        """The chain lattice 0 < 1 < ... < length-1 (handy in tests)."""
        if length <= 0:
            raise LatticeError("a chain needs at least one element")
        return cls(range(length), min, max)

    @classmethod
    def boolean(cls, generators: Iterable[str]) -> "FiniteLattice":
        """The Boolean (powerset) lattice over a finite generator set, constants = atoms."""
        names = sorted(set(generators))
        elements = [
            frozenset(combo)
            for size in range(len(names) + 1)
            for combo in itertools.combinations(names, size)
        ]
        constants = {name: frozenset([name]) for name in names}
        return cls(
            elements,
            lambda x, y: x & y,
            lambda x, y: x | y,
            constants,
        )

    # -- basic structure ---------------------------------------------------------------
    @property
    def elements(self) -> list[LatticeElement]:
        """The elements (in construction order)."""
        return list(self._elements)

    @property
    def constants(self) -> dict[str, LatticeElement]:
        """The named constants (attribute name → element)."""
        return dict(self._constants)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, element: object) -> bool:
        return element in self._index

    # -- id-level kernel surface -------------------------------------------------------
    def element_id(self, element: LatticeElement) -> int:
        """The interned id of an element (raises on unknown elements)."""
        try:
            return self._index[element]
        except KeyError as exc:
            raise LatticeError(f"{element!r} is not a lattice element") from exc

    @property
    def meet_ids(self) -> list[list[int]]:
        """The meet table as id rows (``meet_ids[i][j]`` = id of ``i · j``; do not mutate)."""
        return self._meet_ids

    @property
    def join_ids(self) -> list[list[int]]:
        """The join table as id rows (``join_ids[i][j]`` = id of ``i + j``; do not mutate)."""
        return self._join_ids

    @property
    def up_masks(self) -> list[int]:
        """Bitset rows of the order: bit ``j`` of ``up_masks[i]`` is set iff ``i ≤ j``."""
        return self._up

    @property
    def down_masks(self) -> list[int]:
        """Bitset rows of the order: bit ``i`` of ``down_masks[j]`` is set iff ``i ≤ j``."""
        return self._down

    # -- operations --------------------------------------------------------------------
    def meet(self, x: LatticeElement, y: LatticeElement) -> LatticeElement:
        """``x * y``."""
        try:
            return self._elements[self._meet_ids[self._index[x]][self._index[y]]]
        except KeyError as exc:
            raise LatticeError(f"{x!r} or {y!r} is not a lattice element") from exc

    def join(self, x: LatticeElement, y: LatticeElement) -> LatticeElement:
        """``x + y``."""
        try:
            return self._elements[self._join_ids[self._index[x]][self._index[y]]]
        except KeyError as exc:
            raise LatticeError(f"{x!r} or {y!r} is not a lattice element") from exc

    def leq(self, x: LatticeElement, y: LatticeElement) -> bool:
        """The natural partial order: ``x ≤ y`` iff ``x = x * y``."""
        try:
            return (self._up[self._index[x]] >> self._index[y]) & 1 == 1
        except KeyError as exc:
            raise LatticeError(f"{x!r} or {y!r} is not a lattice element") from exc

    def top(self) -> LatticeElement:
        """The greatest element (the one whose down-set row is full)."""
        full = (1 << len(self._elements)) - 1
        for i, mask in enumerate(self._down):
            if mask == full:
                return self._elements[i]
        # Unvalidated non-lattices may lack a top; fold joins like the seed did.
        result = 0
        for j in range(1, len(self._elements)):
            result = self._join_ids[result][j]
        return self._elements[result]

    def bottom(self) -> LatticeElement:
        """The least element (the one whose up-set row is full)."""
        full = (1 << len(self._elements)) - 1
        for i, mask in enumerate(self._up):
            if mask == full:
                return self._elements[i]
        result = 0
        for j in range(1, len(self._elements)):
            result = self._meet_ids[result][j]
        return self._elements[result]

    def covers(self) -> list[tuple[LatticeElement, LatticeElement]]:
        """The covering pairs (Hasse-diagram edges) ``x ⋖ y``.

        ``x ⋖ y`` iff the order interval ``[x, y]`` — the bit intersection
        ``up[x] & down[y]`` — contains exactly the two endpoints.
        """
        elements = self._elements
        return [(elements[i], elements[j]) for i, j in iter_cover_ids(self._up, self._down)]

    # -- axioms ------------------------------------------------------------------------------
    def axiom_violations(self) -> list[str]:
        """Human-readable descriptions of lattice-axiom violations (empty iff a lattice).

        Order-theoretic formulation: the tables form a lattice iff meet/join
        are idempotent, commutative and mutually absorptive, the induced
        ``x ≤ y iff x·y = x`` is transitive, and every table entry realizes
        the greatest lower / least upper bound of its pair — all checked as
        O(n²) table scans and bitset-row comparisons (no O(n³) associativity
        sweep; associativity of a GLB/LUB-realizing table is automatic).
        """
        problems: list[str] = []
        elements = self._elements
        n = len(elements)
        meet_ids = self._meet_ids
        join_ids = self._join_ids
        for i in range(n):
            if meet_ids[i][i] != i:
                problems.append(f"meet not idempotent at {elements[i]!r}")
            if join_ids[i][i] != i:
                problems.append(f"join not idempotent at {elements[i]!r}")
        for i in range(n):
            meet_row = meet_ids[i]
            join_row = join_ids[i]
            for j in range(n):
                if meet_row[j] != meet_ids[j][i]:
                    problems.append(f"meet not commutative at {elements[i]!r}, {elements[j]!r}")
                if join_row[j] != join_ids[j][i]:
                    problems.append(f"join not commutative at {elements[i]!r}, {elements[j]!r}")
                if join_row[meet_row[j]] != i:
                    problems.append(f"absorption x+(x*y) fails at {elements[i]!r}, {elements[j]!r}")
                if meet_row[join_row[j]] != i:
                    problems.append(f"absorption x*(x+y) fails at {elements[i]!r}, {elements[j]!r}")
        if problems:
            # The induced relation is not even a candidate order; the bound
            # checks below presuppose these base axioms.
            return problems
        up = self._up
        down = self._down
        for j in range(n):
            members = down[j]
            union = 0
            for k in bit_positions(members):
                union |= down[k]
            if union != members:
                problems.append(f"the induced order is not transitive below {elements[j]!r}")
        if problems:
            return problems
        for i in range(n):
            down_i = down[i]
            up_i = up[i]
            for j in range(n):
                if down[meet_ids[i][j]] != down_i & down[j]:
                    problems.append(
                        f"meet of {elements[i]!r}, {elements[j]!r} is not the greatest lower bound"
                    )
                if up[join_ids[i][j]] != up_i & up[j]:
                    problems.append(
                        f"join of {elements[i]!r}, {elements[j]!r} is not the least upper bound"
                    )
        return problems

    # -- constants and expression evaluation -----------------------------------------------------
    def with_constants(self, constants: Mapping[str, LatticeElement]) -> "FiniteLattice":
        """The same lattice with a different constant assignment (tables are shared)."""
        return FiniteLattice._trusted(
            self._elements, self._meet_ids, self._join_ids, self._up, self._down, constants
        )

    def constant(self, name: str) -> LatticeElement:
        """The element named by an attribute."""
        try:
            return self._elements[self._constant_ids[name]]
        except KeyError as exc:
            raise LatticeError(f"no constant named {name!r} in this lattice") from exc

    def evaluate_id(self, expression: ExpressionLike) -> int:
        """Evaluate a partition expression to an element id (memoized per AST node).

        Expression nodes are hash-consed (PR 2), so the cache keys on object
        identity and a batch of PDs walks each shared subexpression once.
        """
        node = as_expression(expression)
        cache = self._eval_cache
        cached = cache.get(node)
        if cached is not None:
            return cached
        stack: list[tuple[PartitionExpression, bool]] = [(node, False)]
        meet_ids = self._meet_ids
        join_ids = self._join_ids
        while stack:
            current, expanded = stack.pop()
            if current in cache:
                continue
            if isinstance(current, Attr):
                cid = self._constant_ids.get(current.name)
                if cid is None:
                    raise LatticeError(f"no constant named {current.name!r} in this lattice")
                cache[current] = cid
            elif expanded:
                left = cache[current.left]  # type: ignore[attr-defined]
                right = cache[current.right]  # type: ignore[attr-defined]
                if isinstance(current, Product):
                    cache[current] = meet_ids[left][right]
                elif isinstance(current, Sum):
                    cache[current] = join_ids[left][right]
                else:
                    raise LatticeError(f"unknown expression node {current!r}")
            else:
                if not isinstance(current, (Product, Sum)):
                    raise LatticeError(f"unknown expression node {current!r}")
                stack.append((current, True))
                stack.append((current.left, False))
                stack.append((current.right, False))
        return cache[node]

    def evaluate(self, expression: ExpressionLike) -> LatticeElement:
        """Evaluate a partition expression inside the lattice (attributes via constants)."""
        return self._elements[self.evaluate_id(expression)]

    def satisfies(self, dependency) -> bool:
        """``L ⊨ e = e'``: the two sides evaluate to the same element (§2.2)."""
        from repro.dependencies.pd import as_partition_dependency

        pd = as_partition_dependency(dependency)
        return self.evaluate_id(pd.left) == self.evaluate_id(pd.right)

    def satisfies_all(self, dependencies: Iterable) -> bool:
        """Satisfaction of a set of equations."""
        return all(self.satisfies(pd) for pd in dependencies)

    # -- substructures -----------------------------------------------------------------------------
    def sublattice(self, elements: Iterable[LatticeElement]) -> "FiniteLattice":
        """The sublattice generated by ``elements`` (closure under meet and join)."""
        generators = list(elements)
        if not generators:
            raise LatticeError("a sublattice needs at least one generator")
        unknown = {e for e in generators if e not in self._index}
        if unknown:
            raise LatticeError(f"not lattice elements: {sorted(unknown, key=repr)!r}")
        members: list[int] = list(dict.fromkeys(self._index[e] for e in generators))
        member_set = set(members)
        meet_ids = self._meet_ids
        join_ids = self._join_ids
        i = 0
        while i < len(members):
            a = members[i]
            meet_row = meet_ids[a]
            join_row = join_ids[a]
            for b in members[: i + 1]:
                for candidate in (meet_row[b], join_row[b]):
                    if candidate not in member_set:
                        member_set.add(candidate)
                        members.append(candidate)
            i += 1
        chosen = sorted((self._elements[i] for i in member_set), key=repr)
        old_ids = [self._index[element] for element in chosen]
        position_of_id = {old_id: p for p, old_id in enumerate(old_ids)}
        sub_meet = [
            [position_of_id[meet_ids[a][b]] for b in old_ids] for a in old_ids
        ]
        sub_join = [
            [position_of_id[join_ids[a][b]] for b in old_ids] for a in old_ids
        ]
        constants = {
            name: element
            for name, element in self._constants.items()
            if self._index[element] in member_set
        }
        return FiniteLattice._trusted(
            chosen, sub_meet, sub_join, *order_rows(sub_meet), constants
        )

    def __repr__(self) -> str:
        return f"FiniteLattice({len(self._elements)} elements, constants={sorted(self._constants)})"


def order_rows(meet_ids: list[list[int]]) -> tuple[list[int], list[int]]:
    """The ``(up, down)`` bitset rows of the order a meet table induces: ``i ≤ j`` iff ``i·j = i``."""
    n = len(meet_ids)
    up = [0] * n
    down = [0] * n
    for i, row in enumerate(meet_ids):
        bit = 1 << i
        mask = 0
        for j in range(n):
            if row[j] == i:
                mask |= 1 << j
                down[j] |= bit
        up[i] = mask
    return up, down


def iter_cover_ids(up: list[int], down: list[int]):
    """Yield the covering id pairs ``(i, j)`` of an order given as bitset rows.

    ``i ⋖ j`` iff ``i < j`` in the order and the interval ``up[i] & down[j]``
    holds only the two endpoints.  Shared by :meth:`FiniteLattice.covers` and
    the isomorphism profiles of :mod:`repro.lattice.properties`.
    """
    n = len(up)
    for i in range(n):
        up_i = up[i]
        not_i = ~(1 << i)
        for j in range(n):
            if i == j or not (up_i >> j) & 1:
                continue
            if up_i & down[j] & not_i & ~(1 << j):
                continue
            yield (i, j)


def _rank_mask(mask: int, rank: list[int]) -> int:
    """Scatter a mask's bits through a rank permutation (id space → rank space)."""
    result = 0
    for i in bit_positions(mask):
        result |= 1 << rank[i]
    return result
