"""The chase with labelled nulls over a tableau (substrate for Honeyman's test).

The weak-instance consistency test of Honeyman [19 in the paper] — used by
the paper in Theorems 6, 7 and 12 — works as follows: pad every tuple of the
database out to the full attribute universe with fresh labelled nulls
(producing the *representative instance* / tableau), then *chase* the tableau
with the given FDs, equating symbols whenever an FD forces two rows that
agree on its left-hand side to agree on its right-hand side.  The database is
consistent with the FDs under the weak-instance assumption iff the chase
never tries to equate two distinct *constants*.

This module provides the tableau machinery:

* :class:`TableauValue` — either a constant (a database symbol) or a labelled
  null;
* :class:`Tableau` — a mutable matrix of tableau values with a union-find
  over value classes;
* :func:`chase_fds` — run the FD chase to a fixpoint, reporting success or
  the first hard violation.

The chase is deterministic (rows and FDs are processed in sorted order), so
its results are reproducible across runs.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import ConsistencyError
from repro.relational.attributes import Attribute, AttributeSet, Symbol, as_attribute_set
from repro.relational.database import Database
from repro.relational.functional_dependencies import FunctionalDependency
from repro.relational.relations import Relation
from repro.relational.schema import RelationScheme
from repro.relational.tuples import Row


@dataclass(frozen=True)
class TableauValue:
    """A value in a tableau cell: either a constant or a labelled null.

    ``is_constant`` distinguishes the two kinds; ``label`` is the symbol for
    constants and an opaque unique identifier for nulls.  The hash is
    precomputed: tableau values are the keys of every union-find and chase
    index dictionary, so hashing them is one of the hottest operations in the
    repository.
    """

    is_constant: bool
    label: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.is_constant, self.label)))

    def __hash__(self) -> int:  # pragma: no cover - exercised by every dict op
        return self._hash  # type: ignore[attr-defined]

    @classmethod
    def constant(cls, symbol: Symbol) -> "TableauValue":
        return cls(True, symbol)

    @classmethod
    def null(cls, identifier: str) -> "TableauValue":
        return cls(False, identifier)

    def __str__(self) -> str:
        return self.label if self.is_constant else f"⊥{self.label}"

    def election_key(self) -> tuple[int, int, str]:
        """Total order used to elect class representatives deterministically.

        Constants beat nulls; ties break on the shortest, lexicographically
        smallest label (which orders the generated nulls ``n1 < n2 < ... <
        n10 < ...`` numerically).  Electing by a merge-order-independent key
        makes the chased tableau identical no matter which chase strategy
        produced it — the property the engine/naive cross-check tests rely on.
        """
        return (0 if self.is_constant else 1, len(self.label), self.label)


class _UnionFind:
    """Union-find over tableau values with constant-aware representative election.

    When two classes are merged the representative prefers a constant
    (ties between nulls break on :meth:`TableauValue.election_key`, so the
    elected representative does not depend on merge order); merging two
    classes that contain *different* constants is the hard failure the chase
    reports.
    """

    def __init__(self) -> None:
        self._parent: dict[TableauValue, TableauValue] = {}

    def add(self, value: TableauValue) -> None:
        self._parent.setdefault(value, value)

    def find(self, value: TableauValue) -> TableauValue:
        parent = self._parent
        root = parent.setdefault(value, value)
        if root is value or parent[root] == root:
            # Fast path: ``value`` is its own root, or its parent is a root —
            # the overwhelmingly common cases in a chase (fresh nulls, and
            # values one hop from their representative).
            return root
        while parent[root] != root:
            root = parent[root]
        # Path compression.
        while parent[value] != root:
            parent[value], value = root, parent[value]
        return root

    def union(self, first: TableauValue, second: TableauValue) -> bool:
        """Merge the classes of ``first`` and ``second``.

        Returns ``True`` on success and ``False`` when both classes already
        contain distinct constants (an FD violation that cannot be repaired).
        """
        root_a, root_b = self.find(first), self.find(second)
        if root_a == root_b:
            return True
        if root_a.is_constant and root_b.is_constant:
            return False
        if root_b.election_key() < root_a.election_key():
            root_a, root_b = root_b, root_a
        # root_a wins the election (constant if any); point root_b at it.
        self._parent[root_b] = root_a
        return True


class Tableau:
    """A tableau: rows over a common attribute universe, with constants and nulls."""

    def __init__(self, attributes: Union[str, AttributeSet]) -> None:
        self._attributes = as_attribute_set(attributes)
        if not self._attributes:
            raise ConsistencyError("a tableau needs a non-empty attribute universe")
        self._rows: list[dict[Attribute, TableauValue]] = []
        self._uf = _UnionFind()
        self._null_counter = itertools.count(1)

    @property
    def attributes(self) -> AttributeSet:
        """The attribute universe of the tableau."""
        return self._attributes

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def fresh_null(self) -> TableauValue:
        """A labelled null never used before in this tableau."""
        value = TableauValue.null(f"n{next(self._null_counter)}")
        self._uf.add(value)
        return value

    def add_row(self, cells: dict[Attribute, Union[TableauValue, Symbol]]) -> int:
        """Add a row; missing attributes are padded with fresh nulls.

        String cell values are wrapped as constants.  Returns the row index.
        """
        row: dict[Attribute, TableauValue] = {}
        for attribute in self._attributes:
            if attribute in cells:
                raw = cells[attribute]
                value = raw if isinstance(raw, TableauValue) else TableauValue.constant(raw)
            else:
                value = self.fresh_null()
            self._uf.add(value)
            row[attribute] = value
        self._rows.append(row)
        return len(self._rows) - 1

    def value(self, row_index: int, attribute: Attribute) -> TableauValue:
        """The current (representative) value of a cell."""
        return self._uf.find(self._rows[row_index][attribute])

    def raw_row(self, row_index: int) -> Mapping[Attribute, TableauValue]:
        """The stored (unresolved) cells of a row — treat as read-only.

        Callers that resolve many cells repeatedly (the chase engine) keep a
        reference to the raw row and pass its cells through :meth:`resolve`,
        avoiding a row-list lookup per cell.
        """
        return self._rows[row_index]

    def resolve(self, value: TableauValue) -> TableauValue:
        """The current representative of ``value``'s equivalence class."""
        return self._uf.find(value)

    def equate(self, first: TableauValue, second: TableauValue) -> bool:
        """Equate two values; False signals an unrepairable constant clash."""
        return self._uf.union(first, second)

    def rows_as_values(self) -> list[dict[Attribute, TableauValue]]:
        """Snapshot of all rows with representatives resolved."""
        return [
            {a: self._uf.find(v) for a, v in row.items()}
            for row in self._rows
        ]

    def to_relation(self, name: str = "chased") -> Relation:
        """Materialize the tableau as a relation, rendering nulls as symbols.

        Labelled nulls become symbols of the form ``"⊥<id>"`` (distinct from
        any database constant), so the result is a genuine weak instance
        whenever the chase succeeded.
        """
        scheme = RelationScheme(name, self._attributes)
        rows = []
        for row in self.rows_as_values():
            rows.append(Row({a: str(v) for a, v in row.items()}))
        return Relation(scheme, rows)


class ChaseResult:
    """Outcome of chasing a tableau with a set of FDs.

    ``consistent`` is False iff the chase attempted to equate two distinct
    constants; in that case ``violation`` names the FD responsible.
    ``tableau`` is the chased tableau (final state in either case) and
    ``steps`` counts the number of successful equate operations performed.
    :meth:`to_relation` renders the chased tableau as a relation.
    """

    __slots__ = ("consistent", "steps", "violation", "_tableau")

    def __init__(
        self,
        consistent: bool,
        tableau: Optional[Tableau],
        steps: int,
        violation: Optional[FunctionalDependency] = None,
    ) -> None:
        self.consistent = consistent
        self.steps = steps
        self.violation = violation
        self._tableau = tableau

    @property
    def tableau(self) -> Tableau:
        return self._tableau

    def to_relation(self, name: str = "chased") -> Relation:
        """The chased tableau as a relation (see :meth:`Tableau.to_relation`)."""
        return self.tableau.to_relation(name)

    def __repr__(self) -> str:
        return (
            f"ChaseResult(consistent={self.consistent}, steps={self.steps}, "
            f"violation={self.violation})"
        )


def representative_instance(database: Database, universe: Optional[AttributeSet] = None) -> Tableau:
    """Build the representative instance (padded tableau) of a database.

    Every tuple of every relation becomes a tableau row over the full
    attribute universe, with fresh labelled nulls in the columns its scheme
    does not mention.
    """
    target = universe if universe is not None else database.universe
    target = as_attribute_set(target)
    if not database.universe <= target:
        raise ConsistencyError("the tableau universe must contain every database attribute")
    tableau = Tableau(target)
    for relation in database.relations:
        for row in relation.sorted_rows():
            tableau.add_row({a: row[a] for a in relation.attributes})
    return tableau


def chase_fds(tableau: Tableau, fds: Sequence[FunctionalDependency]) -> ChaseResult:
    """Chase ``tableau`` with ``fds`` until fixpoint or a constant clash.

    The chase repeatedly looks for two rows that agree (as equivalence
    classes) on the left-hand side of some FD but not on its right-hand side,
    and equates the right-hand-side values.  It terminates because every
    successful step strictly decreases the number of value classes.
    """
    fd_list = list(fds)
    steps = 0
    changed = True
    while changed:
        changed = False
        for fd in fd_list:
            n = tableau.row_count
            # Group rows by their current lhs value classes.
            groups: dict[tuple[TableauValue, ...], int] = {}
            for i in range(n):
                key = tuple(tableau.value(i, a) for a in fd.lhs)
                if key in groups:
                    j = groups[key]
                    for b in fd.rhs:
                        left = tableau.value(i, b)
                        right = tableau.value(j, b)
                        if left != right:
                            if not tableau.equate(left, right):
                                return ChaseResult(False, tableau, steps, violation=fd)
                            steps += 1
                            changed = True
                else:
                    groups[key] = i
    return ChaseResult(True, tableau, steps)


def chase_database(database: Database, fds: Sequence[FunctionalDependency]) -> ChaseResult:
    """Convenience: build the representative instance of ``database`` and chase it."""
    universe = database.universe
    extra = AttributeSet(
        a for fd in fds for a in fd.attributes if a not in universe
    )
    tableau = representative_instance(database, universe | extra)
    return chase_fds(tableau, fds)
