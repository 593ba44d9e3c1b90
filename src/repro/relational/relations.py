"""Relations: sets of tuples over a relation scheme (paper §2.1).

A relation ``r`` over ``U`` is a set of tuples over ``U``.  The paper allows
both finite and infinite relations; this implementation handles finite
relations (every construction in the paper that needs an infinite relation —
the compactness argument of Theorem 4 — is reproduced through its finite
approximations, see :mod:`repro.graphs.families`).

:class:`Relation` is immutable; all the relational-algebra operations return
new relations.  The operations themselves live in
:mod:`repro.relational.algebra`; the methods here are thin conveniences that
delegate to them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, Callable, Union

from repro.errors import SchemaError
from repro.relational.attributes import Attribute, AttributeSet, Symbol, as_attribute_set
from repro.relational.schema import RelationScheme
from repro.relational.tuples import Row, row_from_string

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.dependencies.pd import PartitionDependency
    from repro.relational.functional_dependencies import FunctionalDependency


class Relation:
    """An immutable finite relation: a scheme plus a frozenset of rows.

    Every row must be defined on exactly the attributes of the scheme.
    """

    __slots__ = ("_scheme", "_rows")

    def __init__(self, scheme: RelationScheme, rows: Iterable[Row] = ()) -> None:
        if not isinstance(scheme, RelationScheme):
            raise SchemaError(f"expected RelationScheme, got {scheme!r}")
        frozen = frozenset(rows)
        for row in frozen:
            if not isinstance(row, Row):
                raise SchemaError(f"expected Row, got {row!r}")
            if row.attributes != scheme.attributes:
                raise SchemaError(
                    f"row over {row.attributes.sorted()} does not match scheme {scheme}"
                )
        self._scheme = scheme
        self._rows = frozen

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        name: str,
        attributes: Union[str, Iterable[Attribute]],
        rows: Iterable[Union[Row, dict[Attribute, Symbol]]],
    ) -> "Relation":
        """Build a relation from raw row data.

        ``rows`` may contain :class:`Row` instances or plain dictionaries.
        """
        scheme = RelationScheme(name, attributes)
        built = [row if isinstance(row, Row) else Row(row) for row in rows]
        return cls(scheme, built)

    @classmethod
    def from_strings(
        cls,
        name: str,
        attributes: Union[str, Iterable[Attribute]],
        compact_rows: Iterable[str],
        sep: str = ".",
    ) -> "Relation":
        """Build a relation from the paper's compact ``a.b.c`` tuple notation.

        The symbols in each compact row are assigned to the attributes in
        sorted attribute order, matching :func:`row_from_string`.
        """
        scheme = RelationScheme(name, attributes)
        built = [row_from_string(scheme.attributes, compact, sep=sep) for compact in compact_rows]
        return cls(scheme, built)

    # -- basic accessors ----------------------------------------------------
    @property
    def scheme(self) -> RelationScheme:
        """The relation scheme ``R[U]``."""
        return self._scheme

    @property
    def name(self) -> str:
        """The relation name ``R``."""
        return self._scheme.name

    @property
    def attributes(self) -> AttributeSet:
        """The attribute set ``U`` of the scheme."""
        return self._scheme.attributes

    @property
    def rows(self) -> frozenset[Row]:
        """The set of tuples of this relation."""
        return self._rows

    def sorted_rows(self) -> list[Row]:
        """The rows in a deterministic (sorted) order, for display and hashing-free iteration."""
        return sorted(self._rows, key=Row.sort_key)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.sorted_rows())

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._scheme == other._scheme and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._scheme, self._rows))

    # -- column access ------------------------------------------------------
    def column(self, attribute: Attribute) -> frozenset[Symbol]:
        """The set of symbols appearing in the column headed by ``attribute``."""
        if attribute not in self._scheme.attributes:
            raise SchemaError(f"relation {self.name!r} has no attribute {attribute!r}")
        return frozenset(row[attribute] for row in self._rows)

    def active_domain(self) -> frozenset[Symbol]:
        """All symbols appearing anywhere in the relation."""
        return frozenset(symbol for row in self._rows for symbol in row.values())

    # -- relational algebra (delegating to repro.relational.algebra) ---------
    def project(self, attributes: Union[str, AttributeSet], name: str | None = None) -> "Relation":
        """The projection ``r[X]`` of this relation on ``X ⊆ U``."""
        from repro.relational import algebra

        return algebra.project(self, as_attribute_set(attributes), name=name)

    def select(self, predicate: Callable[[Row], bool], name: str | None = None) -> "Relation":
        """Selection: the sub-relation of rows satisfying ``predicate``."""
        from repro.relational import algebra

        return algebra.select(self, predicate, name=name)

    def rename_relation(self, new_name: str) -> "Relation":
        """The same relation under a different relation name."""
        return Relation(self._scheme.rename(new_name), self._rows)

    def rename_attributes(self, mapping: dict[Attribute, Attribute], name: str | None = None) -> "Relation":
        """Rename attributes according to ``mapping`` (attributes not mentioned stay)."""
        from repro.relational import algebra

        return algebra.rename(self, mapping, name=name)

    def union(self, other: "Relation", name: str | None = None) -> "Relation":
        """Set union of two relations over the same attributes."""
        from repro.relational import algebra

        return algebra.union(self, other, name=name)

    def difference(self, other: "Relation", name: str | None = None) -> "Relation":
        """Set difference of two relations over the same attributes."""
        from repro.relational import algebra

        return algebra.difference(self, other, name=name)

    def intersection(self, other: "Relation", name: str | None = None) -> "Relation":
        """Set intersection of two relations over the same attributes."""
        from repro.relational import algebra

        return algebra.intersection(self, other, name=name)

    def product(self, other: "Relation", name: str | None = None) -> "Relation":
        """Cartesian product (schemes must have disjoint attributes)."""
        from repro.relational import algebra

        return algebra.cartesian_product(self, other, name=name)

    def natural_join(self, other: "Relation", name: str | None = None) -> "Relation":
        """Natural join on the shared attributes."""
        from repro.relational import algebra

        return algebra.natural_join(self, other, name=name)

    # -- dependency satisfaction ---------------------------------------------
    def satisfies_fd(self, fd: "FunctionalDependency") -> bool:
        """True iff this relation satisfies the functional dependency ``fd``."""
        return fd.is_satisfied_by(self)

    def satisfies_pd(self, pd: "PartitionDependency") -> bool:
        """True iff this relation satisfies the partition dependency ``pd``.

        Satisfaction is via the canonical interpretation ``I(r)``
        (Definition 7 of the paper); see
        :func:`repro.dependencies.satisfaction.relation_satisfies_pd`.
        """
        from repro.dependencies.satisfaction import relation_satisfies_pd

        return relation_satisfies_pd(self, pd)

    # -- display --------------------------------------------------------------
    def to_table(self) -> str:
        """Render the relation as a fixed-width text table (attributes sorted)."""
        attrs = self.attributes.sorted()
        rows = [[row[a] for a in attrs] for row in self.sorted_rows()]
        widths = [
            max(len(a), *(len(r[i]) for r in rows)) if rows else len(a)
            for i, a in enumerate(attrs)
        ]
        header = "  ".join(a.ljust(w) for a, w in zip(attrs, widths))
        lines = [f"{self.name}:", header, "  ".join("-" * w for w in widths)]
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Relation({self._scheme!r}, {len(self._rows)} rows)"

    def __str__(self) -> str:
        return self.to_table()
