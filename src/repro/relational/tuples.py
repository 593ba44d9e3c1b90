"""Tuples (rows) over a set of attributes (paper §2.1).

A *tuple over U* is a function from the attribute set ``U`` to the symbol
universe ``D``.  We model it as :class:`Row`, an immutable mapping from
attribute names to symbols.  The name ``Row`` avoids colliding with Python's
built-in :class:`tuple`.

The paper writes a tuple ``t`` over ``{A1, ..., Ak}`` with ``t[Ai] = ai`` as
the string ``a1 a2 ... ak`` and the restriction of ``t`` to ``X ⊆ U`` as
``t[X]``.  Both notations have direct counterparts here: :meth:`Row.values_on`
and :meth:`Row.restrict`.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Union

from repro.errors import SchemaError
from repro.relational.attributes import (
    Attribute,
    AttributeSet,
    Symbol,
    as_attribute_set,
    validate_attribute,
    validate_symbol,
)


class Row(Mapping[Attribute, Symbol]):
    """An immutable tuple: a total function from attributes to symbols.

    ``Row`` is hashable and compares structurally, so relations can be plain
    (frozen)sets of rows — exactly the paper's "a relation r over U is a set
    of tuples over U".

    Construct from a mapping or from keyword arguments::

        >>> Row({"A": "a1", "B": "b1"}) == Row(A="a1", B="b1")
        True
    """

    __slots__ = ("_cells", "_hash")

    def __init__(self, cells: Mapping[Attribute, Symbol] | None = None, **kwargs: Symbol) -> None:
        merged: dict[Attribute, Symbol] = {}
        if cells is not None:
            merged.update(cells)
        merged.update(kwargs)
        if not merged:
            raise SchemaError("a tuple must assign at least one attribute")
        validated = {
            validate_attribute(attribute): validate_symbol(symbol)
            for attribute, symbol in merged.items()
        }
        object.__setattr__(self, "_cells", dict(sorted(validated.items())))
        object.__setattr__(self, "_hash", hash(tuple(self._cells.items())))

    # -- Mapping protocol ---------------------------------------------------
    def __getitem__(self, attribute: Attribute) -> Symbol:
        try:
            return self._cells[attribute]
        except KeyError as exc:
            raise SchemaError(
                f"tuple over {sorted(self._cells)} has no attribute {attribute!r}"
            ) from exc

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._cells == other._cells
        if isinstance(other, Mapping):
            return dict(self._cells) == dict(other)
        return NotImplemented

    # -- paper operations ---------------------------------------------------
    @property
    def attributes(self) -> AttributeSet:
        """The attribute set ``U`` this tuple is defined over."""
        return AttributeSet(self._cells)

    def restrict(self, attributes: Union[str, AttributeSet]) -> "Row":
        """The restriction ``t[X]`` of this tuple to ``X ⊆ U``.

        Raises :class:`SchemaError` if ``X`` is not a subset of the tuple's
        attributes or is empty.
        """
        target = as_attribute_set(attributes)
        missing = target - self.attributes
        if missing:
            raise SchemaError(f"cannot restrict tuple to missing attributes {sorted(missing)}")
        if not target:
            raise SchemaError("cannot restrict a tuple to the empty attribute set")
        return Row({a: self._cells[a] for a in target})

    def values_on(self, attributes: Union[str, AttributeSet]) -> tuple[Symbol, ...]:
        """The symbols of this tuple on ``attributes``, in sorted attribute order.

        This is the hashable "projection key" used when comparing tuples on a
        set of attributes (e.g. for FD satisfaction: ``t[X] = h[X]``).
        """
        target = as_attribute_set(attributes)
        missing = target - self.attributes
        if missing:
            raise SchemaError(f"tuple has no attributes {sorted(missing)}")
        return tuple(self._cells[a] for a in target)

    def sort_key(self) -> tuple[Symbol, ...]:
        """All symbols in sorted attribute order: :meth:`values_on` over the row's own attributes."""
        return tuple(self._cells.values())

    def agrees_with(self, other: "Row", attributes: Union[str, AttributeSet]) -> bool:
        """True iff this tuple and ``other`` coincide on every attribute in ``attributes``."""
        target = as_attribute_set(attributes)
        return self.values_on(target) == other.values_on(target)

    def merge(self, other: "Row") -> "Row":
        """Combine two joinable tuples into one (used by the natural join).

        Raises :class:`SchemaError` if the two tuples disagree on a shared
        attribute.
        """
        shared = self.attributes & other.attributes
        if shared and not self.agrees_with(other, shared):
            raise SchemaError("cannot merge tuples that disagree on shared attributes")
        cells = dict(self._cells)
        cells.update(other._cells)
        return Row(cells)

    def replace(self, **assignments: Symbol) -> "Row":
        """Return a copy of this tuple with some cells replaced."""
        cells = dict(self._cells)
        for attribute, symbol in assignments.items():
            if attribute not in cells:
                raise SchemaError(f"tuple has no attribute {attribute!r}")
            cells[attribute] = validate_symbol(symbol)
        return Row(cells)

    def __repr__(self) -> str:
        inside = ", ".join(f"{a}={v!r}" for a, v in self._cells.items())
        return f"Row({inside})"

    def __str__(self) -> str:
        return ".".join(self._cells[a] for a in self._cells)


def row_from_string(attributes: Union[str, AttributeSet], compact: str, sep: str = ".") -> Row:
    """Build a :class:`Row` from the paper's compact ``a.b.c`` notation.

    ``attributes`` gives the attribute order; ``compact`` is the separated
    list of symbols.  For example ``row_from_string("ABC", "1.2.0")`` is the
    tuple with ``A=1, B=2, C=0`` (the notation used in the proof of
    Theorem 4).
    """
    attrs = as_attribute_set(attributes).sorted()
    symbols = compact.split(sep)
    if len(symbols) != len(attrs):
        raise SchemaError(
            f"compact tuple {compact!r} has {len(symbols)} symbols for {len(attrs)} attributes"
        )
    return Row(dict(zip(attrs, symbols)))
