"""Partition expressions: the term language over attributes, ``*`` and ``+`` (paper §3.1).

A *partition expression* over an attribute universe is built inductively:
every attribute is a partition expression, and if ``e, e'`` are partition
expressions then so are ``(e * e')`` and ``(e + e')``.  The paper calls the
set of these expressions ``W(U)`` — they are exactly the ground lattice terms
over the generators ``U``.

The AST here is deliberately *syntactic*: ``A * B`` and ``B * A`` are
different expressions (they are different strings), even though every lattice
— and hence every partition interpretation — gives them the same meaning.
Semantic identifications are the business of the implication engine
(:mod:`repro.implication`), which is exactly the paper's point.

The three node types are immutable and **hash-consed**: constructing a node
returns the unique interned object for that syntax tree, so structural
equality coincides with object identity (``Attr("A") * Attr("B") is
parse_expression("A*B")``).  The nodes therefore define no ``__eq__`` or
``__hash__`` of their own: they inherit ``object``'s identity equality and
hash, which run in C, so every dict and set operation of the algorithms
downstream — the ALG digraph of §5.2, the rewrite explorer, the identity
checker, the quotient construction — is a pointer comparison.  Identity
hashes change with the allocation history, so no output may depend on the
iteration order of a set of expressions.

Every node caches its complexity, size and dual, computed once at interning
time, and fills three more slots on first use (an eager render would cost
O(term size) memory per node of a shared DAG):

* ``_attributes`` — the attribute set, derived on the first ``attributes()``
  call (most nodes are never asked, and a union re-validates every name).
* ``_str`` — the fully parenthesized ``__str__`` form.  The quotient pipeline
  sorts pools by ``(size, str)``, so repeated rendering is a hot path.
* ``_infix`` — the minimal-parenthesis form of
  :func:`repro.expressions.printer.to_infix`, which the service's wire,
  planner and cache keys print over and over for the same interned nodes.
  It is kept apart from ``_str`` because the two differ (``(A * B) + C``
  against ``A * B + C``) and the wire bytes are fixed to ``to_infix``.

``Attr`` sets all three at construction (they are its name); binary nodes
start with ``None`` in each.

Interning uses per-class :class:`weakref.WeakValueDictionary` tables, so
expression nodes are reclaimed once nothing outside the tables references
them; pickling round-trips through the constructors (``__reduce__``) and
therefore re-interns on load.  The tables are not locked: like the rest of
the library, expression construction assumes a single mutating thread.
"""

from __future__ import annotations

import os
import weakref
from collections.abc import Iterable, Iterator
from functools import reduce
from typing import ClassVar, Union

from repro.errors import ExpressionError
from repro.relational.attributes import Attribute, AttributeSet, as_attribute_set


class PartitionExpression:
    """Abstract base class of partition-expression AST nodes.

    Supports the operators ``*`` and ``+`` so expressions can be written
    naturally in Python::

        >>> A, B, C = attrs("A", "B", "C")
        >>> str(C == A + B)    # doctest: +SKIP
        >>> expr = (A * B) + C
    """

    __slots__ = (
        "_attributes",
        "_complexity",
        "_size",
        "_dual",
        "_is_product_of_attributes",
        "_str",
        "_infix",
        "__weakref__",
    )

    # -- operator sugar -------------------------------------------------------
    def __mul__(self, other: "PartitionExpression") -> "Product":
        if not isinstance(other, PartitionExpression):
            raise ExpressionError(f"cannot multiply a partition expression with {other!r}")
        return Product(self, other)

    def __add__(self, other: "PartitionExpression") -> "Sum":
        if not isinstance(other, PartitionExpression):
            raise ExpressionError(f"cannot add a partition expression and {other!r}")
        return Sum(self, other)

    # -- structural queries ----------------------------------------------------
    def attributes(self) -> AttributeSet:
        """The set of attributes occurring in the expression (cached, shared)."""
        result = self._attributes
        if result is None:
            result = self._attributes = self._left.attributes() | self._right.attributes()
        return result

    def subexpressions(self) -> Iterator["PartitionExpression"]:
        """All subexpressions (including the expression itself), no duplicates."""
        raise NotImplementedError

    def complexity(self) -> int:
        """The number of operator (``*`` or ``+``) occurrences.

        This is the complexity measure used in the finite-model argument of
        Theorem 8 (the sublattice ``L_H`` is generated by expressions of
        bounded complexity).
        """
        return self._complexity

    def size(self) -> int:
        """Total number of AST nodes (attributes + operators)."""
        return self._size

    def dual(self) -> "PartitionExpression":
        """The dual expression: swap ``*`` and ``+`` throughout.

        Lattice duality (used when relating ``X = X·Y`` and ``Y = Y + X``,
        §3.2) exchanges products and sums.  The dual is computed once and the
        two interned nodes cache each other (duality is an involution).
        """
        raise NotImplementedError

    def is_product_of_attributes(self) -> bool:
        """True iff the expression uses only ``*`` (it denotes a relation scheme)."""
        return self._is_product_of_attributes

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


class Attr(PartitionExpression):
    """A single attribute used as a partition expression (interned by name)."""

    __slots__ = ("_name",)

    _intern: ClassVar["weakref.WeakValueDictionary[str, Attr]"] = weakref.WeakValueDictionary()

    def __new__(cls, name: Attribute) -> "Attr":
        if not isinstance(name, str) or not name:
            raise ExpressionError(f"attribute name must be a non-empty string, got {name!r}")
        cached = cls._intern.get(name)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self._name = name
        self._attributes = AttributeSet([name])
        self._complexity = 0
        self._size = 1
        self._dual = self
        self._is_product_of_attributes = True
        self._str = name
        self._infix = name
        cls._intern[name] = self
        return self

    @property
    def name(self) -> Attribute:
        """The attribute name."""
        return self._name

    def subexpressions(self) -> Iterator[PartitionExpression]:
        yield self

    def dual(self) -> "Attr":
        return self

    def __reduce__(self):
        return (Attr, (self._name,))

    def __repr__(self) -> str:
        return f"Attr({self._name!r})"

    def __str__(self) -> str:
        return self._str


class _Binary(PartitionExpression):
    """Shared implementation of the two binary nodes (interned by operand pair)."""

    __slots__ = ("_left", "_right")
    _symbol = "?"
    _intern: ClassVar[weakref.WeakValueDictionary]

    def __new__(cls, left: PartitionExpression, right: PartitionExpression) -> "_Binary":
        if not isinstance(left, PartitionExpression) or not isinstance(right, PartitionExpression):
            raise ExpressionError("operands of a partition expression must be partition expressions")
        key = (left, right)
        cached = cls._intern.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self._left = left
        self._right = right
        self._attributes = None
        self._complexity = 1 + left._complexity + right._complexity
        self._size = 1 + left._size + right._size
        self._dual = None
        self._is_product_of_attributes = (
            cls is Product and left._is_product_of_attributes and right._is_product_of_attributes
        )
        self._str = None
        self._infix = None
        cls._intern[key] = self
        return self

    @property
    def left(self) -> PartitionExpression:
        """The left operand."""
        return self._left

    @property
    def right(self) -> PartitionExpression:
        """The right operand."""
        return self._right

    def subexpressions(self) -> Iterator[PartitionExpression]:
        seen: set[PartitionExpression] = set()
        stack: list[PartitionExpression] = [self]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            yield node
            if isinstance(node, _Binary):
                stack.append(node._left)
                stack.append(node._right)

    def dual(self) -> "PartitionExpression":
        result = self._dual
        if result is None:
            dual_cls = Sum if type(self) is Product else Product
            result = dual_cls(self._left.dual(), self._right.dual())
            self._dual = result
            if result._dual is None:
                result._dual = self
        return result

    def __reduce__(self):
        return (type(self), (self._left, self._right))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._left!r}, {self._right!r})"

    def __str__(self) -> str:
        rendered = self._str
        if rendered is None:
            rendered = f"({self._left} {self._symbol} {self._right})"
            self._str = rendered
        return rendered


class Product(_Binary):
    """The partition product ``(e * e')`` — coarsest common refinement."""

    __slots__ = ()
    _symbol = "*"
    _intern: ClassVar["weakref.WeakValueDictionary"] = weakref.WeakValueDictionary()


class Sum(_Binary):
    """The partition sum ``(e + e')`` — finest common generalization."""

    __slots__ = ()
    _symbol = "+"
    _intern: ClassVar["weakref.WeakValueDictionary"] = weakref.WeakValueDictionary()


def _rebuild_intern_tables_after_fork() -> None:
    """Rebuild the weak intern tables in a child forked from this process.

    ``fork`` copies the tables wholesale, including internal weakref
    bookkeeping (pending-removal lists, any mutation another thread had in
    flight at fork time).  The interned *nodes* themselves are immutable and
    fully initialized before publication, so they stay valid; only the
    tables' internal state can be torn.  Re-interning every live node into a
    fresh :class:`weakref.WeakValueDictionary` gives the child self-consistent
    tables while preserving the invariant that equal syntax trees are one
    object — children never operate on the parent's torn bookkeeping, and the
    parent's tables are untouched (they live in another address space).
    Multiprocessing workers (the service's shard executor) rely on this.
    """
    for node_class in (Attr, Product, Sum):
        fresh: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
        for key, node in list(node_class._intern.items()):
            fresh[key] = node
        node_class._intern = fresh


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX in CI and production
    os.register_at_fork(after_in_child=_rebuild_intern_tables_after_fork)


def interned_counts() -> dict[str, int]:
    """The number of live interned nodes per node type (diagnostics/tests)."""
    return {
        "Attr": len(Attr._intern),
        "Product": len(Product._intern),
        "Sum": len(Sum._intern),
    }


# -- constructors --------------------------------------------------------------

ExpressionLike = Union[PartitionExpression, str]


def attr(name: Attribute) -> Attr:
    """Shorthand constructor for an attribute expression."""
    return Attr(name)


def attrs(*names: Attribute) -> tuple[Attr, ...]:
    """Several attribute expressions at once: ``A, B = attrs("A", "B")``."""
    return tuple(Attr(name) for name in names)


def as_expression(value: ExpressionLike) -> PartitionExpression:
    """Coerce a value to a partition expression.

    Strings are parsed with :func:`repro.expressions.parser.parse_expression`.
    """
    if isinstance(value, PartitionExpression):
        return value
    if isinstance(value, str):
        from repro.expressions.parser import parse_expression

        return parse_expression(value)
    raise ExpressionError(f"cannot interpret {value!r} as a partition expression")


def product_of(operands: Iterable[ExpressionLike]) -> PartitionExpression:
    """Left-associated product of one or more expressions.

    ``product_of("ABC")`` (or of ``["A", "B", "C"]``) builds ``(A * B) * C`` —
    the paper's convention of writing an attribute set ``U`` for the product
    of its attributes (the meaning of the relation scheme ``R[U]``).
    """
    expressions = _operand_list(operands)
    return reduce(lambda acc, e: Product(acc, e), expressions[1:], expressions[0])


def sum_of(operands: Iterable[ExpressionLike]) -> PartitionExpression:
    """Left-associated sum of one or more expressions."""
    expressions = _operand_list(operands)
    return reduce(lambda acc, e: Sum(acc, e), expressions[1:], expressions[0])


def attribute_set_expression(attributes: Union[str, AttributeSet]) -> PartitionExpression:
    """The expression ``A1 * A2 * ... * Ak`` for an attribute set ``{A1,...,Ak}``.

    Attributes are taken in sorted order so the construction is deterministic;
    by commutativity this does not change the meaning in any interpretation.
    """
    attr_set = as_attribute_set(attributes)
    if not attr_set:
        raise ExpressionError("cannot build an expression from the empty attribute set")
    return product_of(Attr(a) for a in attr_set.sorted())


def _operand_list(operands: Iterable[ExpressionLike]) -> list[PartitionExpression]:
    if isinstance(operands, str):
        items: list[ExpressionLike] = list(operands)
    else:
        items = list(operands)
    if not items:
        raise ExpressionError("need at least one operand")
    result = []
    for item in items:
        if isinstance(item, str) and len(item) >= 1 and not any(ch in item for ch in "*+() "):
            result.append(Attr(item))
        else:
            result.append(as_expression(item))
    return result


def all_subexpressions(expressions: Iterable[PartitionExpression]) -> set[PartitionExpression]:
    """The union of the subexpression sets of several expressions.

    This is the vertex set ``V`` of the ALG digraph (§5.2).
    """
    result: set[PartitionExpression] = set()
    for expression in expressions:
        result.update(expression.subexpressions())
    return result
