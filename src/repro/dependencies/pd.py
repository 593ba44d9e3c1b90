"""Partition dependencies (PDs): equations between partition expressions (Definition 3, §3.2).

A PD is an equation ``e = e'`` between two partition expressions.  A
partition interpretation satisfies it when the meanings of the two sides are
the same partition over the same population; a *relation* satisfies it when
its canonical interpretation does (Definition 7, implemented in
:mod:`repro.dependencies.satisfaction`).

PDs subsume FDs (via functional partition dependencies, see
:mod:`repro.dependencies.fpd`) and can additionally express connectivity
conditions such as ``C = A + B`` (Example e / Theorem 4).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Union

from repro.errors import DependencyError
from repro.expressions.ast import ExpressionLike, PartitionExpression, Product, as_expression
from repro.expressions.parser import memoized_parse
from repro.expressions.printer import to_infix
from repro.relational.attributes import AttributeSet


class PartitionDependency:
    """An equation ``left = right`` between partition expressions.

    The text ``str(pd)`` (the wire form ``"lhs = rhs"``) is rendered once and
    kept in the ``_text`` slot.
    """

    __slots__ = ("_left", "_right", "_text")

    def __init__(self, left: ExpressionLike, right: ExpressionLike) -> None:
        self._left = as_expression(left)
        self._right = as_expression(right)
        self._text = None

    @classmethod
    def parse(cls, text: str) -> "PartitionDependency":
        """Parse ``"e = e'"``, the FPD order notation ``"X <= Y"``, or ``"X ≤ Y"``.

        ``X <= Y`` abbreviates the PD ``X = X * Y`` (equivalently
        ``Y = Y + X``), following §3.2 of the paper.  Memoized by text
        (:func:`~repro.expressions.parser.memoized_parse`); PDs are immutable,
        so callers share the returned object.
        """
        return memoized_parse(cls._parse_text, text)

    @classmethod
    def _parse_text(cls, text: str) -> "PartitionDependency":
        normalized = text.replace("≤", "<=")
        if "<=" in normalized:
            left_text, right_text = normalized.split("<=", 1)
            left = as_expression(left_text.strip())
            right = as_expression(right_text.strip())
            return cls(left, Product(left, right))
        if "=" not in normalized:
            raise DependencyError(f"cannot parse PD from {text!r}: missing '=' or '<='")
        left_text, right_text = normalized.split("=", 1)
        if not left_text.strip() or not right_text.strip():
            raise DependencyError(f"cannot parse PD from {text!r}: empty side")
        return cls(left_text.strip(), right_text.strip())

    @property
    def left(self) -> PartitionExpression:
        """The left-hand expression ``e``."""
        return self._left

    @property
    def right(self) -> PartitionExpression:
        """The right-hand expression ``e'``."""
        return self._right

    @property
    def attributes(self) -> AttributeSet:
        """All attributes mentioned on either side."""
        return self._left.attributes() | self._right.attributes()

    def reversed(self) -> "PartitionDependency":
        """The same equation with the sides swapped (identical semantics)."""
        return PartitionDependency(self._right, self._left)

    def dual(self) -> "PartitionDependency":
        """The dual PD: swap ``*`` and ``+`` on both sides."""
        return PartitionDependency(self._left.dual(), self._right.dual())

    def complexity(self) -> int:
        """Total operator count of both sides (the measure used in Theorem 8)."""
        return self._left.complexity() + self._right.complexity()

    def size(self) -> int:
        """Total AST size of both sides."""
        return self._left.size() + self._right.size()

    def is_functional(self) -> bool:
        """True iff this PD has the shape of an FPD ``X = X·Y`` for attribute sets X, Y."""
        from repro.dependencies.fpd import FunctionalPartitionDependency

        return FunctionalPartitionDependency.try_from_pd(self) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionDependency):
            return NotImplemented
        return self._left == other._left and self._right == other._right

    def __hash__(self) -> int:
        return hash((self._left, self._right))

    def __reduce__(self):
        return (type(self), (self._left, self._right))

    def __repr__(self) -> str:
        return f"PartitionDependency({to_infix(self._left)!r}, {to_infix(self._right)!r})"

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = f"{to_infix(self._left)} = {to_infix(self._right)}"
            self._text = text
        return text


#: Things accepted wherever a PD is expected: a PD, a string like ``"A = A*B"``,
#: or a pair of expressions.
PartitionDependencyLike = Union[PartitionDependency, str, tuple]


def as_partition_dependency(value: PartitionDependencyLike) -> PartitionDependency:
    """Coerce a value to a :class:`PartitionDependency`."""
    if isinstance(value, PartitionDependency):
        return value
    if isinstance(value, str):
        return PartitionDependency.parse(value)
    if isinstance(value, tuple) and len(value) == 2:
        return PartitionDependency(value[0], value[1])
    raise DependencyError(f"cannot interpret {value!r} as a partition dependency")


def parse_pd_set(texts: Iterable[str]) -> list[PartitionDependency]:
    """Parse several PDs given as strings."""
    return [PartitionDependency.parse(text) for text in texts]


def lattice_axiom_instances(
    x: ExpressionLike, y: ExpressionLike, z: ExpressionLike
) -> list[PartitionDependency]:
    """The eight lattice-axiom PDs (LA of §2.2) instantiated at three expressions.

    Every partition interpretation satisfies all of them (§3.2); the property
    tests check this and the identity checker recognizes them with ``E = ∅``.
    """
    a, b, c = as_expression(x), as_expression(y), as_expression(z)
    return [
        PartitionDependency((a * b) * c, a * (b * c)),
        PartitionDependency((a + b) + c, a + (b + c)),
        PartitionDependency(a * b, b * a),
        PartitionDependency(a + b, b + a),
        PartitionDependency(a * a, a),
        PartitionDependency(a + a, a),
        PartitionDependency(a + (a * b), a),
        PartitionDependency(a * (a + b), a),
    ]
