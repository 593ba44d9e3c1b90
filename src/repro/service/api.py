"""The typed convenience surface: request factories and typed answers.

The wire layer is deliberately uniform — every query is a
:class:`~repro.service.wire.QueryRequest`, every answer a
:class:`~repro.service.wire.QueryResult` with a kind-specific ``value``
dict.  That is right for streams and transports, and wrong for a Python
caller, who ends up hand-assembling request dataclasses and string-indexing
result dicts.  This module is the thin typed shim over the same machinery:

* **request factories** (:func:`implies_request`, :func:`equivalent_request`,
  :func:`consistent_request`, :func:`quotient_request`,
  :func:`counterexample_request`) build the canonical
  :class:`~repro.service.wire.QueryRequest` from natural inputs —
  expressions and PDs as objects *or* as the wire's string syntax,
  databases as objects or wire payload dicts;
* **typed answers** (:class:`ImplicationAnswer` & co.) wrap each kind's
  ``value`` dict in a frozen dataclass; the boolean-flavoured ones coerce
  with ``bool()``.  ``cached`` carries the session cache flag through.
* failures raise :class:`~repro.errors.QueryFailedError` instead of coming
  back as ``ok=false`` results — a Python caller wants an exception, a
  stream wants a structured line; the same machinery serves both.

:class:`~repro.service.session.Session` exposes these as methods
(``session.implies(...)``, ``session.equivalent(...)``, ...); ``execute`` /
``execute_many`` remain the uniform batch core underneath, so typed calls
share the session's caches, planner and byte-identity guarantees.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional, Union

from repro.dependencies.pd import PartitionDependency, PartitionDependencyLike, as_partition_dependency
from repro.errors import QueryFailedError, QueryTimeoutError, ServiceError
from repro.expressions.ast import PartitionExpression
from repro.expressions.parser import parse_expression
from repro.relational.database import Database
from repro.service.wire import QueryRequest, QueryResult, check_operators, decode_database

ExpressionLike = Union[PartitionExpression, str]
DatabaseLike = Union[Database, dict]

__all__ = [
    "ImplicationAnswer",
    "EquivalenceAnswer",
    "ConsistencyAnswer",
    "QuotientAnswer",
    "CounterexampleAnswer",
    "implies_request",
    "equivalent_request",
    "consistent_request",
    "quotient_request",
    "counterexample_request",
    "answer_for",
]


# -- input coercion ---------------------------------------------------------------


def as_expression(value: ExpressionLike) -> PartitionExpression:
    """An expression object from either an AST node or the wire's infix syntax,
    held to the wire's operator bound."""
    expression = value
    if isinstance(value, str):
        try:
            expression = parse_expression(value)
        except Exception as exc:
            raise ServiceError(f"cannot parse expression {value!r}: {exc}") from None
    check_operators(expression)
    return expression


def _as_pd(value: PartitionDependencyLike) -> PartitionDependency:
    try:
        pd = as_partition_dependency(value)
    except Exception as exc:
        raise ServiceError(f"cannot parse dependency {value!r}: {exc}") from None
    check_operators(pd.left, pd.right)
    return pd


def _as_dependencies(
    dependencies: Optional[Iterable[PartitionDependencyLike]],
) -> Optional[tuple[PartitionDependency, ...]]:
    if dependencies is None:
        return None
    return tuple(_as_pd(pd) for pd in dependencies)


def _as_database(value: DatabaseLike) -> Database:
    if isinstance(value, dict):
        return decode_database(value)
    return value


# -- request factories ------------------------------------------------------------


def implies_request(
    query: PartitionDependencyLike,
    rhs: Optional[ExpressionLike] = None,
    *,
    dependencies: Optional[Iterable[PartitionDependencyLike]] = None,
    deadline_ms: Optional[int] = None,
    id: Optional[str] = None,
    tenant: Optional[str] = None,
) -> QueryRequest:
    """An ``implies`` request: does Γ imply the PD ``query`` (or ``query = rhs``)?

    Two call shapes: ``implies_request(pd)`` with a whole PD (object or
    ``"lhs = rhs"`` string), or ``implies_request(lhs, rhs)`` with the two
    expression sides.
    """
    if rhs is not None:
        pd = PartitionDependency(as_expression(query), as_expression(rhs))  # type: ignore[arg-type]
    else:
        pd = _as_pd(query)
    return QueryRequest(
        kind="implies",
        id=id,
        tenant=tenant,
        dependencies=_as_dependencies(dependencies),
        query=pd,
        deadline_ms=deadline_ms,
    )


def equivalent_request(
    left: ExpressionLike,
    right: ExpressionLike,
    *,
    dependencies: Optional[Iterable[PartitionDependencyLike]] = None,
    deadline_ms: Optional[int] = None,
    id: Optional[str] = None,
    tenant: Optional[str] = None,
) -> QueryRequest:
    """An ``equivalent`` request: are the two expressions Γ-equivalent?"""
    return QueryRequest(
        kind="equivalent",
        id=id,
        tenant=tenant,
        dependencies=_as_dependencies(dependencies),
        left=as_expression(left),
        right=as_expression(right),
        deadline_ms=deadline_ms,
    )


def consistent_request(
    database: DatabaseLike,
    *,
    method: str = "weak_instance",
    dependencies: Optional[Iterable[PartitionDependencyLike]] = None,
    max_nodes: Optional[int] = None,
    deadline_ms: Optional[int] = None,
    id: Optional[str] = None,
    tenant: Optional[str] = None,
) -> QueryRequest:
    """A ``consistent`` request over a database (object or wire payload dict)."""
    return QueryRequest(
        kind="consistent",
        id=id,
        tenant=tenant,
        dependencies=_as_dependencies(dependencies),
        database=_as_database(database),
        method=method,
        max_nodes=max_nodes,
        deadline_ms=deadline_ms,
    )


def quotient_request(
    expressions: Iterable[ExpressionLike],
    *,
    dependencies: Optional[Iterable[PartitionDependencyLike]] = None,
    deadline_ms: Optional[int] = None,
    id: Optional[str] = None,
    tenant: Optional[str] = None,
) -> QueryRequest:
    """A ``quotient`` request over a pool of expressions."""
    return QueryRequest(
        kind="quotient",
        id=id,
        tenant=tenant,
        dependencies=_as_dependencies(dependencies),
        pool=tuple(as_expression(e) for e in expressions),
        deadline_ms=deadline_ms,
    )


def counterexample_request(
    query: PartitionDependencyLike,
    *,
    max_pool: int = 400,
    dependencies: Optional[Iterable[PartitionDependencyLike]] = None,
    deadline_ms: Optional[int] = None,
    id: Optional[str] = None,
    tenant: Optional[str] = None,
) -> QueryRequest:
    """A ``counterexample`` request: find a finite lattice refuting Γ ⊨ query."""
    return QueryRequest(
        kind="counterexample",
        id=id,
        tenant=tenant,
        dependencies=_as_dependencies(dependencies),
        query=_as_pd(query),
        max_pool=max_pool,
        deadline_ms=deadline_ms,
    )


# -- typed answers ----------------------------------------------------------------


@dataclass(frozen=True)
class ImplicationAnswer:
    """``implies`` / ``fd_implies``: truthy iff the dependency is implied."""

    implied: bool
    cached: bool = False

    def __bool__(self) -> bool:
        return self.implied


@dataclass(frozen=True)
class EquivalenceAnswer:
    """``equivalent``: truthy iff the two expressions are Γ-equivalent."""

    equivalent: bool
    cached: bool = False

    def __bool__(self) -> bool:
        return self.equivalent


@dataclass(frozen=True)
class ConsistencyAnswer:
    """``consistent``: verdict plus the method's own evidence counter."""

    consistent: bool
    method: str
    witness_rows: Optional[int] = None
    search_nodes: Optional[int] = None
    cached: bool = False

    def __bool__(self) -> bool:
        return self.consistent


@dataclass(frozen=True)
class QuotientAnswer:
    """``quotient``: congruence-class representatives and their partial order."""

    classes: tuple[str, ...]
    order: tuple[tuple[int, int], ...]
    cached: bool = False

    def __len__(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class CounterexampleAnswer:
    """``counterexample``: ``implied=True`` means no finite refutation exists."""

    implied: bool
    size: Optional[int] = None
    constants: tuple = ()
    cached: bool = False


def answer_for(result: QueryResult):
    """The typed answer for a wire result; raises on ``ok=false``.

    A ``Timeout`` error result (a blown ``deadline_ms`` budget) raises the
    more specific :class:`~repro.errors.QueryTimeoutError`.
    """
    if not result.ok:
        error = result.error or {}
        if error.get("type") == "Timeout":
            raise QueryTimeoutError(result.kind, error)
        raise QueryFailedError(result.kind, error)
    value = result.value or {}
    if result.kind in ("implies", "fd_implies"):
        return ImplicationAnswer(implied=value["implied"], cached=result.cached)
    if result.kind == "equivalent":
        return EquivalenceAnswer(equivalent=value["equivalent"], cached=result.cached)
    if result.kind == "consistent":
        return ConsistencyAnswer(
            consistent=value["consistent"],
            method=value["method"],
            witness_rows=value.get("witness_rows"),
            search_nodes=value.get("search_nodes"),
            cached=result.cached,
        )
    if result.kind == "quotient":
        return QuotientAnswer(
            classes=tuple(value["classes"]),
            order=tuple((i, j) for i, j in value["order"]),
            cached=result.cached,
        )
    if result.kind == "counterexample":
        return CounterexampleAnswer(
            implied=value["implied"],
            size=value.get("size"),
            constants=tuple(value.get("constants") or ()),
            cached=result.cached,
        )
    raise ServiceError(f"no typed answer for result kind {result.kind!r}")
