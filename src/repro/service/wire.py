"""Versioned, deterministic JSON codecs for the query service (the wire layer).

Every object a request or result carries — expressions, PDs (an FPD travels
as its ``"X <= Y"`` PD text), FDs, relations and databases, query requests
and query results — has an ``encode_*``/``decode_*`` pair here.  The codecs
obey two contracts that the rest of the service (and its tests) lean on:

* **Determinism** — encoding is a pure function of the object's *semantics*:
  attribute sets and relation rows are emitted sorted, JSON is serialized
  with sorted keys and no whitespace (:func:`canonical_dumps`).  Two equal
  objects encode to identical bytes, so encoded results can be compared with
  ``==`` across processes (the shard executor's ordering test and the CLI's
  byte-identical end-to-end check both do exactly that).
* **Round-tripping through the interned substrate** — decoding re-interns on
  the way in: expression and PD texts go through the parser's bounded text
  memo (:func:`repro.expressions.parser.memoized_parse`), so a text seen
  recently is not parsed again and ``decode(encode(e)) is e`` inside one
  process, by hash-consing; ``encode → decode → encode`` is byte-identical
  for every wire type (``tests/test_wire.py`` checks this on randomized
  inputs).  Encoding reads cached text: every interned node keeps its
  ``to_infix`` rendering and every PD its ``"lhs = rhs"`` line after the
  first render, so the result lines, the planner's and session's Γ keys
  (:func:`dependencies_key`) and the cache key (:func:`request_cache_key`)
  print each node once.

The envelope carries ``{"v": WIRE_VERSION}``, and :func:`decode_request` and
:func:`decode_result` accept exactly that version, given explicitly as an
integer.  A payload without ``"v"`` is refused, never silently assumed
current, and so is any other version: incompatible format changes bump
:data:`WIRE_VERSION`, and every producer of the format lives in this
package.  The optional request fields ``deadline_ms`` (a per-query
wall-clock budget), ``tenant`` (the keyspace a request reasons and caches
under) and ``trace`` (a caller-supplied trace id — metadata only, excluded
from cache keys and absent from results) are part of the current version.
Malformed payloads raise :class:`~repro.errors.ServiceError` — never
``KeyError``/``TypeError`` — so the CLI can turn them into structured error
results, and so does an expression with more than
:data:`MAX_EXPRESSION_OPERATORS` operators.

Expressions travel as their minimal-parenthesis infix rendering
(:func:`repro.expressions.printer.to_infix`), which the parser inverts
exactly; PDs travel as ``"lhs = rhs"`` over the same rendering.  This keeps
request files human-writable: ``{"v": 3, "kind": "implies", "dependencies":
["A = A * B"], "query": "A = A * B"}`` is a valid line of a JSONL stream.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.dependencies.pd import PartitionDependency
from repro.errors import ServiceError
from repro.expressions.ast import PartitionExpression
from repro.expressions.parser import parse_expression
from repro.expressions.printer import to_infix
from repro.relational.database import Database
from repro.relational.functional_dependencies import FunctionalDependency
from repro.relational.relations import Relation
from repro.relational.schema import RelationScheme
from repro.relational.tuples import Row

#: Wire format version; bump on any incompatible payload change.
WIRE_VERSION = 3

#: The query kinds the service understands.
REQUEST_KINDS = (
    "implies",
    "equivalent",
    "fd_implies",
    "consistent",
    "quotient",
    "counterexample",
)

#: Consistency methods (Theorem 12 weak-instance test; Theorem 11 CAD search).
CONSISTENT_METHODS = ("weak_instance", "cad")

#: The most operators one decoded expression may carry, a bound on outside
#: input: the printer behind every cache and Γ key recurses three frames per
#: nesting level, so a flat ``A*B*…`` chain at this bound stays inside the
#: default recursion limit on every service path, and a far longer one would not.
MAX_EXPRESSION_OPERATORS = 200


def canonical_dumps(payload: Any) -> str:
    """Serialize a payload to its canonical JSON form (sorted keys, no spaces).

    This is the *only* serializer the service uses, so equal payloads always
    produce identical bytes.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_loads(text: str) -> Any:
    """Inverse of :func:`canonical_dumps` (plain ``json.loads`` with error wrapping)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"invalid JSON on the wire: {exc}") from None


def _require(payload: Any, key: str, context: str) -> Any:
    if not isinstance(payload, dict):
        raise ServiceError(f"{context} payload must be a JSON object, got {type(payload).__name__}")
    if key not in payload:
        raise ServiceError(f"{context} payload is missing the {key!r} field")
    return payload[key]


def _require_int(payload: dict, key: str, context: str, default=None, allow_none=False):
    value = payload.get(key, default)
    if value is None:
        if allow_none or key not in payload:
            return default
        raise ServiceError(f"{context} field {key!r} must be an integer, got null")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"{context} field {key!r} must be an integer, got {value!r}")
    return value


def _check_version(payload: dict, context: str, expected: int = WIRE_VERSION) -> None:
    if "v" not in payload:
        raise ServiceError(
            f"{context} payload is missing the 'v' version field; "
            f"this service speaks version {expected} and requires it explicitly"
        )
    version = payload["v"]
    # ``True == 1`` and ``3.0 == 3``: only the integer itself names a version.
    if isinstance(version, bool) or not isinstance(version, int) or version != expected:
        raise ServiceError(
            f"{context} uses version {version!r}; this service speaks version {expected}"
        )


# -- expressions and dependencies ------------------------------------------------


def encode_expression(expression: PartitionExpression) -> str:
    """An expression as its minimal-parenthesis infix string (parser-invertible)."""
    return to_infix(expression)


def check_operators(*expressions: PartitionExpression) -> None:
    """Refuse expressions beyond :data:`MAX_EXPRESSION_OPERATORS` with a
    :class:`~repro.errors.ServiceError` (every decoder and typed factory)."""
    operators = max(expression.complexity() for expression in expressions)
    if operators > MAX_EXPRESSION_OPERATORS:
        raise ServiceError(
            f"an expression of {operators} operators exceeds the limit of {MAX_EXPRESSION_OPERATORS}"
        )


def decode_expression(text: Any) -> PartitionExpression:
    """Parse an expression string, re-interning through the hash-consed AST."""
    if not isinstance(text, str):
        raise ServiceError(f"expression payload must be a string, got {text!r}")
    try:
        expression = parse_expression(text)
    except Exception as exc:
        raise ServiceError(f"cannot decode expression {text!r}: {exc}") from None
    check_operators(expression)
    return expression


def encode_pd(pd: PartitionDependency) -> str:
    """A PD as ``"lhs = rhs"`` over the infix rendering (its cached ``str``)."""
    return str(pd)


def dependencies_key(dependencies: Iterable[PartitionDependency]) -> tuple[str, ...]:
    """A PD set Γ as the tuple of its encoded PDs: the key of its reasoning context."""
    return tuple(str(pd) for pd in dependencies)


def decode_pd(text: Any) -> PartitionDependency:
    """Parse a PD string (``"e = e'"`` or the FPD shorthand ``"X <= Y"``)."""
    if not isinstance(text, str):
        raise ServiceError(f"PD payload must be a string, got {text!r}")
    try:
        pd = PartitionDependency.parse(text)
    except Exception as exc:
        raise ServiceError(f"cannot decode PD {text!r}: {exc}") from None
    check_operators(pd.left, pd.right)
    return pd


def encode_fd(fd: FunctionalDependency) -> dict:
    """An FD as sorted attribute lists (robust for multi-character names)."""
    return {"lhs": fd.lhs.sorted(), "rhs": fd.rhs.sorted()}


def decode_fd(payload: Any) -> FunctionalDependency:
    lhs = _require(payload, "lhs", "FD")
    rhs = _require(payload, "rhs", "FD")
    try:
        return FunctionalDependency(lhs, rhs)
    except Exception as exc:
        raise ServiceError(f"cannot decode FD {payload!r}: {exc}") from None


# -- relational objects ----------------------------------------------------------


def encode_relation(relation: Relation) -> dict:
    """A relation as sorted attribute columns and lexicographically sorted rows."""
    attributes = relation.attributes.sorted()
    rows = sorted([row[a] for a in attributes] for row in relation.rows)
    return {"name": relation.name, "attributes": attributes, "rows": rows}


def decode_relation(payload: Any) -> Relation:
    name = _require(payload, "name", "relation")
    attributes = _require(payload, "attributes", "relation")
    raw_rows = _require(payload, "rows", "relation")
    if not isinstance(attributes, list) or not isinstance(raw_rows, list):
        raise ServiceError("relation payload needs list-valued 'attributes' and 'rows'")
    try:
        scheme = RelationScheme(name, attributes)
        rows = []
        for cells in raw_rows:
            if not isinstance(cells, list) or len(cells) != len(attributes):
                raise ServiceError(
                    f"relation row {cells!r} does not match the {len(attributes)} attributes"
                )
            rows.append(Row(dict(zip(attributes, cells))))
        return Relation(scheme, rows)
    except ServiceError:
        raise
    except Exception as exc:
        raise ServiceError(f"cannot decode relation {name!r}: {exc}") from None


def encode_database(database: Database) -> dict:
    """A database as its relations sorted by name."""
    return {
        "relations": [
            encode_relation(r) for r in sorted(database.relations, key=lambda r: r.name)
        ]
    }


def decode_database(payload: Any) -> Database:
    relations = _require(payload, "relations", "database")
    if not isinstance(relations, list):
        raise ServiceError("database payload needs a list-valued 'relations' field")
    try:
        return Database([decode_relation(item) for item in relations])
    except ServiceError:
        raise
    except Exception as exc:
        raise ServiceError(f"cannot decode database: {exc}") from None


# -- the request/response surface ------------------------------------------------


@dataclass(frozen=True)
class QueryRequest:
    """One query against the service — the uniform unit of work.

    ``dependencies`` is the PD set Γ the query reasons over; ``None`` means
    "use the session's own Γ" (the stateful mode).  ``tenant`` names the
    keyspace that Γ (and the request's cache slot) lives in; ``None`` is the
    default tenant, which a request without ``tenant`` uses.  ``trace`` is
    an optional caller-supplied trace id: pure observability metadata that
    never influences the answer (it is excluded from cache keys and results);
    when absent, a tracing-enabled server mints one at decode.  The remaining
    fields are kind-specific; :func:`validate_request` states which are
    required.
    """

    kind: str
    id: Optional[str] = None
    tenant: Optional[str] = None
    dependencies: Optional[tuple[PartitionDependency, ...]] = None
    query: Optional[PartitionDependency] = None
    left: Optional[PartitionExpression] = None
    right: Optional[PartitionExpression] = None
    fds: Optional[tuple[FunctionalDependency, ...]] = None
    target: Optional[FunctionalDependency] = None
    database: Optional[Database] = None
    method: str = "weak_instance"
    pool: Optional[tuple[PartitionExpression, ...]] = None
    max_pool: int = 400
    max_nodes: Optional[int] = None
    deadline_ms: Optional[int] = None
    trace: Optional[str] = None

    def with_id(self, new_id: Optional[str]) -> "QueryRequest":
        """The same request under another id (results are id-independent)."""
        return replace(self, id=new_id)


@dataclass(frozen=True)
class QueryResult:
    """The service's answer to one :class:`QueryRequest`.

    ``value`` is a canonical-JSON-ready dict (kind-specific); on failure
    ``ok`` is ``False`` and ``error`` carries ``{"type", "message"}``.
    ``cached`` reports whether the session answered from its result cache —
    it is *transport metadata*, deliberately excluded from the wire encoding
    so cached and computed answers are byte-identical.
    """

    kind: str
    ok: bool
    id: Optional[str] = None
    value: Optional[dict] = None
    error: Optional[dict] = None
    cached: bool = field(default=False, compare=False)


def validate_request(request: QueryRequest) -> None:
    """Check the kind-specific field contract; raise :class:`ServiceError` if broken."""
    if request.kind not in REQUEST_KINDS:
        raise ServiceError(f"unknown request kind {request.kind!r}; expected one of {REQUEST_KINDS}")
    if request.id is not None and not isinstance(request.id, str):
        raise ServiceError(f"'id' must be a string, got {request.id!r}")
    if request.kind in ("implies", "counterexample") and request.query is None:
        raise ServiceError(f"a {request.kind!r} request needs a 'query' PD")
    if request.kind == "equivalent" and (request.left is None or request.right is None):
        raise ServiceError("an 'equivalent' request needs 'left' and 'right' expressions")
    if request.kind == "fd_implies" and (request.fds is None or request.target is None):
        raise ServiceError("an 'fd_implies' request needs 'fds' and a 'target' FD")
    if request.kind == "consistent":
        if request.database is None:
            raise ServiceError("a 'consistent' request needs a 'database'")
        if request.method not in CONSISTENT_METHODS:
            raise ServiceError(
                f"unknown consistency method {request.method!r}; expected one of {CONSISTENT_METHODS}"
            )
    if request.kind == "quotient" and not request.pool:
        raise ServiceError("a 'quotient' request needs a non-empty 'pool' of expressions")
    if request.deadline_ms is not None:
        if isinstance(request.deadline_ms, bool) or not isinstance(request.deadline_ms, int):
            raise ServiceError(
                f"'deadline_ms' must be a positive integer, got {request.deadline_ms!r}"
            )
        if request.deadline_ms <= 0:
            raise ServiceError(
                f"'deadline_ms' must be a positive integer, got {request.deadline_ms}"
            )
    if request.tenant is not None:
        if not isinstance(request.tenant, str) or not request.tenant:
            raise ServiceError(
                f"'tenant' must be a non-empty string, got {request.tenant!r}"
            )
    if request.trace is not None:
        if not isinstance(request.trace, str) or not request.trace:
            raise ServiceError(
                f"'trace' must be a non-empty string, got {request.trace!r}"
            )


def encode_request(request: QueryRequest) -> dict:
    """A request as its canonical wire dict (only the fields its kind uses)."""
    validate_request(request)
    payload: dict[str, Any] = {"v": WIRE_VERSION, "kind": request.kind}
    if request.id is not None:
        payload["id"] = request.id
    if request.tenant is not None:
        payload["tenant"] = request.tenant
    if request.dependencies is not None:
        payload["dependencies"] = [encode_pd(pd) for pd in request.dependencies]
    if request.kind in ("implies", "counterexample"):
        payload["query"] = encode_pd(request.query)
    if request.kind == "counterexample":
        payload["max_pool"] = request.max_pool
    if request.kind == "equivalent":
        payload["left"] = encode_expression(request.left)
        payload["right"] = encode_expression(request.right)
    if request.kind == "fd_implies":
        payload["fds"] = [encode_fd(fd) for fd in request.fds]
        payload["target"] = encode_fd(request.target)
    if request.kind == "consistent":
        payload["database"] = encode_database(request.database)
        payload["method"] = request.method
        if request.max_nodes is not None:
            payload["max_nodes"] = request.max_nodes
    if request.kind == "quotient":
        payload["pool"] = [encode_expression(e) for e in request.pool]
    if request.deadline_ms is not None:
        payload["deadline_ms"] = request.deadline_ms
    if request.trace is not None:
        payload["trace"] = request.trace
    return payload


def decode_request(payload: Any) -> QueryRequest:
    """Rebuild a :class:`QueryRequest`, re-interning every expression on the way in."""
    kind = _require(payload, "kind", "request")
    _check_version(payload, "request")
    if kind not in REQUEST_KINDS:
        raise ServiceError(f"unknown request kind {kind!r}; expected one of {REQUEST_KINDS}")
    raw_deps = payload.get("dependencies")
    dependencies = None
    if raw_deps is not None:
        if not isinstance(raw_deps, list):
            raise ServiceError("'dependencies' must be a list of PD strings")
        dependencies = tuple(decode_pd(text) for text in raw_deps)
    kwargs: dict[str, Any] = {
        "kind": kind,
        "id": payload.get("id"),
        "tenant": payload.get("tenant"),
        "dependencies": dependencies,
    }
    if kind in ("implies", "counterexample"):
        kwargs["query"] = decode_pd(_require(payload, "query", kind))
    if kind == "counterexample":
        kwargs["max_pool"] = _require_int(payload, "max_pool", kind, default=400)
    if kind == "equivalent":
        kwargs["left"] = decode_expression(_require(payload, "left", kind))
        kwargs["right"] = decode_expression(_require(payload, "right", kind))
    if kind == "fd_implies":
        fds = _require(payload, "fds", kind)
        if not isinstance(fds, list):
            raise ServiceError("'fds' must be a list of FD payloads")
        kwargs["fds"] = tuple(decode_fd(item) for item in fds)
        kwargs["target"] = decode_fd(_require(payload, "target", kind))
    if kind == "consistent":
        kwargs["database"] = decode_database(_require(payload, "database", kind))
        kwargs["method"] = payload.get("method", "weak_instance")
        # max_nodes is an optional bound: explicit null means "unbounded".
        kwargs["max_nodes"] = _require_int(payload, "max_nodes", kind, allow_none=True)
    if kind == "quotient":
        pool = _require(payload, "pool", kind)
        if not isinstance(pool, list):
            raise ServiceError("'pool' must be a list of expression strings")
        kwargs["pool"] = tuple(decode_expression(text) for text in pool)
    # Explicit null means "no deadline", same as omission.
    kwargs["deadline_ms"] = _require_int(payload, "deadline_ms", "request", allow_none=True)
    kwargs["trace"] = payload.get("trace")
    request = QueryRequest(**kwargs)
    validate_request(request)
    return request


def encode_result(result: QueryResult) -> dict:
    """A result as its canonical wire dict (``cached`` transport flag excluded)."""
    payload: dict[str, Any] = {"v": WIRE_VERSION, "kind": result.kind, "ok": result.ok}
    if result.id is not None:
        payload["id"] = result.id
    if result.ok:
        payload["value"] = result.value
    else:
        payload["error"] = result.error
    return payload


def decode_result(payload: Any) -> QueryResult:
    kind = _require(payload, "kind", "result")
    ok = _require(payload, "ok", "result")
    _check_version(payload, "result")
    if not isinstance(ok, bool):
        raise ServiceError(f"result 'ok' must be a boolean, got {ok!r}")
    result_id = payload.get("id")
    if result_id is not None and not isinstance(result_id, str):
        raise ServiceError(f"'id' must be a string, got {result_id!r}")
    if ok:
        value = _require(payload, "value", "result")
        if not isinstance(value, dict):
            raise ServiceError("result 'value' must be a JSON object")
        return QueryResult(kind=kind, ok=True, id=result_id, value=value)
    error = _require(payload, "error", "result")
    if not isinstance(error, dict):
        raise ServiceError("result 'error' must be a JSON object")
    return QueryResult(kind=kind, ok=False, id=result_id, error=error)


def request_cache_key(request: QueryRequest) -> str:
    """The canonical bytes of a request *minus id, deadline and trace* — the cache key.

    Two requests asking the same question under different ids share one cache
    slot; the session re-stamps the stored result with the caller's id.  The
    deadline is excluded too: a budget changes *whether* an answer arrives in
    time, never what the answer is, and timeouts are error results, which are
    never cached.  ``trace`` is excluded for the same reason tracing must be
    invisible end to end: a trace id labels the observation, not the
    question, so traced and untraced repeats share one slot and tracing can
    never change an answer.  The ``tenant`` field *stays in*: the key is effectively
    ``(tenant, canonical request bytes)``, so one tenant's repeats can never
    be served from (or poison) another tenant's cache slot — tenant isolation
    is enforced at the key, in every cache tier that uses this function.
    """
    payload = encode_request(request)
    payload.pop("id", None)
    payload.pop("deadline_ms", None)
    payload.pop("trace", None)
    return canonical_dumps(payload)


def request_id_hint(payload: Any) -> Optional[str]:
    """The ``id`` of a request payload that *parsed* but failed to decode.

    Takes either the raw line text or an already-parsed payload.  Returns the
    id only when it is a string (the wire type of request ids); malformed or
    missing ids yield ``None`` so error results fall back to line numbers.
    """
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError:
            return None
    if isinstance(payload, dict):
        request_id = payload.get("id")
        if isinstance(request_id, str):
            return request_id
    return None


def error_result_for_line(text: Any, line_number: int, exc: Exception) -> QueryResult:
    """The structured error result for an undecodable request line.

    The result echoes the request's own ``id`` whenever the line parsed far
    enough to carry one — async clients correlate failures by id, and a
    line number alone is meaningless across concurrent connections.  Only
    unparseable lines fall back to the ``"lineN"`` position id.
    """
    return QueryResult(
        kind="invalid",
        ok=False,
        id=request_id_hint(text) or f"line{line_number}",
        error={"type": type(exc).__name__, "message": str(exc)},
    )


def dump_request_line(request: QueryRequest) -> str:
    """One JSONL line for a request (canonical form, no trailing newline)."""
    return canonical_dumps(encode_request(request))


def load_request_line(line: str) -> QueryRequest:
    """Parse one JSONL request line."""
    return decode_request(canonical_loads(line))


def dump_result_line(result: QueryResult) -> str:
    """One JSONL line for a result (canonical form, no trailing newline)."""
    return canonical_dumps(encode_result(result))


def load_result_line(line: str) -> QueryResult:
    """Parse one JSONL result line."""
    return decode_result(canonical_loads(line))


def requests_to_jsonl(requests: Sequence[QueryRequest]) -> str:
    """A whole request stream as JSONL text (one canonical line per request)."""
    return "".join(dump_request_line(r) + "\n" for r in requests)
