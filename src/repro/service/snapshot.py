"""Durable Γ snapshots: the versioned codec behind zero-warmup restores.

Everything a warm :class:`~repro.service.session.Session` has learned about
its base Γ — the :class:`~repro.implication.index.ImplicationIndex` arc
relation and congruence classes, the interned expression table
slice backing them, the Theorem 12 normalization output (and hence the
chase-engine preprocessing), and the LRU result cache — dies with the
process.  This module serializes those artifacts into one declarative,
versioned, digest-protected JSON document so a restarted server, a freshly
forked shard worker, or another machine can *restore* the warm state instead
of re-paying the Γ closure.

The codec follows the same discipline as :mod:`repro.service.wire`:

* **Canonical bytes** — the snapshot text is :func:`~repro.service.wire.canonical_dumps`
  of a payload whose every list is emitted in a deterministic order
  (expressions in vertex-id order, arcs sorted per class representative,
  cache entries in LRU order), so ``encode → decode → encode`` is
  byte-identical and snapshots of equal sessions compare with ``==``.
* **Explicit version** — the payload carries ``{"v": SNAPSHOT_VERSION}`` and
  decoding requires it (missing or mismatched versions raise
  :class:`~repro.errors.ServiceError`, never a silent default).
* **Content digest** — ``digest`` is the SHA-256 of the canonical payload
  minus the digest field itself; any corruption or truncation of the stored
  text is refused before a single artifact is rebuilt.
* **Re-interning restore** — expressions re-enter through the parser and the
  hash-consed AST, results through :func:`~repro.service.wire.decode_result`,
  so a restored session is *indistinguishable* from a recomputed one: the
  randomized cross-checks in ``tests/test_snapshot.py`` pin restored and
  warm sessions byte-identical on mixed query streams.

Snapshots are keyed by the session **generation counter**: restoring with
``expected_generation`` refuses a stale snapshot of an older Γ, and
``expected_dependencies`` refuses a snapshot whose Γ is not the one the
caller configured — the invalidation story the session's cache already uses.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Any, Optional, Union

from repro.consistency.normalization import NormalizedDependencies, SumConstraint
from repro.errors import ServiceError
from repro.implication.alg import ImplicationEngine
from repro.implication.index import ImplicationIndex
from repro.relational.chase_engine import ChaseEngine
from repro.relational.functional_dependencies import FunctionalDependency
from repro.service.wire import (
    _check_version,
    _require,
    canonical_dumps,
    canonical_loads,
    decode_expression,
    decode_pd,
    decode_result,
    encode_expression,
    encode_fd,
    encode_pd,
    encode_result,
)

#: Snapshot format version; bump on any incompatible payload change.
#: Version 2 (multi-tenancy) adds the ``tenants`` list and widens result
#: entries to ``[key, uses_gamma, tenant, result]`` quadruples; the
#: top-level ``generation``/``dependencies``/``index``/``normalized`` fields
#: keep describing the *default* tenant, exactly as version 1 did.
SNAPSHOT_VERSION = 2

#: Versions :func:`decode_snapshot` accepts.  Version-1 documents restore as
#: a default-tenant-only keyspace (their result entries carry no tenant).
SUPPORTED_SNAPSHOT_VERSIONS = (1, 2)

#: The ``kind`` tag of a snapshot document (guards against feeding the codec
#: some other canonical-JSON artifact).
SNAPSHOT_KIND = "session_snapshot"

#: File name used by ``--snapshot-dir`` (save-on-drain / restore-on-boot).
SNAPSHOT_FILENAME = "session.snapshot.json"


def _digest(payload: dict) -> str:
    """SHA-256 over the canonical payload without its ``digest`` field."""
    body = {key: value for key, value in payload.items() if key != "digest"}
    return hashlib.sha256(canonical_dumps(body).encode("utf-8")).hexdigest()


# -- encoding ---------------------------------------------------------------------


def _encode_index(index: ImplicationIndex) -> dict:
    """The implication index's fixpoint state as a canonical wire payload."""
    state = index.export_state()
    return {
        "expressions": [encode_expression(e) for e in state["expressions"]],
        "parent": state["parent"],
        "arcs": [[root, targets] for root, targets in sorted(state["arcs"].items())],
    }


def _encode_normalized(normalized: NormalizedDependencies) -> dict:
    """The Theorem 12 normalization artifacts (``original`` travels as the session Γ)."""
    return {
        "fds": [encode_fd(fd) for fd in normalized.fds],
        "sum_constraints": [[c.c, c.a, c.b] for c in normalized.sum_constraints],
        "fresh_attributes": list(normalized.fresh_attributes),
        "closure_pairs": [[a, b] for a, b in normalized.attribute_closure_pairs],
    }


def _encode_tenant(context, generation: int) -> dict:
    """One named tenant's keyspace entry; unforced artifacts stay ``null``.

    The export-never-computes rule holds per tenant: a tenant that has run
    neither an implication query nor a weak-instance read yet snapshots
    ``index: null`` (and restores lazy), unlike the default tenant whose
    engine always exists.  A weak-instance read forces the index as well,
    because normalization reads its closure step off it.
    """
    engine = context.peek_engine()
    index = engine.index if engine is not None else None
    normalized = context.peek_normalized()
    return {
        "generation": generation,
        "dependencies": [encode_pd(pd) for pd in context.dependencies],
        "index": None if index is None else _encode_index(index),
        "normalized": None if normalized is None else _encode_normalized(normalized),
    }


def encode_snapshot(session) -> dict:
    """A warm session's tenant keyspace as a canonical, digest-stamped payload dict."""
    state = session._snapshot_state()
    context = state["context"]
    engine = context.engine
    if engine.index is None:  # pragma: no cover - sessions never run naive engines
        raise ServiceError("cannot snapshot a session running on a naive engine")
    payload: dict[str, Any] = {
        "v": SNAPSHOT_VERSION,
        "kind": SNAPSHOT_KIND,
        "generation": state["generation"],
        "dependencies": [encode_pd(pd) for pd in context.dependencies],
        "index": _encode_index(engine.index),
        "normalized": (
            None if context.peek_normalized() is None else _encode_normalized(context.peek_normalized())
        ),
        "tenants": [
            [name, _encode_tenant(tenant_context, tenant_generation)]
            for name, tenant_context, tenant_generation in sorted(
                state["tenants"], key=lambda entry: entry[0]
            )
        ],
        "results": [
            [key, uses_gamma, tenant, encode_result(result)]
            for key, (uses_gamma, tenant, result) in state["results"]
        ],
    }
    payload["digest"] = _digest(payload)
    return payload


def dump_snapshot(session) -> str:
    """The canonical snapshot text of a warm session (one JSON document)."""
    return canonical_dumps(encode_snapshot(session))


# -- decoding / validation --------------------------------------------------------


def _require_list(payload: dict, key: str, context: str) -> list:
    value = _require(payload, key, context)
    if not isinstance(value, list):
        raise ServiceError(f"{context} field {key!r} must be a list, got {type(value).__name__}")
    return value


def decode_snapshot(text: Union[str, bytes]) -> dict:
    """Parse and *verify* a snapshot document: JSON, kind, version, digest, shape.

    Returns the validated payload dict.  Any corruption (bad JSON,
    truncation, digest mismatch), version skew or structural damage raises
    :class:`~repro.errors.ServiceError` with a reason — restoring from a
    payload this function accepted cannot crash on missing fields.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    payload = canonical_loads(text)
    if not isinstance(payload, dict):
        raise ServiceError(f"snapshot payload must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind != SNAPSHOT_KIND:
        raise ServiceError(f"snapshot payload has kind {kind!r}; expected {SNAPSHOT_KIND!r}")
    version = _check_version(payload, "snapshot", expected=SUPPORTED_SNAPSHOT_VERSIONS)
    stored = _require(payload, "digest", "snapshot")
    actual = _digest(payload)
    if stored != actual:
        raise ServiceError(
            "snapshot digest mismatch: the stored text is corrupted "
            f"(stored {str(stored)[:16]}…, computed {actual[:16]}…)"
        )
    generation = _require(payload, "generation", "snapshot")
    if isinstance(generation, bool) or not isinstance(generation, int) or generation < 0:
        raise ServiceError(f"snapshot generation must be a non-negative integer, got {generation!r}")
    _require_list(payload, "dependencies", "snapshot")
    index = _require(payload, "index", "snapshot")
    for field in ("expressions", "parent", "arcs"):
        _require_list(index, field, "snapshot index")
    for entry in index["arcs"]:
        if not isinstance(entry, list) or len(entry) != 2 or not isinstance(entry[1], list):
            raise ServiceError(f"snapshot index arc entry {entry!r} is not a [root, targets] pair")
    normalized = _require(payload, "normalized", "snapshot")
    if normalized is not None:
        for field in ("fds", "sum_constraints", "fresh_attributes", "closure_pairs"):
            _require_list(normalized, field, "snapshot normalization")
    if version >= 2:
        for entry in _require_list(payload, "tenants", "snapshot"):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not isinstance(entry[0], str)
                or not entry[0]
                or not isinstance(entry[1], dict)
            ):
                raise ServiceError(
                    f"snapshot tenant entry must be a [name, state] pair, got {entry!r}"
                )
            tenant_state = entry[1]
            tenant_context = f"snapshot tenant {entry[0]!r}"
            tenant_generation = _require(tenant_state, "generation", tenant_context)
            if (
                isinstance(tenant_generation, bool)
                or not isinstance(tenant_generation, int)
                or tenant_generation < 0
            ):
                raise ServiceError(
                    f"{tenant_context} generation must be a non-negative integer, "
                    f"got {tenant_generation!r}"
                )
            _require_list(tenant_state, "dependencies", tenant_context)
            tenant_index = _require(tenant_state, "index", tenant_context)
            if tenant_index is not None:
                for field in ("expressions", "parent", "arcs"):
                    _require_list(tenant_index, field, tenant_context + " index")
            tenant_normalized = _require(tenant_state, "normalized", tenant_context)
            if tenant_normalized is not None:
                for field in ("fds", "sum_constraints", "fresh_attributes", "closure_pairs"):
                    _require_list(tenant_normalized, field, tenant_context + " normalization")
        entry_width, entry_shape = 4, "[key, uses_gamma, tenant, result] quadruple"
    else:
        entry_width, entry_shape = 3, "[key, uses_base_gamma, result] triple"
    for entry in _require_list(payload, "results", "snapshot"):
        if not isinstance(entry, list) or len(entry) != entry_width or not isinstance(entry[0], str):
            raise ServiceError(f"snapshot result entry must be a {entry_shape}, got {entry!r}")
        if entry_width == 4 and entry[2] is not None and (not isinstance(entry[2], str) or not entry[2]):
            raise ServiceError(
                f"snapshot result entry tenant must be null or a non-empty string, got {entry[2]!r}"
            )
    return payload


def snapshot_generation(snapshot: Union[str, bytes, dict]) -> int:
    """The Γ generation a snapshot captures (verifying the document if given as text)."""
    payload = snapshot if isinstance(snapshot, dict) else decode_snapshot(snapshot)
    return payload["generation"]


def snapshot_dependencies(snapshot: Union[str, bytes, dict]) -> tuple:
    """The base Γ a snapshot captures, re-interned (verifies text input)."""
    payload = snapshot if isinstance(snapshot, dict) else decode_snapshot(snapshot)
    return tuple(decode_pd(text) for text in payload["dependencies"])


def _decode_normalized(payload: dict, dependencies) -> NormalizedDependencies:
    constraints = []
    for entry in payload["sum_constraints"]:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ServiceError(f"snapshot sum constraint {entry!r} is not a [c, a, b] triple")
        constraints.append(SumConstraint(entry[0], entry[1], entry[2]))
    fds = []
    for item in payload["fds"]:
        lhs = _require(item, "lhs", "snapshot FD")
        rhs = _require(item, "rhs", "snapshot FD")
        try:
            fds.append(FunctionalDependency(lhs, rhs))
        except Exception as exc:
            raise ServiceError(f"cannot restore normalized FD {item!r}: {exc}") from None
    pairs = []
    for pair in payload["closure_pairs"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ServiceError(f"snapshot closure pair {pair!r} is not an [a, b] pair")
        pairs.append((pair[0], pair[1]))
    try:
        return NormalizedDependencies.from_artifacts(
            original=list(dependencies),
            fds=fds,
            sum_constraints=constraints,
            fresh_attributes=list(payload["fresh_attributes"]),
            attribute_closure_pairs=pairs,
        )
    except ValueError as exc:
        raise ServiceError(f"cannot restore normalization artifacts: {exc}") from None


def restore_session(
    snapshot: Union[str, bytes, dict],
    result_cache_size: int = 1024,
    foreign_context_limit: int = 16,
    expected_generation: Optional[int] = None,
    expected_dependencies=None,
):
    """Rebuild a warm :class:`~repro.service.session.Session` from a snapshot.

    ``snapshot`` is the canonical text (or an already-verified payload dict).
    Every expression re-enters through the parser — and hence the hash-consed
    AST — so the restored index is built over *this* process's interned
    nodes, exactly as if the closure had been recomputed here.

    ``expected_generation`` refuses a stale snapshot of an older Γ;
    ``expected_dependencies`` (any iterable of PDs) refuses a snapshot whose
    base Γ differs from the one the caller configured.
    """
    from repro.service.session import DependencyContext, Session

    payload = snapshot if isinstance(snapshot, dict) else decode_snapshot(snapshot)
    generation = payload["generation"]
    if expected_generation is not None and generation != expected_generation:
        raise ServiceError(
            f"stale snapshot: it captures Γ generation {generation}, "
            f"but generation {expected_generation} was required"
        )
    dependencies = tuple(decode_pd(text) for text in payload["dependencies"])
    if expected_dependencies is not None:
        expected = [encode_pd(pd) for pd in expected_dependencies]
        if expected != list(payload["dependencies"]):
            raise ServiceError(
                "snapshot Γ mismatch: the snapshot captures "
                f"{payload['dependencies']!r} but {expected!r} was configured"
            )

    base = _restore_context(
        DependencyContext, dependencies, payload["index"], payload["normalized"]
    )
    tenants = []
    for name, tenant_state in payload.get("tenants", ()):
        tenant_dependencies = tuple(decode_pd(text) for text in tenant_state["dependencies"])
        tenants.append(
            (
                name,
                _restore_context(
                    DependencyContext,
                    tenant_dependencies,
                    tenant_state["index"],
                    tenant_state["normalized"],
                ),
                tenant_state["generation"],
            )
        )
    results = []
    for entry in payload["results"]:
        if len(entry) == 4:
            key, uses_gamma, tenant, result_payload = entry
        else:  # a version-1 document: default-tenant entries only
            key, uses_gamma, result_payload = entry
            tenant = None
        result = decode_result(result_payload)
        if not result.ok:
            raise ServiceError("snapshot result cache contains an error result (never cached)")
        results.append((key, (bool(uses_gamma), tenant, result)))
    return Session._from_restored(
        base,
        generation=generation,
        results=results,
        result_cache_size=result_cache_size,
        foreign_context_limit=foreign_context_limit,
        tenants=tenants,
    )


def _restore_context(context_cls, dependencies, index_payload, normalized_payload):
    """A :class:`DependencyContext` over whatever artifacts the payload carries.

    ``index: null`` (a lazy tenant) restores a plain lazy context; anything
    present re-enters through the parser and the hash-consed AST.
    """
    engine = None
    if index_payload is not None:
        expressions = [decode_expression(text) for text in index_payload["expressions"]]
        arcs = {source: targets for source, targets in index_payload["arcs"]}
        try:
            index = ImplicationIndex.from_state(
                dependencies, expressions, index_payload["parent"], arcs
            )
        except (ValueError, TypeError) as exc:
            raise ServiceError(f"cannot restore implication index: {exc}") from None
        engine = ImplicationEngine.from_index(index)
    normalized = chase_engine = None
    if normalized_payload is not None:
        normalized = _decode_normalized(normalized_payload, dependencies)
        chase_engine = ChaseEngine(normalized.fds)
    if engine is None and normalized is None:
        return context_cls(dependencies)
    return context_cls.from_artifacts(
        dependencies, engine=engine, normalized=normalized, chase_engine=chase_engine
    )


# -- file lifecycle ---------------------------------------------------------------


def snapshot_path(directory: Union[str, Path]) -> Path:
    """The snapshot file a directory-based deployment reads and writes."""
    return Path(directory) / SNAPSHOT_FILENAME


def save_snapshot(session, directory: Union[str, Path]) -> Path:
    """Write a session's snapshot atomically into ``directory``; returns the path.

    The text lands under a temporary name first and is renamed into place, so
    a reader (or a crash mid-write) never observes a truncated document — the
    digest check would refuse one anyway, but the boot path should not have
    to retry.
    """
    target = snapshot_path(directory)
    target.parent.mkdir(parents=True, exist_ok=True)
    text = dump_snapshot(session)
    scratch = target.with_name(target.name + f".tmp.{os.getpid()}")
    scratch.write_text(text + "\n", encoding="utf-8")
    os.replace(scratch, target)
    return target


def read_snapshot(directory: Union[str, Path]) -> Optional[str]:
    """The snapshot text stored in ``directory``, or ``None`` when there is none.

    The text is *not* verified here — callers hand it to
    :func:`decode_snapshot` / :func:`restore_session`, which refuse corrupted
    or mis-versioned documents with a clear error.
    """
    path = snapshot_path(directory)
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise ServiceError(f"cannot read snapshot {path}: {exc}") from None
