"""Durable Γ snapshots: the versioned codec behind zero-warmup restores.

Everything a warm :class:`~repro.service.session.Session` has learned about
its base Γ — the :class:`~repro.implication.index.ImplicationIndex` arc
relation and congruence classes, the interned expression table
slice backing them, and the LRU result cache — dies with the process.  This
module serializes Γ, each tenant's index and the result cache into one
declarative, versioned, digest-protected JSON document so a restarted
server, a freshly forked shard worker, or another machine can *restore* the
warm state instead of re-paying the Γ closure.

The Theorem 12 normalization is *not* stored: it is a function of Γ alone,
and its closure step reads the restored index.  A restored tenant rebuilds
it on its first weak-instance read, so no stored copy can disagree with Γ.

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

from repro.errors import ServiceError
from repro.implication.alg import ImplicationEngine
from repro.implication.index import ImplicationIndex
from repro.service.wire import (
    _check_version,
    _require,
    canonical_dumps,
    canonical_loads,
    decode_expression,
    decode_pd,
    decode_result,
    encode_expression,
    encode_pd,
    encode_result,
)

#: Snapshot format version; bump on any incompatible payload change.  The
#: only version :func:`decode_snapshot` accepts.  The top-level
#: ``generation``/``dependencies``/``index`` fields describe the *default*
#: tenant, each ``tenants`` entry a named one in the same shape, and result
#: entries are ``[key, uses_gamma, tenant, result]``.  A snapshot holds Γ,
#: each tenant's index and the result cache; the Theorem 12 normalization is
#: re-derived from Γ and the index on the first weak-instance read.
SNAPSHOT_VERSION = 3

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


def _encode_tenant(context, generation: int) -> dict:
    """One named tenant's keyspace entry; an unforced index stays ``null``.

    The export-never-computes rule holds per tenant: a tenant that has run
    neither an implication query nor a weak-instance read yet snapshots
    ``index: null`` (and restores lazy), unlike the default tenant whose
    engine always exists.  A weak-instance read forces the index as well,
    because normalization reads its closure step off it.
    """
    engine = context.peek_engine()
    return {
        "generation": generation,
        "dependencies": [encode_pd(pd) for pd in context.dependencies],
        "index": None if engine is None else _encode_index(engine.index),
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


def _check_tenant_state(state: dict, context: str, lazy: bool) -> None:
    """Validate one tenant's ``generation``/``dependencies``/``index``.

    The default tenant (the document's top level) and every ``tenants`` entry
    share this shape; only a named tenant (``lazy``) may snapshot ``index: null``.
    """
    generation = _require(state, "generation", context)
    if isinstance(generation, bool) or not isinstance(generation, int) or generation < 0:
        raise ServiceError(f"{context} generation must be a non-negative integer, got {generation!r}")
    _require_list(state, "dependencies", context)
    index = _require(state, "index", context)
    if index is not None or not lazy:
        for field in ("expressions", "parent", "arcs"):
            _require_list(index, field, context + " index")
        for entry in index["arcs"]:
            if not isinstance(entry, list) or len(entry) != 2 or not isinstance(entry[1], list):
                raise ServiceError(f"{context} index arc entry {entry!r} is not a [root, targets] pair")


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
    _check_version(payload, "snapshot", expected=SNAPSHOT_VERSION)
    stored = _require(payload, "digest", "snapshot")
    actual = _digest(payload)
    if stored != actual:
        raise ServiceError(
            "snapshot digest mismatch: the stored text is corrupted "
            f"(stored {str(stored)[:16]}…, computed {actual[:16]}…)"
        )
    _check_tenant_state(payload, "snapshot", lazy=False)
    for entry in _require_list(payload, "tenants", "snapshot"):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not isinstance(entry[0], str)
            or not entry[0]
            or not isinstance(entry[1], dict)
        ):
            raise ServiceError(f"snapshot tenant entry must be a [name, state] pair, got {entry!r}")
        _check_tenant_state(entry[1], f"snapshot tenant {entry[0]!r}", lazy=True)
    for entry in _require_list(payload, "results", "snapshot"):
        if not isinstance(entry, list) or len(entry) != 4 or not isinstance(entry[0], str):
            raise ServiceError(
                f"snapshot result entry must be a [key, uses_gamma, tenant, result] quadruple, got {entry!r}"
            )
        if entry[2] is not None and (not isinstance(entry[2], str) or not entry[2]):
            raise ServiceError(
                f"snapshot result entry tenant must be null or a non-empty string, got {entry[2]!r}"
            )
    return payload


def snapshot_results(snapshot: Union[str, bytes, dict]) -> list:
    """A snapshot's result-cache entries, least recent first (verifies text input).

    Each entry is ``(key, (uses_gamma, tenant, result))``, the shape
    :class:`~repro.service.result_cache.ResultCache` is seeded with: a
    restored session seeds its own cache from them, a sharded executor its
    parent-side shared tier.
    """
    payload = snapshot if isinstance(snapshot, dict) else decode_snapshot(snapshot)
    results = []
    for key, uses_gamma, tenant, result_payload in payload["results"]:
        result = decode_result(result_payload)
        if not result.ok:
            raise ServiceError("snapshot result cache contains an error result (never cached)")
        results.append((key, (bool(uses_gamma), tenant, result)))
    return results


def restore_session(
    snapshot: Union[str, bytes, dict],
    result_cache_size: int = 1024,
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
    base Γ differs from the one the caller configured.  A cache-less session
    (``result_cache_size=0``, a shard worker's) decodes no result entries.
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

    base = _restore_context(DependencyContext, dependencies, payload["index"])
    tenants = []
    for name, tenant_state in payload["tenants"]:
        tenant_dependencies = tuple(decode_pd(text) for text in tenant_state["dependencies"])
        tenants.append(
            (
                name,
                _restore_context(DependencyContext, tenant_dependencies, tenant_state["index"]),
                tenant_state["generation"],
            )
        )
    return Session._from_restored(
        base,
        generation=generation,
        results=snapshot_results(payload) if result_cache_size > 0 else [],
        result_cache_size=result_cache_size,
        tenants=tenants,
    )


def _restore_context(context_cls, dependencies, index_payload):
    """A :class:`DependencyContext` over the stored index, if the payload carries one.

    ``index: null`` (a lazy tenant) restores a plain lazy context; a stored
    index re-enters through the parser and the hash-consed AST.  The
    normalization and chase engine stay lazy either way.
    """
    if index_payload is None:
        return context_cls(dependencies)
    expressions = [decode_expression(text) for text in index_payload["expressions"]]
    arcs = {source: targets for source, targets in index_payload["arcs"]}
    try:
        index = ImplicationIndex.from_state(dependencies, expressions, index_payload["parent"], arcs)
    except (ValueError, TypeError) as exc:
        raise ServiceError(f"cannot restore implication index: {exc}") from None
    return context_cls.from_engine(dependencies, ImplicationEngine.from_index(index))


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
