"""Durable session snapshots: each tenant's Γ and generation, and the result cache.

Everything a warm :class:`~repro.service.session.Session` has learned —
each tenant's :class:`~repro.implication.index.ImplicationIndex`, its
Theorem 12 normalization and the LRU result cache — dies with the process.
This module serializes each tenant's Γ and generation and the result cache
into one declarative, versioned, digest-protected JSON document so a
restarted server (in-process or sharded) or another machine can *restore*
the session and answer its captured requests from the cache.  It is also
how a shard worker boots: the executor exports its parent-side session
once per pool, and every worker restores a cache-less session from that
text.

Nothing derived from Γ is stored.  The ALG closure over Γ is fixed by Γ and
its subexpressions (Lemma 9.2, Theorem 9), so a restore rebuilds each index
from Γ the way :class:`~repro.service.session.Session` itself does: the
default tenant's at once, a named tenant's on its first read.  The
normalization follows on the first weak-instance read.  No stored copy can
disagree with Γ, because there is none.

The codec follows the same discipline as :mod:`repro.service.wire`:

* **Canonical bytes** — the snapshot text is :func:`~repro.service.wire.canonical_dumps`
  of a payload whose every list is emitted in a deterministic order (Γ in
  insertion order, tenants by name, cache entries in LRU order), so
  ``encode → decode → encode`` is byte-identical and snapshots of equal
  sessions compare with ``==``.
* **Explicit version** — the payload carries ``{"v": SNAPSHOT_VERSION}`` and
  decoding requires it (missing or mismatched versions raise
  :class:`~repro.errors.ServiceError`, never a silent default).
* **Content digest** — ``digest`` is the SHA-256 of the canonical payload
  minus the digest field itself; any corruption or truncation of the stored
  text is refused before a single artifact is rebuilt.
* **Re-interning restore** — Γ re-enters through the parser and the
  hash-consed AST, results through :func:`~repro.service.wire.decode_result`,
  so a restored session is *indistinguishable* from a recomputed one: the
  randomized cross-checks in ``tests/test_snapshot.py`` pin restored and
  warm sessions byte-identical on mixed query streams.

Snapshots are keyed by the session **generation counter**: restoring with
``expected_generation`` refuses a stale snapshot of an older Γ, and
``expected_dependencies`` refuses a snapshot whose Γ is not the one the
caller configured.  Only a result entry stamped ``-1`` or with its tenant's
generation answers, so stale entries an export keeps age out after a restore.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Any, Optional, Union

from repro.errors import ServiceError
from repro.service.wire import (
    _check_version,
    _require,
    canonical_dumps,
    canonical_loads,
    decode_pd,
    decode_result,
    encode_pd,
    encode_result,
)

#: Snapshot format version; bump on any incompatible payload change.  The
#: only version :func:`decode_snapshot` accepts.  The top-level
#: ``generation``/``dependencies`` fields describe the *default* tenant, each
#: ``tenants`` entry a named one in the same shape, and result entries are
#: ``[key, stamp, result]`` (the stamp: the generation of the tenant Γ the
#: result answered, ``-1`` if none).  A snapshot holds each tenant's Γ and
#: generation and the result cache only; every index and normalization is
#: re-derived from Γ after the restore.
SNAPSHOT_VERSION = 5

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


def _encode_tenant(dependencies, generation: int) -> dict:
    """One tenant's keyspace entry: its generation and Γ."""
    return {"generation": generation, "dependencies": [encode_pd(pd) for pd in dependencies]}


def encode_snapshot(session) -> dict:
    """A session's tenant keyspace as a canonical, digest-stamped payload dict."""
    state = session._snapshot_state()
    payload: dict[str, Any] = {
        "v": SNAPSHOT_VERSION,
        "kind": SNAPSHOT_KIND,
        **_encode_tenant(state["dependencies"], state["generation"]),
        "tenants": [
            [name, _encode_tenant(dependencies, generation)]
            for name, dependencies, generation in sorted(state["tenants"], key=lambda entry: entry[0])
        ],
        "results": [[key, stamp, encode_result(result)] for key, (stamp, result) in state["results"]],
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


def _check_tenant_state(state: dict, context: str) -> None:
    """Validate one tenant's ``generation``/``dependencies``.

    The default tenant (the document's top level) and every ``tenants`` entry
    share this shape.
    """
    generation = _require(state, "generation", context)
    if isinstance(generation, bool) or not isinstance(generation, int) or generation < 0:
        raise ServiceError(f"{context} generation must be a non-negative integer, got {generation!r}")
    _require_list(state, "dependencies", context)


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
    _check_tenant_state(payload, "snapshot")
    for entry in _require_list(payload, "tenants", "snapshot"):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not isinstance(entry[0], str)
            or not entry[0]
            or not isinstance(entry[1], dict)
        ):
            raise ServiceError(f"snapshot tenant entry must be a [name, state] pair, got {entry!r}")
        _check_tenant_state(entry[1], f"snapshot tenant {entry[0]!r}")
    for entry in _require_list(payload, "results", "snapshot"):
        if not isinstance(entry, list) or len(entry) != 3 or not isinstance(entry[0], str):
            raise ServiceError(
                f"snapshot result entry must be a [key, stamp, result] triple, got {entry!r}"
            )
        stamp = entry[1]
        if isinstance(stamp, bool) or not isinstance(stamp, int) or stamp < -1:
            raise ServiceError(
                f"snapshot result entry stamp must be an integer of at least -1, got {stamp!r}"
            )
    return payload


def _snapshot_results(payload: dict) -> list:
    """A verified payload's result-cache entries, least recent first.

    Each entry is ``(key, (stamp, result))``, the shape
    :class:`~repro.service.result_cache.ResultCache` is seeded with.
    """
    results = []
    for key, stamp, result_payload in payload["results"]:
        result = decode_result(result_payload)
        if not result.ok:
            raise ServiceError("snapshot result cache contains an error result (never cached)")
        results.append((key, (stamp, result)))
    return results


def restore_session(
    snapshot: Union[str, bytes, dict],
    result_cache_size: int = 1024,
    expected_generation: Optional[int] = None,
    expected_dependencies=None,
):
    """Rebuild a :class:`~repro.service.session.Session` from a snapshot.

    ``snapshot`` is the canonical text (or an already-verified payload dict).
    Every PD re-enters through the parser — and hence the hash-consed AST —
    and each tenant gets a plain context over its Γ, built exactly as a new
    session builds one: the default tenant's index is closed here, a named
    tenant's on its first read.

    ``expected_generation`` refuses a stale snapshot of an older Γ;
    ``expected_dependencies`` (any iterable of PDs) refuses a snapshot whose
    base Γ differs from the one the caller configured.  A cache-less session
    (``result_cache_size=0``, a shard worker's) decodes no result entries.
    """
    from repro.service.session import Session

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

    tenants = [
        (name, tuple(decode_pd(text) for text in state["dependencies"]), state["generation"])
        for name, state in payload["tenants"]
    ]
    return Session._from_restored(
        dependencies,
        generation=generation,
        results=_snapshot_results(payload) if result_cache_size > 0 else [],
        result_cache_size=result_cache_size,
        tenants=tenants,
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
