"""The result cache: one LRU class behind every cache tier of the service.

Answers to the paper's decision problems are pure functions of the canonical
request bytes (:func:`repro.service.wire.request_cache_key`, tenant embedded,
id/deadline excluded) and of the Γ they were answered against, so a backend
needs one cache, in the process that sees every request.  Each backend keeps
exactly one :class:`ResultCache`:

* the in-process :class:`~repro.service.session.Session` holds one — the
  session tier (a shard worker's session is built with none);
* the :class:`~repro.service.executor.ShardExecutor`'s parent-side session
  holds one — the shared tier, consulted before any request is dealt to a
  worker and fed back from every worker's reply, so any shard's computation
  warms the cache for every later caller.

Results are stored with ``id=None`` (the caller's id is re-stamped on hit)
and error results are never cached, so a hit is byte-identical to
recomputing.  Each entry carries the :func:`cache_stamp` of the Γ it
answered; a lookup under another stamp misses and drops it, so a Γ write
touches no entry (stale ones count towards ``size`` until a lookup or an
eviction reaches them).  Hit/miss counters, total and per tenant (under the
registry's tenant-label cap), live in the cache's own
:class:`~repro.service.telemetry.MetricsRegistry` and feed the stats
surface.  Every operation takes a lock: the shared tier is reached from the
micro-batcher's worker thread and from control lines alike.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable
from dataclasses import replace
from typing import Optional

from repro.service.telemetry import MetricsRegistry
from repro.service.wire import QueryRequest, QueryResult

__all__ = ["ResultCache", "cache_stamp"]

# key -> (stamp, result-without-caller-id)
Entry = tuple[int, QueryResult]


def cache_stamp(request: QueryRequest, generation_of: Callable[[Optional[str]], int]) -> int:
    """The tenant's Γ generation for a request that reads its tenant's base Γ, else ``-1``.

    Requests carrying their own dependency set read no tenant Γ, and neither
    does ``fd_implies``, which reasons over its own Σ.
    """
    if request.dependencies is None and request.kind != "fd_implies":
        return generation_of(request.tenant)
    return -1


class ResultCache:
    """A lock-protected LRU of wire results keyed on canonical request bytes.

    ``entries`` seeds the cache (the snapshot restore path); beyond
    ``maxsize`` the least recent ones are dropped.
    """

    def __init__(self, maxsize: int = 4096, entries: Iterable[tuple[str, Entry]] = ()) -> None:
        self._maxsize = max(0, maxsize)
        self._lock = threading.Lock()
        kept = list(entries)
        self._entries: "OrderedDict[str, Entry]" = OrderedDict(
            kept[max(0, len(kept) - self._maxsize) :]
        )
        # Per-tenant counters are keyed by display label, so None and a
        # tenant named "default" add up.
        self.metrics = MetricsRegistry()

    @property
    def enabled(self) -> bool:
        return self._maxsize > 0

    def lookup(
        self, key: str, request_id: Optional[str], tenant: Optional[str] = None, stamp: int = -1
    ) -> Optional[QueryResult]:
        """The cached result re-stamped with the caller's id, or ``None``.

        An entry under another stamp is a miss and is dropped, so its
        recomputed answer re-enters at the most recent end.
        """
        if not self._maxsize:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry[0] == stamp:
                    self._entries.move_to_end(key)
                    self.metrics.inc_tenant("hits", tenant)
                    return replace(entry[1], id=request_id, cached=True)
                del self._entries[key]
            self.metrics.inc_tenant("misses", tenant)
            return None

    def store(self, key: str, result: QueryResult, stamp: int = -1) -> None:
        """Insert a computed result (error results are never cached)."""
        if not self._maxsize or not result.ok:
            return
        with self._lock:
            self._entries[key] = (stamp, replace(result, id=None, cached=False))
            self.metrics.inc("stores")
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self.metrics.inc("evictions")

    def entries(self) -> list[tuple[str, Entry]]:
        """Every entry, least recent first (what a snapshot captures)."""
        with self._lock:
            return list(self._entries.items())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def info(self) -> dict:
        """Counters and per-tenant traffic (sorted by label), shaped for the stats surface."""
        metrics = self.metrics
        with self._lock:
            return {
                "hits": metrics.value("hits"),
                "misses": metrics.value("misses"),
                "stores": metrics.value("stores"),
                "evictions": metrics.value("evictions"),
                "size": len(self._entries),
                "maxsize": self._maxsize,
                "per_tenant": metrics.per_tenant("", ("hits", "misses")),
            }
