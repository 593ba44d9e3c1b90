"""The result cache: one LRU class behind every cache tier of the service.

Answers to the paper's decision problems are pure functions of the canonical
request bytes (:func:`repro.service.wire.request_cache_key`, tenant embedded,
id/deadline excluded) and of the Γ they were answered against, so a backend
needs one cache, in the process that sees every request.  Each backend keeps
exactly one :class:`ResultCache`:

* the in-process :class:`~repro.service.session.Session` holds one — the
  session tier (a shard worker's session is built with none);
* the :class:`~repro.service.executor.ShardExecutor` holds one in the parent
  — the shared tier, consulted before any request is dealt to a worker and
  fed back from every worker's reply, so any shard's computation warms the
  cache for every later caller.

Results are stored with ``id=None`` (the caller's id is re-stamped on hit)
and error results are never cached, so a hit is byte-identical to
recomputing.  Entries answered against a tenant's base Γ are marked, and
:meth:`ResultCache.invalidate_tenant` drops exactly those when that tenant's
Γ grows.  Hit/miss counters, total and per tenant (under the registry's
tenant-label cap), live in the cache's own
:class:`~repro.service.telemetry.MetricsRegistry` and feed the stats
surface.  Every operation takes a lock: the shared tier is reached from the
micro-batcher's worker thread and from control lines alike.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import replace
from typing import Optional

from repro.service.telemetry import MetricsRegistry
from repro.service.wire import QueryRequest, QueryResult

__all__ = ["ResultCache", "gamma_dependent"]

# key -> (uses_tenant_gamma, tenant, result-without-caller-id)
Entry = tuple[bool, Optional[str], QueryResult]


def gamma_dependent(request: QueryRequest) -> bool:
    """Whether a request's answer depends on its tenant's base Γ.

    Requests carrying their own dependency set do not, and neither does
    ``fd_implies``, which reasons over its own Σ — their entries survive
    :meth:`ResultCache.invalidate_tenant`.
    """
    return request.dependencies is None and request.kind != "fd_implies"


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
        self, key: str, request_id: Optional[str], tenant: Optional[str] = None
    ) -> Optional[QueryResult]:
        """The cached result re-stamped with the caller's id, or ``None``."""
        if not self._maxsize:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.metrics.inc_tenant("hits", tenant)
                return replace(entry[2], id=request_id, cached=True)
            self.metrics.inc_tenant("misses", tenant)
            return None

    def store(
        self,
        key: str,
        result: QueryResult,
        tenant: Optional[str] = None,
        uses_tenant_gamma: bool = False,
    ) -> None:
        """Insert a computed result (error results are never cached)."""
        if not self._maxsize or not result.ok:
            return
        with self._lock:
            self._entries[key] = (uses_tenant_gamma, tenant, replace(result, id=None, cached=False))
            self.metrics.inc("stores")
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self.metrics.inc("evictions")

    def invalidate_tenant(self, tenant: Optional[str]) -> int:
        """Drop the tenant's base-Γ entries (its Γ grew); returns the count dropped."""
        with self._lock:
            keep = OrderedDict(
                (key, entry)
                for key, entry in self._entries.items()
                if not (entry[0] and entry[1] == tenant)
            )
            dropped = len(self._entries) - len(keep)
            self._entries = keep
            return dropped

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
