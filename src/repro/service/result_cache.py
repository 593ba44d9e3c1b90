"""The result cache: one LRU class behind every cache tier of the service.

Answers to the paper's decision problems are pure functions of the canonical
request bytes (:func:`repro.service.wire.request_cache_key`, tenant embedded,
id/deadline excluded) and of the Γ they were answered against, so every tier
caches them the same way through :class:`ResultCache`:

* each :class:`~repro.service.session.Session` holds one — the in-process
  tier, and the per-worker tier inside every shard worker;
* the :class:`~repro.service.executor.ShardExecutor` holds one in the parent
  — the shared tier, consulted before any request is dealt to a worker and
  fed back from every worker's reply, so any shard's computation warms the
  cache for every later caller.

Results are stored with ``id=None`` (the caller's id is re-stamped on hit)
and error results are never cached, so a hit is byte-identical to
recomputing.  Entries answered against a tenant's base Γ are marked, and
:meth:`ResultCache.invalidate_tenant` drops exactly those when that tenant's
Γ grows.  Per-tenant hit/miss counters feed the stats surface.  Every
operation takes a lock: the shared tier is reached from the micro-batcher's
worker thread and from control lines alike.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import replace
from typing import Optional

from repro.service.wire import QueryRequest, QueryResult

__all__ = ["ResultCache", "gamma_dependent", "tenant_label"]

# key -> (uses_tenant_gamma, tenant, result-without-caller-id)
Entry = tuple[bool, Optional[str], QueryResult]


def tenant_label(tenant: Optional[str]) -> str:
    """The display name of a tenant key (``None`` is the default tenant)."""
    return "default" if tenant is None else tenant


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
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        # Keyed by display label, so None and a tenant named "default" add up.
        self._tenant_hits: dict[str, int] = {}
        self._tenant_misses: dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        return self._maxsize > 0

    def lookup(
        self, key: str, request_id: Optional[str], tenant: Optional[str] = None
    ) -> Optional[QueryResult]:
        """The cached result re-stamped with the caller's id, or ``None``."""
        if not self._maxsize:
            return None
        label = tenant_label(tenant)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                self._tenant_hits[label] = self._tenant_hits.get(label, 0) + 1
                return replace(entry[2], id=request_id, cached=True)
            self._misses += 1
            self._tenant_misses[label] = self._tenant_misses.get(label, 0) + 1
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
            self._stores += 1
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

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
        with self._lock:
            labels = sorted(set(self._tenant_hits) | set(self._tenant_misses))
            return {
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "evictions": self._evictions,
                "size": len(self._entries),
                "maxsize": self._maxsize,
                "per_tenant": {
                    label: {
                        "hits": self._tenant_hits.get(label, 0),
                        "misses": self._tenant_misses.get(label, 0),
                    }
                    for label in labels
                },
            }
