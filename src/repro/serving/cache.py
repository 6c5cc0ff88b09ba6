"""The server-wide query-result cache.

Sits *in front of* the planner, and is the read path's only cache: a
hit returns the finished result rows without planning, reformulating,
or scanning any backend at all.  Entries are keyed on

``(kind, request text, articulation fingerprint, engine version)``

so invalidation is structural rather than imperative:

* the **articulation fingerprint**
  (:meth:`~repro.core.articulation.Articulation.fingerprint`) moves
  whenever a bridge, conversion function, rule, or source graph
  changes — everything reformulation reads;
* the **engine version** is the serving tier's publication counter,
  bumped by every write the
  :class:`~repro.serving.service.ArticulationService` publishes
  (churn batches, refreshes, raw fact diffs) — it covers inference
  results, whose closure can change even when the articulation
  fingerprint does not (a raw ``/facts`` diff).

Stale keys can therefore never hit; :meth:`invalidate` additionally
drops them eagerly on the churn path so memory is not held by history.
All operations take one small lock — the cache is shared by every
request thread.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["QueryResultCache"]


class QueryResultCache:
    """A thread-safe LRU over finished query results."""

    def __init__(self, maxsize: int = 512) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize!r}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0

    @staticmethod
    def key(
        kind: str, text: str, fingerprint: object, engine_version: int
    ) -> tuple:
        """The cache key for one request against one published state."""
        return (kind, text, fingerprint, engine_version)

    def get(self, key: tuple):
        """The cached value, or None — and it counts a hit or miss."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: tuple, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def invalidate(self) -> int:
        """Drop every entry (the churn path); returns how many died."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._invalidations += 1
            return dropped

    def stats(self) -> dict[str, int | float]:
        """Hit/miss counters and the derived hit rate."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": (self._hits / total) if total else 0.0,
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "invalidations": self._invalidations,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
