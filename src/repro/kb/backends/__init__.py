"""Pluggable storage backends for instance stores.

The mediator never depends on how a source stores its data (paper
Fig. 1): :class:`~repro.kb.instances.InstanceStore` delegates all
storage to a :class:`StorageBackend`, and everything above the store —
planner, executor — only ever sees the streaming ``scan`` protocol.  Two implementations ship: the dict-indexed
:class:`InMemoryBackend` (the store's historical internals, extracted)
and the persistent :class:`SQLiteBackend` with SQL-side pushdown.
"""

from __future__ import annotations

from repro.errors import KnowledgeBaseError
from repro.kb.backends.base import ScanStats, StorageBackend, matches_conditions
from repro.kb.backends.memory import InMemoryBackend
from repro.kb.backends.sqlite import SQLiteBackend, condition_to_sql

__all__ = [
    "BACKENDS",
    "InMemoryBackend",
    "SQLiteBackend",
    "ScanStats",
    "StorageBackend",
    "condition_to_sql",
    "create_backend",
    "matches_conditions",
]

BACKENDS = {
    "memory": InMemoryBackend,
    "sqlite": SQLiteBackend,
}


def create_backend(kind: str, **kwargs: object) -> StorageBackend:
    """Instantiate a backend by name (``memory`` or ``sqlite``)."""
    try:
        factory = BACKENDS[kind]
    except KeyError:
        raise KnowledgeBaseError(
            f"unknown storage backend {kind!r}; known: {sorted(BACKENDS)}"
        ) from None
    return factory(**kwargs)  # type: ignore[arg-type]
