"""Knowledge bases: instance stores behind the source wrappers.

Storage itself is pluggable (see :mod:`repro.kb.backends`): the store
validates against an ontology and expands subclass closure, while a
backend — in-memory or SQLite — holds the rows and answers streaming
scans with pushed-down filters and projections.

The out-of-core layer lives here too: :mod:`repro.kb.pagestore` is
the disk-backed ``FactStore`` twin the inference engines select with
``storage="paged"``, and :mod:`repro.kb.ingest` is the bulk ETL path
that fills its databases at ``executemany`` speed.
"""

from repro.kb.backends import (
    BACKENDS,
    InMemoryBackend,
    SQLiteBackend,
    StorageBackend,
    create_backend,
)
from repro.kb.ingest import ingest_facts, iter_fact_file
from repro.kb.instances import Instance, InstanceStore
from repro.kb.pagestore import PagedFactStore

__all__ = [
    "BACKENDS",
    "InMemoryBackend",
    "Instance",
    "InstanceStore",
    "PagedFactStore",
    "SQLiteBackend",
    "StorageBackend",
    "create_backend",
    "ingest_facts",
    "iter_fact_file",
]
