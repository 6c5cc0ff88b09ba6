"""Bulk fact ingest: file → staged batches → paged store (+ journal).

The ETL counterpart to fact-at-a-time churn, modeled on ReCiterDB's
load discipline: facts stream out of a JSON-lines or TSV file in
``executemany``-sized batches into :meth:`PagedFactStore.bulk_load`'s
index-free staging tables, are deduped/upserted in one transaction,
and the covering indexes are built *after* the load on a cold store.
When asked, the load ends with a single
:meth:`~repro.reliability.journal.ChurnJournal.snapshot_state`, so an
ingested base recovers exactly like a churned one.

Use ingest when the diff is the dataset (initial load, nightly
re-sync): a million facts land in seconds and the journal holds one
snapshot.  Use churn (:meth:`HornEngine.apply_batch`) when the diff
is small relative to the base: it keeps the saturated closure
incremental and write-ahead logs just the delta.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.errors import KnowledgeBaseError
from repro.kb.pagestore import DEFAULT_BUFFER_FACTS, PagedFactStore

__all__ = ["ingest_facts", "iter_fact_file"]

Atom = tuple[str, ...]


def _parse_jsonl_line(line: str, where: str) -> Atom:
    try:
        parts = json.loads(line)
    except json.JSONDecodeError as exc:
        raise KnowledgeBaseError(f"{where}: not valid JSON: {exc}") from None
    if (
        not isinstance(parts, list)
        or len(parts) < 1
        or not all(isinstance(p, str) for p in parts)
    ):
        raise KnowledgeBaseError(
            f"{where}: a fact is a JSON array of strings "
            f"[predicate, arg, ...], got {parts!r}"
        )
    return tuple(parts)


def iter_fact_file(
    path: str | Path, *, fmt: str = "auto"
) -> Iterator[Atom]:
    """Stream ground atoms out of a fact file, one per line.

    ``jsonl`` lines are JSON arrays of strings
    (``["implies", "a:Car", "b:Vehicle"]``); ``tsv`` lines are
    tab-separated (``implies\\ta:Car\\tb:Vehicle``).  ``auto`` sniffs
    per the first non-blank line.  Blank lines and ``#`` comments are
    skipped.  The stream is lazy — a million-fact file never sits in
    memory.
    """
    if fmt not in ("auto", "jsonl", "tsv"):
        raise KnowledgeBaseError(f"unknown fact-file format {fmt!r}")
    with open(path, encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if fmt == "auto":
                fmt = "jsonl" if line.startswith("[") else "tsv"
            where = f"{path}:{number}"
            if fmt == "jsonl":
                yield _parse_jsonl_line(line, where)
            else:
                yield tuple(line.split("\t"))


def ingest_facts(
    db_path: str | Path,
    facts: Iterable[Atom],
    *,
    batch_size: int = 20000,
    buffer_facts: int = DEFAULT_BUFFER_FACTS,
    journal_path: str | Path | None = None,
) -> dict[str, object]:
    """Bulk-load facts into a paged store database; returns a report.

    The database at ``db_path`` is created if missing and upserted
    into if not — re-running an ingest is idempotent (the dedupe
    happens on commit, against both the staged batch and prior
    contents).  With ``journal_path``, the full post-load fact base is
    written as one :class:`ChurnJournal` snapshot, making the ingested
    state the recovery baseline.  The resulting database is what an
    engine opens via ``storage="paged", storage_path=db_path``.
    """
    started = time.perf_counter()
    store = PagedFactStore(db_path, buffer_facts=buffer_facts)
    try:
        report: dict[str, object] = store.bulk_load(
            facts, batch_size=batch_size
        )
        journaled = 0
        if journal_path is not None:
            from repro.reliability.journal import ChurnJournal

            journal = ChurnJournal(journal_path)
            try:
                journaled = journal.snapshot_state(store.iter_facts())
            finally:
                journal.close()
        report["journaled"] = journaled
        report["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
        report["db"] = str(db_path)
        return report
    finally:
        store.close()
