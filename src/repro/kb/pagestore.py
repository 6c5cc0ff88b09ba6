"""Out-of-core fact storage: a disk-backed ``FactStore`` twin.

:class:`PagedFactStore` keeps the exact (predicate, position, value)
index contract of :class:`repro.inference.horn.FactStore` — ``add`` /
``remove`` / ``__contains__`` / ``pool`` / ``probe`` / the size
accessors / ``copy`` — but the facts and their argument-position
indexes live in SQLite tables instead of Python dicts, so programs
whose closure does not fit in memory still saturate.  The design
follows the EMBANKS move of shifting index structures to disk behind
a paged cache (PAPERS.md): the query algorithms — the Horn engine's
compiled join plans, the serving tier's snapshot reads — run
unmodified; only the bucket fetch underneath them changes, and bulk
work such as :meth:`copy` runs inside SQLite rather than as a Python
loop over facts.

Layout:

* ``facts(atom PRIMARY KEY, pred)`` — one row per ground fact, the
  atom JSON-encoded; ``WITHOUT ROWID`` so the table *is* the
  primary-key B-tree and membership checks touch one structure.
* ``args(pred, pos, value, atom)`` with a unique covering index per
  argument position — ``probe(pred, pos, value)`` is one index range
  scan that never reads the base table.

A bounded LRU **buffer pool** (capacity counted in *facts*, not
buckets, so one huge bucket cannot silently blow the cap) fronts the
probe path: hot index buckets are materialized once and then served
from memory, mutations patch cached buckets in place, and buckets
larger than half the pool are streamed rather than pinned
(``oversize`` in the stats).  Hit/miss/eviction counters feed the
out-of-core benchmark's honesty requirement.

Durability is *not* this store's contract — crash safety rides the
:class:`~repro.reliability.journal.ChurnJournal` exactly as for the
in-memory engine — so writes are group-committed (one transaction per
``commit_every`` mutations) and the file runs WAL with
``synchronous=NORMAL``.

:meth:`bulk_load` is the ReCiterDB-style ETL fast path: facts stream
into index-free staging tables with ``executemany`` batches inside one
transaction, are deduped/upserted into the real tables on commit, and
(on a cold store) the covering indexes are built *after* the load
instead of being maintained row by row.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import threading
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from pathlib import Path

__all__ = [
    "DEFAULT_BUFFER_FACTS",
    "PagedFactStore",
]

Atom = tuple[str, ...]

#: default buffer-pool capacity, in facts (not buckets)
DEFAULT_BUFFER_FACTS = 65536

#: mutations per group commit — small enough that a crash loses little
#: work, large enough that per-statement fsync never dominates a load
_COMMIT_EVERY = 20000

_FETCH_CHUNK = 2048

#: the *SQLite* page cache, in KiB: it must stay small too, or the
#: buffer pool's fact cap would be an accounting fiction
_SQLITE_CACHE_KB = 2048


def _encode(atom: Atom) -> str:
    return json.dumps(list(atom), separators=(",", ":"), ensure_ascii=False)


def _decode(text: str) -> Atom:
    return tuple(json.loads(text))


class PagedFactStore:
    """Ground facts indexed by ``(predicate, position, value)``, on disk.

    Duck-types :class:`repro.inference.horn.FactStore` through its
    public methods only (the engine and the serving snapshot readers
    never check the class).

    ``path=None`` creates a private temporary database file that
    :meth:`close` (or garbage collection) removes; ``":memory:"`` keeps
    the SQLite database RAM-resident, which still exercises the paging
    machinery and is what the parity test-matrix uses for speed.
    """

    kind = "paged"

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        buffer_facts: int = DEFAULT_BUFFER_FACTS,
        commit_every: int = _COMMIT_EVERY,
    ) -> None:
        if buffer_facts < 1:
            raise ValueError(
                f"buffer_facts must be >= 1, got {buffer_facts!r}"
            )
        self._owns_path = path is None
        if path is None:
            handle, tmp = tempfile.mkstemp(
                prefix="onion-pagestore-", suffix=".sqlite"
            )
            os.close(handle)
            path = tmp
        self.path = str(path)
        self.buffer_facts = int(buffer_facts)
        self.commit_every = int(commit_every)
        self._lock = threading.RLock()
        self._closed = False
        conn = sqlite3.connect(
            self.path, isolation_level=None, check_same_thread=False
        )
        self._conn = conn
        if self.path != ":memory:":
            conn.execute("PRAGMA journal_mode = WAL")
        conn.execute("PRAGMA synchronous = NORMAL")
        conn.execute(f"PRAGMA cache_size = -{_SQLITE_CACHE_KB}")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS facts ("
            " atom TEXT PRIMARY KEY,"
            " pred TEXT NOT NULL) WITHOUT ROWID"
        )
        conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_facts_pred"
            " ON facts (pred, atom)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS args ("
            " pred TEXT NOT NULL,"
            " pos INTEGER NOT NULL,"
            " value TEXT NOT NULL,"
            " atom TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE UNIQUE INDEX IF NOT EXISTS idx_args_cover"
            " ON args (pred, pos, value, atom)"
        )
        # buffer pool: (pred, pos, value) -> insertion-ordered bucket
        self._buffer: OrderedDict[
            tuple[str, int, str], dict[Atom, None]
        ] = OrderedDict()
        self._buffered_facts = 0
        # probe_size answers for buckets not worth materializing
        self._sizes: OrderedDict[tuple[str, int, str], int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.oversize = 0
        self._in_tx = False
        self._tx_pending = 0
        self._count = 0
        self._pred_counts: dict[str, int] = {}
        self._reload_counts()

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------
    def _reload_counts(self) -> None:
        self._pred_counts = {
            pred: count
            for pred, count in self._conn.execute(
                "SELECT pred, COUNT(*) FROM facts GROUP BY pred"
            )
        }
        self._count = sum(self._pred_counts.values())

    def _mutating(self) -> None:
        """Open (or extend) the group-commit transaction."""
        if not self._in_tx:
            self._conn.execute("BEGIN")
            self._in_tx = True
        self._tx_pending += 1
        if self._tx_pending >= self.commit_every:
            self._commit()

    def _commit(self) -> None:
        if self._in_tx:
            self._conn.execute("COMMIT")
            self._in_tx = False
            self._tx_pending = 0

    def flush(self) -> None:
        """Commit any open group-commit transaction."""
        with self._lock:
            self._commit()

    def close(self) -> None:
        """Commit, close the connection, delete an owned temp file."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._commit()
            finally:
                self._conn.close()
            if self._owns_path:
                for suffix in ("", "-wal", "-shm"):
                    try:
                        os.unlink(self.path + suffix)
                    except OSError:
                        pass

    def __del__(self) -> None:  # pragma: no cover - GC timing varies
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "PagedFactStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the buffer pool
    # ------------------------------------------------------------------
    def _evict_to(self, target: int) -> None:
        while self._buffer and self._buffered_facts > target:
            _, bucket = self._buffer.popitem(last=False)
            self._buffered_facts -= len(bucket)
            self.evictions += 1

    def _bucket(self, key: tuple[str, int, str]) -> dict[Atom, None]:
        """The materialized bucket for one index key (cached or read)."""
        bucket = self._buffer.get(key)
        if bucket is not None:
            self._buffer.move_to_end(key)
            self.hits += 1
            return bucket
        self.misses += 1
        rows = self._conn.execute(
            "SELECT atom FROM args WHERE pred = ? AND pos = ? AND value = ?",
            key,
        ).fetchall()
        bucket = {_decode(atom): None for (atom,) in rows}
        if len(bucket) <= self.buffer_facts // 2:
            self._evict_to(self.buffer_facts - len(bucket))
            self._buffer[key] = bucket
            self._buffered_facts += len(bucket)
            self._sizes.pop(key, None)
        else:
            self.oversize += 1
        return bucket

    def buffer_stats(self) -> dict[str, int | float]:
        """Buffer-pool counters, honest enough for the benchmark."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
                "evictions": self.evictions,
                "oversize": self.oversize,
                "buckets": len(self._buffer),
                "buffered_facts": self._buffered_facts,
                "buffer_facts": self.buffer_facts,
            }

    # ------------------------------------------------------------------
    # the FactStore contract
    # ------------------------------------------------------------------
    def __contains__(self, atom: Atom) -> bool:
        with self._lock:
            # a cached bucket is a complete materialization of its key,
            # so membership can be answered without touching SQLite
            for position in range(1, len(atom)):
                bucket = self._buffer.get(
                    (atom[0], position, atom[position])
                )
                if bucket is not None:
                    return atom in bucket
            row = self._conn.execute(
                "SELECT 1 FROM facts WHERE atom = ?", (_encode(atom),)
            ).fetchone()
            return row is not None

    def __len__(self) -> int:
        return self._count

    def add(self, atom: Atom) -> bool:
        """Insert a ground fact; False if already present."""
        with self._lock:
            encoded = _encode(atom)
            self._mutating()
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO facts (atom, pred) VALUES (?, ?)",
                (encoded, atom[0]),
            )
            if cursor.rowcount == 0:
                return False
            predicate = atom[0]
            self._conn.executemany(
                "INSERT OR IGNORE INTO args (pred, pos, value, atom)"
                " VALUES (?, ?, ?, ?)",
                [
                    (predicate, position, atom[position], encoded)
                    for position in range(1, len(atom))
                ],
            )
            self._count += 1
            self._pred_counts[predicate] = (
                self._pred_counts.get(predicate, 0) + 1
            )
            for position in range(1, len(atom)):
                key = (predicate, position, atom[position])
                bucket = self._buffer.get(key)
                if bucket is not None:
                    if atom not in bucket:
                        bucket[atom] = None
                        self._buffered_facts += 1
                elif key in self._sizes:
                    self._sizes[key] += 1
            if self._buffered_facts > self.buffer_facts:
                self._evict_to(self.buffer_facts)
            return True

    def remove(self, atom: Atom) -> bool:
        """Delete a fact, maintaining every index; False if absent."""
        with self._lock:
            encoded = _encode(atom)
            self._mutating()
            cursor = self._conn.execute(
                "DELETE FROM facts WHERE atom = ?", (encoded,)
            )
            if cursor.rowcount == 0:
                return False
            predicate = atom[0]
            self._conn.executemany(
                "DELETE FROM args WHERE pred = ? AND pos = ? AND value = ?"
                " AND atom = ?",
                [
                    (predicate, position, atom[position], encoded)
                    for position in range(1, len(atom))
                ],
            )
            self._count -= 1
            remaining = self._pred_counts.get(predicate, 0) - 1
            if remaining > 0:
                self._pred_counts[predicate] = remaining
            else:
                self._pred_counts.pop(predicate, None)
            for position in range(1, len(atom)):
                key = (predicate, position, atom[position])
                bucket = self._buffer.get(key)
                if bucket is not None:
                    if bucket.pop(atom, None) is not None:
                        self._buffered_facts -= 1
                elif key in self._sizes:
                    self._sizes[key] = max(0, self._sizes[key] - 1)
            return True

    def pool(self, predicate: str) -> Iterator[Atom]:
        """All facts of one predicate, streamed in index-chunk steps."""
        with self._lock:
            cursor = self._conn.execute(
                "SELECT atom FROM facts WHERE pred = ?", (predicate,)
            )
        while True:
            with self._lock:
                rows = cursor.fetchmany(_FETCH_CHUNK)
            if not rows:
                return
            for (atom,) in rows:
                yield _decode(atom)

    def pool_size(self, predicate: str) -> int:
        return self._pred_counts.get(predicate, 0)

    def probe(
        self, predicate: str, position: int, value: str
    ) -> Iterator[Atom]:
        """Facts with ``value`` at ``position`` — one buffered bucket."""
        with self._lock:
            bucket = self._bucket((predicate, position, value))
            # snapshot: the bucket may be patched by a later add/remove
            # while the caller is still consuming the iterator
            return iter(tuple(bucket))

    def probe_size(self, predicate: str, position: int, value: str) -> int:
        with self._lock:
            key = (predicate, position, value)
            bucket = self._buffer.get(key)
            if bucket is not None:
                self._buffer.move_to_end(key)
                return len(bucket)
            size = self._sizes.get(key)
            if size is not None:
                self._sizes.move_to_end(key)
                return size
            (size,) = self._conn.execute(
                "SELECT COUNT(*) FROM args"
                " WHERE pred = ? AND pos = ? AND value = ?",
                key,
            ).fetchone()
            self._sizes[key] = size
            while len(self._sizes) > 4 * _FETCH_CHUNK:
                self._sizes.popitem(last=False)
            return size

    def predicates(self) -> set[str]:
        return {p for p, n in self._pred_counts.items() if n}

    def iter_facts(self, predicate: str | None = None) -> Iterator[Atom]:
        if predicate is not None:
            yield from self.pool(predicate)
            return
        with self._lock:
            cursor = self._conn.execute("SELECT atom FROM facts")
        while True:
            with self._lock:
                rows = cursor.fetchmany(_FETCH_CHUNK)
            if not rows:
                return
            for (atom,) in rows:
                yield _decode(atom)

    def copy(self) -> "PagedFactStore":
        """An independent store in a fresh private temporary file.

        Commits the open group-commit transaction, then copies the
        database pages with SQLite's online backup — no per-fact
        Python work.  The copy keeps this store's ``buffer_facts`` and
        ``commit_every`` but starts with an empty buffer pool.
        """
        with self._lock:
            self._commit()
            fresh = PagedFactStore(
                buffer_facts=self.buffer_facts,
                commit_every=self.commit_every,
            )
            try:
                self._conn.backup(fresh._conn)
            except BaseException:
                fresh.close()  # removes the half-written temp file
                raise
        fresh._reload_counts()
        return fresh

    # ------------------------------------------------------------------
    # bulk ETL (staging + batch upsert + post-load reindex)
    # ------------------------------------------------------------------
    def bulk_load(
        self, facts: Iterable[Atom], *, batch_size: int = 20000
    ) -> dict[str, int]:
        """Stream many facts in at ETL speed; returns a load report.

        The ReCiterDB discipline: ``executemany`` batches land in
        index-free staging tables inside one transaction, the commit
        dedupes/upserts them into the real tables, and on a cold store
        the covering indexes are dropped first and rebuilt *after* the
        load (an upsert into a warm store keeps them — the unique
        index is what arbitrates the dedupe).  The buffer pool is
        invalidated wholesale at the end; a bulk load rewrites too much
        for patching to make sense.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        with self._lock:
            self._commit()
            conn = self._conn
            before = self._count
            cold = before == 0
            conn.execute(
                "CREATE TEMP TABLE staging_facts (atom TEXT, pred TEXT)"
            )
            conn.execute(
                "CREATE TEMP TABLE staging_args ("
                " pred TEXT, pos INTEGER, value TEXT, atom TEXT)"
            )
            staged = 0
            batches = 0
            try:
                if cold:
                    conn.execute("DROP INDEX IF EXISTS idx_facts_pred")
                    conn.execute("DROP INDEX IF EXISTS idx_args_cover")
                conn.execute("BEGIN")
                fact_rows: list[tuple[str, str]] = []
                arg_rows: list[tuple[str, int, str, str]] = []
                for atom in facts:
                    encoded = _encode(atom)
                    fact_rows.append((encoded, atom[0]))
                    for position in range(1, len(atom)):
                        arg_rows.append(
                            (atom[0], position, atom[position], encoded)
                        )
                    staged += 1
                    if len(fact_rows) >= batch_size:
                        conn.executemany(
                            "INSERT INTO staging_facts VALUES (?, ?)",
                            fact_rows,
                        )
                        conn.executemany(
                            "INSERT INTO staging_args VALUES (?, ?, ?, ?)",
                            arg_rows,
                        )
                        fact_rows.clear()
                        arg_rows.clear()
                        batches += 1
                if fact_rows:
                    conn.executemany(
                        "INSERT INTO staging_facts VALUES (?, ?)", fact_rows
                    )
                    conn.executemany(
                        "INSERT INTO staging_args VALUES (?, ?, ?, ?)",
                        arg_rows,
                    )
                    batches += 1
                # dedupe/upsert on commit: within the staged batch via
                # DISTINCT, against prior contents via OR IGNORE on the
                # primary key / unique covering index
                conn.execute(
                    "INSERT OR IGNORE INTO facts (atom, pred)"
                    " SELECT DISTINCT atom, pred FROM staging_facts"
                )
                if cold:
                    conn.execute(
                        "INSERT INTO args (pred, pos, value, atom)"
                        " SELECT DISTINCT pred, pos, value, atom"
                        " FROM staging_args"
                    )
                else:
                    conn.execute(
                        "INSERT OR IGNORE INTO args (pred, pos, value, atom)"
                        " SELECT DISTINCT pred, pos, value, atom"
                        " FROM staging_args"
                    )
                conn.execute("COMMIT")
            except BaseException:
                if conn.in_transaction:
                    conn.execute("ROLLBACK")
                raise
            finally:
                if cold:
                    conn.execute(
                        "CREATE INDEX IF NOT EXISTS idx_facts_pred"
                        " ON facts (pred, atom)"
                    )
                    conn.execute(
                        "CREATE UNIQUE INDEX IF NOT EXISTS idx_args_cover"
                        " ON args (pred, pos, value, atom)"
                    )
                conn.execute("DROP TABLE IF EXISTS staging_facts")
                conn.execute("DROP TABLE IF EXISTS staging_args")
            self._buffer.clear()
            self._buffered_facts = 0
            self._sizes.clear()
            self._reload_counts()
            return {
                "staged": staged,
                "batches": batches,
                "added": self._count - before,
                "deduplicated": staged - (self._count - before),
                "facts": self._count,
                "predicates": len(self._pred_counts),
                "reindexed": int(cold),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PagedFactStore path={self.path!r} facts={self._count} "
            f"buffer={self._buffered_facts}/{self.buffer_facts}>"
        )

