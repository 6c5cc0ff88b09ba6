"""A write-ahead journal making batched churn crash-safe.

:meth:`~repro.inference.horn.HornEngine.apply_batch` with a journal
attached records the coalesced diff durably *before* touching the
engine, and marks it committed once the batch reached its fixpoint.  A
process killed in between loses only volatile state:
:meth:`ChurnJournal.recover` folds the last snapshot plus every
journaled batch — committed or not — into a fresh engine at the
fixpoint the interrupted batch was driving toward.

The journal is a SQLite database (WAL, ``synchronous=FULL``): a one-row
``snapshot`` table holds the program's facts and clauses as one JSON
document, and a ``batch`` table one row per begun batch.  Each begin,
commit and snapshot is one committed transaction, so a crash mid-write
leaves the whole record or none of it — as in the DB-nets line of work,
a batch either committed its begin record (recovery replays it) or
never started.  A file SQLite cannot open as a journal raises
:class:`JournalError` and is left as it was.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import OnionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.inference.horn import Atom, HornEngine

__all__ = ["ChurnJournal", "JournalError"]

# Outside recovery the journal is only written, hence the small cache.
_SCHEMA = """
PRAGMA journal_mode = WAL;
PRAGMA synchronous = FULL;
PRAGMA cache_size = -64;
CREATE TABLE IF NOT EXISTS snapshot (
    id INTEGER PRIMARY KEY CHECK (id = 1), doc TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS batch (
    seq INTEGER PRIMARY KEY, adds TEXT NOT NULL, retracts TEXT NOT NULL,
    committed INTEGER NOT NULL DEFAULT 0);
"""


class JournalError(OnionError):
    """The churn journal is unusable (not a journal file, bad path)."""


class ChurnJournal:
    """Durable intent log for :meth:`HornEngine.apply_batch` diffs.

    One connection serves every thread (the service journals from
    request threads and reads :meth:`pending` outside its write lock);
    a lock serializes the methods on it.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        conn = None
        try:
            conn = sqlite3.connect(
                self.path, isolation_level=None, check_same_thread=False
            )
            # read before any write: a foreign file must stay untouched
            names = {
                name
                for (name,) in conn.execute("SELECT name FROM sqlite_master")
            }
            if names - {"snapshot", "batch"}:
                raise sqlite3.DatabaseError(f"foreign tables {sorted(names)}")
            conn.executescript(_SCHEMA)
            (last,) = conn.execute("SELECT MAX(seq) FROM batch").fetchone()
        except sqlite3.Error as exc:
            if conn is not None:
                conn.close()
            raise JournalError(
                f"cannot open {str(self.path)!r} as a churn journal: {exc}"
            ) from exc
        self._conn = conn
        self._next_seq = (last or 0) + 1

    def close(self) -> None:
        """Close the connection (idempotent); the last one folds the WAL back."""
        with self._lock:
            self._conn.close()

    def begin(self, adds: list["Atom"], retracts: list["Atom"]) -> int:
        """Durably record a batch's full diff; returns its sequence id."""
        with self._lock:
            seq = self._next_seq
            self._conn.execute(
                "INSERT INTO batch (seq, adds, retracts) VALUES (?, ?, ?)",
                (seq, json.dumps(adds), json.dumps(retracts)),
            )
            self._next_seq = seq + 1
        return seq

    def commit(self, seq: int) -> None:
        """Mark a journaled batch as fully applied (fixpoint reached)."""
        with self._lock:
            self._conn.execute(
                "UPDATE batch SET committed = 1 WHERE seq = ?", (seq,)
            )

    def snapshot(self, engine: "HornEngine") -> None:
        """Compact: replace the log with the engine's current program."""
        self.snapshot_state(engine.base_facts(), engine.clauses())

    def snapshot_state(self, facts, clauses=()) -> int:
        """Compact to an explicit ``(facts, clauses)`` program (the bulk
        ingest path has no engine yet); returns the facts written."""
        atoms = sorted(facts)
        doc = json.dumps(
            {"facts": atoms, "clauses": [[c.head, c.body] for c in clauses]}
        )
        # one transaction: a crash leaves the old snapshot and batches
        with self._lock, self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            self._conn.execute(
                "INSERT OR REPLACE INTO snapshot VALUES (1, ?)", (doc,)
            )
            self._conn.execute("DELETE FROM batch")
        return len(atoms)

    def empty(self) -> bool:
        """True when the journal holds neither a snapshot nor a batch."""
        with self._lock:
            (found,) = self._conn.execute(
                "SELECT EXISTS (SELECT 1 FROM snapshot)"
                " OR EXISTS (SELECT 1 FROM batch)"
            ).fetchone()
        return not found

    def pending(self) -> list[int]:
        """Sequence ids journaled but never committed (crash victims)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT seq FROM batch WHERE committed = 0 ORDER BY seq"
            ).fetchall()
        return [seq for (seq,) in rows]

    def recover(self, **engine_kwargs: object) -> tuple["HornEngine", dict]:
        """Rebuild an engine at the journal's last consistent fixpoint.

        Folds the snapshot and every durable batch, committed or pending,
        into a fresh :class:`HornEngine` built with ``engine_kwargs``
        (e.g. ``storage="paged"``), saturates it, and commits the
        replayed pending batches so a second recovery is a no-op.  The
        report counts ``batches`` folded, ``replayed_pending`` crash
        victims, and base ``facts`` after the fold.

        An existing paged database (``storage_path``, the ingest
        handoff) keeps whatever it last committed — facts retracted
        since, and everything derived from them — so before saturating
        the store retains only the fold's facts, a set difference run
        inside SQLite.
        """
        from repro.core.rules import HornClause
        from repro.inference.horn import HornEngine

        with self._lock:
            row = self._conn.execute("SELECT doc FROM snapshot").fetchone()
            batches = self._conn.execute(
                "SELECT seq, adds, retracts, committed FROM batch"
                " ORDER BY seq"
            ).fetchall()
        doc = json.loads(row[0]) if row else {"facts": [], "clauses": []}
        facts = {tuple(atom) for atom in doc["facts"]}
        pending = 0
        for _seq, adds, retracts, committed in batches:
            # retract-then-add: the order apply_batch applies diffs
            facts.difference_update(tuple(a) for a in json.loads(retracts))
            facts.update(tuple(a) for a in json.loads(adds))
            pending += not committed
        engine = HornEngine(journal=self, **engine_kwargs)  # type: ignore[arg-type]
        if len(engine.store):  # only a reopened paged file starts non-empty
            engine.store.retain(facts)  # type: ignore[attr-defined]
        engine.add_clauses(
            HornClause(tuple(head), tuple(tuple(a) for a in body))
            for head, body in doc["clauses"]
        )
        engine.add_facts(sorted(facts))
        engine.saturate()
        if pending:
            with self._lock:
                self._conn.execute(
                    "UPDATE batch SET committed = 1"
                    " WHERE committed = 0 AND seq <= ?",
                    (batches[-1][0],),
                )
        return engine, {
            "batches": len(batches),
            "replayed_pending": pending,
            "facts": len(facts),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ChurnJournal path={str(self.path)!r}>"
