"""SQLite backend resilience: busy timeout, rollback, context-manager
lifecycle.

Lock tests hold a real lock from a second connection on a file
database.  SQLite's own busy handler waits the lock out for up to
``busy_timeout_ms``; with ``busy_timeout_ms=0`` the backend sees
"database is locked" at once.
"""

from __future__ import annotations

import sqlite3
import time

import pytest

from repro.kb.backends.sqlite import SQLiteBackend
from repro.kb.instances import Instance


def _instance(i: int) -> Instance:
    return Instance(f"i{i}", "Car", {"price": i})


def _write_locker(path) -> sqlite3.Connection:
    """A second connection holding the database's write lock."""
    other = sqlite3.connect(path, isolation_level=None)
    other.execute("BEGIN IMMEDIATE")
    return other


class TestBusyTimeoutAndRetry:
    def test_busy_timeout_pragma_applied(self) -> None:
        backend = SQLiteBackend(busy_timeout_ms=1234)
        (value,) = backend._conn.execute("PRAGMA busy_timeout").fetchone()
        assert value == 1234
        backend.close()

    def test_lock_that_outlives_retries_raises(self, tmp_path) -> None:
        """SQLite's busy handler retries a held lock until
        ``busy_timeout_ms`` runs out; at 0 it gives up at once (the
        default would wait 5 s) and the insert leaves no row."""
        path = tmp_path / "kb.db"
        backend = SQLiteBackend(path, busy_timeout_ms=0)
        other = _write_locker(path)
        started = time.perf_counter()
        try:
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                backend.insert(_instance(0))
        finally:
            other.close()
        assert time.perf_counter() - started < 2.0
        assert len(backend) == 0
        backend.close()

    def test_non_lock_operational_error_not_retried(self) -> None:
        """Any other OperationalError reaches the caller unchanged, and
        the connection stays usable."""
        backend = SQLiteBackend()
        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            backend._execute("SELECT * FROM no_such_table")
        backend.insert(_instance(0))
        assert len(backend) == 1
        backend.close()

    def test_real_cross_connection_lock_is_waited_out(self, tmp_path) -> None:
        """A second connection holding a write lock stalls, not kills,
        the backend (busy_timeout)."""
        path = tmp_path / "kb.db"
        backend = SQLiteBackend(path, busy_timeout_ms=2000)
        backend.insert(_instance(0))
        other = sqlite3.connect(path, check_same_thread=False)
        other.execute("BEGIN IMMEDIATE")
        try:
            import threading

            def release() -> None:
                other.commit()

            timer = threading.Timer(0.1, release)
            timer.start()
            backend.insert(_instance(1))  # blocks until the lock frees
            timer.join()
        finally:
            other.close()
        assert len(backend) == 2
        backend.close()


class TestBulkRollback:
    def test_mid_bulk_failure_leaves_table_unchanged(self) -> None:
        backend = SQLiteBackend()
        backend.insert(_instance(0))
        with pytest.raises(RuntimeError):
            with backend.bulk():
                backend.insert(_instance(1))
                backend.insert(_instance(2))
                raise RuntimeError("load failed mid-bulk")
        assert len(backend) == 1
        assert backend.get("i1") is None
        # the connection is not wedged in a stale transaction
        assert not backend._conn.in_transaction
        backend.insert(_instance(3))
        assert len(backend) == 2
        backend.close()

    def test_mid_bulk_injected_lock_exhaustion_rolls_back(
        self, tmp_path
    ) -> None:
        """Even a lock outliving the busy timeout inside a bulk leaves
        the table at its pre-bulk state: a second connection's open read
        transaction keeps the bulk's COMMIT from its exclusive lock."""
        path = tmp_path / "kb.db"
        backend = SQLiteBackend(path, busy_timeout_ms=0)
        backend.insert(_instance(0))
        reader = sqlite3.connect(path, isolation_level=None)
        reader.execute("BEGIN")
        reader.execute("SELECT COUNT(*) FROM instances").fetchone()
        try:
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                with backend.bulk():
                    backend.insert(_instance(1))
        finally:
            reader.close()
        assert len(backend) == 1
        assert backend.get("i1") is None
        assert not backend._conn.in_transaction
        backend.close()

    def test_bulk_commit_persists(self) -> None:
        backend = SQLiteBackend()
        with backend.bulk():
            for i in range(5):
                backend.insert(_instance(i))
        assert len(backend) == 5
        backend.close()


class TestRollbackFailureRecovery:
    """Regression: a ROLLBACK that itself raises used to leave the
    connection wedged inside a half-open transaction — a later bulk()
    would BEGIN on top of the stale BEGIN and die.  The backend now
    discards and replaces the connection."""

    def _fail_rollback(self, backend, monkeypatch) -> None:
        def boom() -> None:
            raise sqlite3.OperationalError("disk I/O error (rollback)")

        monkeypatch.setattr(backend, "_rollback", boom)

    def test_memory_backend_usable_after_rollback_failure(
        self, monkeypatch
    ) -> None:
        backend = SQLiteBackend()
        backend.insert(_instance(0))
        self._fail_rollback(backend, monkeypatch)
        with pytest.raises(RuntimeError, match="mid-bulk"):
            with backend.bulk():
                backend.insert(_instance(1))
                raise RuntimeError("load failed mid-bulk")
        monkeypatch.undo()
        # the replacement connection carries no half-open transaction
        assert not backend._conn.in_transaction
        with backend.bulk():  # a later bulk() must work end to end
            backend.insert(_instance(7))
        assert backend.get("i7") is not None
        backend.close()

    def test_file_backend_keeps_committed_rows(
        self, tmp_path, monkeypatch
    ) -> None:
        backend = SQLiteBackend(tmp_path / "kb.db")
        backend.insert(_instance(0))
        self._fail_rollback(backend, monkeypatch)
        with pytest.raises(RuntimeError):
            with backend.bulk():
                backend.insert(_instance(1))
                raise RuntimeError("load failed mid-bulk")
        monkeypatch.undo()
        assert not backend._conn.in_transaction
        # durable pre-bulk state survived the connection swap...
        assert backend.get("i0") is not None
        # ...the uncommitted bulk work did not...
        assert backend.get("i1") is None
        # ...and the backend takes new transactions
        with backend.bulk():
            backend.insert(_instance(2))
        assert len(backend) == 2
        backend.close()

    def test_rollback_success_path_untouched(self) -> None:
        backend = SQLiteBackend()
        with pytest.raises(RuntimeError):
            with backend.bulk():
                backend.insert(_instance(1))
                raise RuntimeError("boom")
        assert not backend._conn.in_transaction
        assert backend.get("i1") is None
        backend.close()


class TestContextManager:
    def test_with_statement_closes_connection(self) -> None:
        with SQLiteBackend() as backend:
            backend.insert(_instance(0))
            assert len(backend) == 1
        with pytest.raises(sqlite3.ProgrammingError):
            backend._conn.execute("SELECT 1")

    def test_close_propagates_body_exception(self) -> None:
        with pytest.raises(RuntimeError, match="boom"):
            with SQLiteBackend() as backend:
                raise RuntimeError("boom")
        with pytest.raises(sqlite3.ProgrammingError):
            backend._conn.execute("SELECT 1")
