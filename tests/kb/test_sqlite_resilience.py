"""SQLite backend resilience: busy timeout, lock retry, rollback,
context-manager lifecycle."""

from __future__ import annotations

import sqlite3

import pytest

from repro.kb.backends.sqlite import SQLiteBackend
from repro.kb.instances import Instance
from repro.reliability import FaultPlan, RetryPolicy

FAST = RetryPolicy(max_retries=3, backoff_base=0.001, backoff_cap=0.005)


def _instance(i: int) -> Instance:
    return Instance(f"i{i}", "Car", {"price": i})


class TestBusyTimeoutAndRetry:
    def test_busy_timeout_pragma_applied(self) -> None:
        backend = SQLiteBackend(busy_timeout_ms=1234)
        (value,) = backend._conn.execute("PRAGMA busy_timeout").fetchone()
        assert value == 1234
        backend.close()

    def test_injected_lock_is_retried_transparently(self) -> None:
        plan = FaultPlan(seed=0, rates={"sqlite_lock": 1.0}, max_fires=3)
        backend = SQLiteBackend(retry_policy=FAST, fault_plan=plan)
        backend.insert(_instance(0))
        assert backend.get("i0") is not None
        assert backend.lock_retries >= 1
        backend.close()

    def test_lock_that_outlives_retries_raises(self) -> None:
        backend = SQLiteBackend(
            retry_policy=RetryPolicy(
                max_retries=0, backoff_base=0.0, backoff_cap=0.0
            ),
        )
        # arm after construction so the schema DDL is not the victim
        backend._fault_plan = FaultPlan(seed=0, rates={"sqlite_lock": 1.0})
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            backend.insert(_instance(0))
        backend.close()

    def test_non_lock_operational_error_not_retried(self) -> None:
        backend = SQLiteBackend(retry_policy=FAST)
        with pytest.raises(sqlite3.OperationalError):
            backend._execute("SELECT * FROM no_such_table")
        assert backend.lock_retries == 0
        backend.close()

    def test_real_cross_connection_lock_is_waited_out(self, tmp_path) -> None:
        """A second connection holding a write lock stalls, not kills,
        the backend (busy_timeout + retry loop)."""
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

    def test_mid_bulk_injected_lock_exhaustion_rolls_back(self) -> None:
        """Even the retry loop giving up inside a bulk leaves the
        table at its pre-bulk state."""
        backend = SQLiteBackend(
            retry_policy=RetryPolicy(
                max_retries=0, backoff_base=0.0, backoff_cap=0.0
            ),
        )
        backend.insert(_instance(0))
        # arm the fault only for the statements inside the bulk
        backend._fault_plan = FaultPlan(
            seed=0, rates={"sqlite_lock": 1.0}, max_fires=1
        )
        with pytest.raises(sqlite3.OperationalError):
            with backend.bulk():
                backend.insert(_instance(1))
        backend._fault_plan = None
        assert len(backend) == 1
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
