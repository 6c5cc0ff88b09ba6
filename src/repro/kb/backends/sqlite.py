"""SQLite storage backend: persistent instances with SQL pushdown.

Instances live in one table — ``instances(instance_id, cls, data)``
with attributes as a JSON document — indexed by class.  A scan becomes
one SQL statement and three things are pushed into it:

* **class filters** — ``cls IN (...)`` over the index;
* **predicates** — structured conditions compile to ``json_extract``
  comparisons guarded by ``json_type`` so SQL's affinity rules cannot
  diverge from Python's semantics (a numeric range predicate never
  matches a text value, exactly like ``Condition.evaluate`` returning
  False on a ``TypeError``); conditions that cannot be translated
  faithfully (bool/None constants, exotic attribute names, NaN) are
  evaluated in Python after the fetch — parity first, pushdown second;
* **projections** — when the caller promises to read only some
  attributes, only those JSON paths are extracted (``data -> '$.attr'``
  keeps arrays/objects intact), so wide instances never cross the SQL
  boundary.

Rows come back ``ORDER BY instance_id``, the order every backend's
scans keep, so the streaming executor can concatenate per-source
streams without a final sort.

A locked database is waited out by SQLite itself: every connection
sets ``PRAGMA busy_timeout``, and a lock that outlives it raises
``sqlite3.OperationalError`` to the caller.
"""

from __future__ import annotations

import json
import math
import re
import sqlite3
import threading
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.errors import KnowledgeBaseError
from repro.kb.backends.base import StorageBackend, matches_conditions
from repro.kb.instances import Instance

__all__ = ["SQLiteBackend", "condition_to_sql"]

# Attribute names are stored lowercase; only plain identifiers are
# interpolated into JSON paths (everything else falls back to Python).
_SAFE_ATTR = re.compile(r"^[a-z0-9_]+$")

# The `->` JSON operator needs SQLite >= 3.38; older builds fall back
# to fetching the full document (predicates still push via
# json_extract, which is far older).
_HAS_JSON_ARROW = sqlite3.sqlite_version_info >= (3, 38, 0)

_RANGE_OPS = frozenset({"<", "<=", ">", ">="})
_EQ_OPS = frozenset({"=", "=="})


def condition_to_sql(condition) -> tuple[str, list[object]] | None:
    """Compile one :class:`~repro.query.ast.Condition` to a SQL
    fragment over the ``data`` JSON column, or None when a faithful
    translation does not exist (the caller then evaluates in Python).
    """
    attr = condition.attribute
    if not _SAFE_ATTR.match(attr):
        return None
    value = condition.value
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return None
    # sqlite3 cannot bind ints outside the signed 64-bit range
    if isinstance(value, int) and not -(2**63) <= value < 2**63:
        return None
    path = f'$."{attr}"'
    extract = f"json_extract(data, '{path}')"
    jtype = f"json_type(data, '{path}')"
    op = condition.op
    if isinstance(value, (int, float)):
        if op in _EQ_OPS:
            return f"{extract} = ?", [value]
        if op == "!=":
            return f"{extract} != ?", [value]
        if op in _RANGE_OPS:
            # json booleans compare as ints, matching Python bool<int;
            # text/array/object values fail, matching the TypeError ->
            # False contract of Condition.evaluate.
            return (
                f"({jtype} IN ('integer','real','true','false') "
                f"AND {extract} {op} ?)",
                [value],
            )
        return None
    if isinstance(value, str):
        if op in _EQ_OPS:
            # json_extract renders arrays as text ('[1]'); the type
            # guard keeps them from colliding with string constants.
            return f"({jtype} = 'text' AND {extract} = ?)", [value]
        if op == "!=":
            # 'null' is a stored JSON null: Python sees None and fails
            # every predicate, so SQL must exclude it too.
            return (
                f"({jtype} IS NOT NULL AND {jtype} != 'null' "
                f"AND ({jtype} != 'text' OR {extract} != ?))",
                [value],
            )
        if op in _RANGE_OPS:
            return f"({jtype} = 'text' AND {extract} {op} ?)", [value]
    return None


class SQLiteBackend(StorageBackend):
    """Instances persisted in SQLite (a file path or ``:memory:``).

    **Threading.** The backend is safe to share across threads — the
    serving tier scans one store from many request threads — with two
    connection regimes:

    * **file databases** get one connection *per thread*
      (thread-local, created on first use), so concurrent readers run
      genuinely in parallel on independent connections and SQLite's
      own file locking, waited out for up to ``busy_timeout_ms``,
      arbitrates writers;
    * **``:memory:``** cannot do that — each new connection to
      ``:memory:`` is a *different* empty database — so all threads
      share the one connection, serialized by an RLock held across
      each statement (and across a whole :meth:`bulk` transaction).

    Connections are opened with ``check_same_thread=False`` so
    :meth:`close` can retire every thread's connection from whichever
    thread tears the store down.
    """

    kind = "sqlite"

    def __init__(
        self,
        path: str | Path = ":memory:",
        *,
        busy_timeout_ms: int = 5000,
    ) -> None:
        super().__init__()
        self.path = str(path)
        self._busy_timeout_ms = int(busy_timeout_ms)
        self._memory = self.path == ":memory:"
        # guards the shared :memory: connection; re-entrant so bulk()
        # can hold it across the statements it issues
        self._conn_lock = threading.RLock()
        self._local = threading.local()
        self._conns: list[sqlite3.Connection] = []
        self._conns_lock = threading.Lock()
        self._closed = False
        self._shared_conn: sqlite3.Connection | None = None
        if self._memory:
            self._shared_conn = self._connect()
        self._create_schema()
        #: last executed scan SQL, for explain/debugging/tests
        self.last_sql: str | None = None

    def _create_schema(self) -> None:
        self._execute(
            "CREATE TABLE IF NOT EXISTS instances ("
            " instance_id TEXT PRIMARY KEY,"
            " cls TEXT NOT NULL,"
            " data TEXT NOT NULL)"
        )
        self._execute(
            "CREATE INDEX IF NOT EXISTS idx_instances_cls"
            " ON instances (cls)"
        )

    def _connect(self) -> sqlite3.Connection:
        if self._closed:
            raise sqlite3.ProgrammingError(
                "Cannot operate on a closed database."
            )
        # autocommit: every mutation is durable immediately; bulk()
        # wraps loads in one transaction.
        conn = sqlite3.connect(
            self.path, isolation_level=None, check_same_thread=False
        )
        # SQLite itself waits out a writer before surfacing "database
        # is locked"
        conn.execute(f"PRAGMA busy_timeout = {self._busy_timeout_ms}")
        with self._conns_lock:
            self._conns.append(conn)
        return conn

    @property
    def _conn(self) -> sqlite3.Connection:
        """This thread's connection (the shared one for ``:memory:``)."""
        if self._shared_conn is not None:
            return self._shared_conn
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connect()
            self._local.conn = conn
        return conn

    def _execute(self, sql: str, params: tuple | list = ()) -> sqlite3.Cursor:
        """Execute one statement on this thread's connection."""
        if self._shared_conn is not None:
            # one statement at a time on the shared :memory:
            # connection; per-thread file connections need no lock
            with self._conn_lock:
                return self._conn.execute(sql, params)
        return self._conn.execute(sql, params)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(instance: Instance) -> str:
        try:
            return json.dumps(dict(instance.attributes), allow_nan=False)
        except (TypeError, ValueError) as exc:
            raise KnowledgeBaseError(
                f"instance {instance.instance_id!r} has attributes that "
                f"cannot be stored in the sqlite backend: {exc}"
            ) from exc

    def insert(self, instance: Instance) -> None:
        self._execute(
            "INSERT OR REPLACE INTO instances (instance_id, cls, data)"
            " VALUES (?, ?, ?)",
            (instance.instance_id, instance.cls, self._encode(instance)),
        )

    def delete(self, instance_id: str) -> Instance | None:
        instance = self.get(instance_id)
        if instance is None:
            return None
        self._execute(
            "DELETE FROM instances WHERE instance_id = ?", (instance_id,)
        )
        return instance

    def clear(self) -> None:
        self._execute("DELETE FROM instances")

    @contextmanager
    def bulk(self) -> Iterator[None]:
        """Group many inserts into one transaction (bulk loading).

        Every exception path rolls back: the body raising, the COMMIT
        itself failing, even a lock outliving ``busy_timeout_ms`` — the
        ``in_transaction`` guard means a rollback is attempted exactly
        when a transaction is actually open, so no exception can leave
        the connection wedged inside a stale BEGIN.

        On a shared ``:memory:`` database the connection lock is held
        for the whole transaction (it is re-entrant, so the body's own
        statements nest), keeping other threads' autocommit statements
        from landing inside the BEGIN.  File databases transact on the
        calling thread's private connection and need no such fence.

        If the *rollback itself* fails, the connection's transaction
        state is unknowable — ``in_transaction`` may keep reporting an
        open BEGIN that can never be closed — so the connection is
        discarded and replaced outright: a later :meth:`bulk` must
        never find a half-open transaction it did not start.
        """
        if self._shared_conn is not None:
            self._conn_lock.acquire()
        try:
            self._execute("BEGIN IMMEDIATE")
            try:
                yield
                self._execute("COMMIT")
            except BaseException:
                if self._conn.in_transaction:
                    try:
                        self._rollback()
                    except sqlite3.Error:
                        self._reset_connection()
                raise
        finally:
            if self._shared_conn is not None:
                self._conn_lock.release()

    def _rollback(self) -> None:
        """Roll back the current transaction (bulk's failure path).

        A seam on purpose: rollback failures are nearly impossible to
        provoke organically, so the resilience test patches this to
        fail and asserts :meth:`bulk` recovers the connection.
        """
        self._conn.execute("ROLLBACK")

    def _reset_connection(self) -> None:
        """Discard the calling context's connection and open a fresh one.

        For a file database the data is on disk and the replacement
        connection sees it unchanged (minus the rolled-back work).  A
        shared ``:memory:`` database dies with its connection, so the
        schema is re-created on the replacement — the store comes back
        empty but *usable*, which is the contract that matters: the
        failed transaction already made the content unreliable.
        """
        old = (
            self._shared_conn
            if self._shared_conn is not None
            else getattr(self._local, "conn", None)
        )
        if old is not None:
            with self._conns_lock:
                if old in self._conns:
                    self._conns.remove(old)
            try:
                old.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass
        if self._shared_conn is not None:
            self._shared_conn = self._connect()
            self._create_schema()
        else:
            self._local.conn = self._connect()

    # ------------------------------------------------------------------
    # point reads
    # ------------------------------------------------------------------
    @staticmethod
    def _row_to_instance(row: tuple[str, str, str]) -> Instance:
        instance_id, cls, data = row
        return Instance(instance_id, cls, json.loads(data))

    def get(self, instance_id: str) -> Instance | None:
        row = self._execute(
            "SELECT instance_id, cls, data FROM instances"
            " WHERE instance_id = ?",
            (instance_id,),
        ).fetchone()
        return self._row_to_instance(row) if row else None

    def __contains__(self, instance_id: object) -> bool:
        # existence only — skip fetching/decoding the JSON document
        if not isinstance(instance_id, str):
            return False
        return (
            self._execute(
                "SELECT 1 FROM instances WHERE instance_id = ?",
                (instance_id,),
            ).fetchone()
            is not None
        )

    def __len__(self) -> int:
        (count,) = self._execute(
            "SELECT COUNT(*) FROM instances"
        ).fetchone()
        return count

    def __iter__(self) -> Iterator[Instance]:
        cursor = self._execute(
            "SELECT instance_id, cls, data FROM instances"
            " ORDER BY instance_id"
        )
        for row in cursor:
            yield self._row_to_instance(row)

    def classes(self) -> set[str]:
        return {
            cls
            for (cls,) in self._execute(
                "SELECT DISTINCT cls FROM instances"
            )
        }

    # ------------------------------------------------------------------
    # scan
    # ------------------------------------------------------------------
    def _projection_sql(
        self, attrs: frozenset[str] | None
    ) -> tuple[str, tuple[str, ...]] | None:
        """Column list extracting only the requested JSON paths, or
        None when projection cannot be pushed (fetch full ``data``)."""
        if not attrs or not _HAS_JSON_ARROW:
            return None
        names = tuple(sorted(attrs))
        if not all(_SAFE_ATTR.match(name) for name in names):
            return None
        # `->` (not `->>`) keeps JSON arrays/objects as JSON text so
        # they decode back to the exact Python value.
        columns = ", ".join(f"data -> '$.\"{name}\"'" for name in names)
        return columns, names

    def scan(
        self,
        classes: Iterable[str],
        *,
        conditions: tuple = (),
        attrs: frozenset[str] | None = None,
    ) -> Iterator[Instance]:
        self.stats.scans += 1
        class_list = sorted(set(classes))
        if not class_list:
            return
        placeholders = ", ".join("?" for _ in class_list)
        where = [f"cls IN ({placeholders})"]
        params: list[object] = list(class_list)
        residual: list = []
        for condition in conditions:
            compiled = condition_to_sql(condition)
            if compiled is None:
                residual.append(condition)
                self.stats.conditions_python += 1
            else:
                fragment, fragment_params = compiled
                where.append(fragment)
                params.extend(fragment_params)
                self.stats.conditions_pushed += 1

        projection = self._projection_sql(attrs)
        if projection is not None:
            columns, names = projection
            self.stats.projected_scans += 1
            select = f"instance_id, cls, {columns}"
        else:
            names = ()
            select = "instance_id, cls, data"
        sql = (
            f"SELECT {select} FROM instances"
            f" WHERE {' AND '.join(where)}"
            f" ORDER BY instance_id"
        )
        self.last_sql = sql
        for row in self._execute(sql, params):
            if projection is not None:
                attributes = {
                    name: json.loads(cell)
                    for name, cell in zip(names, row[2:])
                    if cell is not None
                }
                instance = Instance(row[0], row[1], attributes)
            else:
                instance = self._row_to_instance(row)
            if residual and not matches_conditions(instance, residual):
                continue
            self.stats.rows_yielded += 1
            yield instance

    def close(self) -> None:
        """Close every connection the backend ever opened (any thread).

        Threads keep their (now closed) connection objects, so later
        statements fail with sqlite3's own ProgrammingError — the same
        contract a single closed connection always had.
        """
        with self._conns_lock:
            conns = list(self._conns)
            self._conns.clear()
            self._closed = True
        for conn in conns:
            conn.close()

    def __enter__(self) -> SQLiteBackend:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
