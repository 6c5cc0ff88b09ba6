"""Backend parity: the same store contents must answer identically
through the in-memory and SQLite backends, and SQL-side pushdown must
match Python-side evaluation exactly."""

from __future__ import annotations

import pytest

from repro.core.articulation import Articulation
from repro.errors import KnowledgeBaseError
from repro.kb.backends import (
    InMemoryBackend,
    SQLiteBackend,
    create_backend,
)
from repro.kb.backends.sqlite import condition_to_sql
from repro.kb.instances import Instance, InstanceStore
from repro.query.ast import Condition
from repro.query.engine import QueryEngine, ResultRow, finalize_rows
from repro.query.executor import project_rows
from repro.query.parser import parse_query
from repro.query.reformulate import reformulate
from repro.workloads.paper_example import carrier_store, factory_store
from tests.support.baselines import execute_unpushed

BACKEND_FACTORIES = {
    "memory": InMemoryBackend,
    "sqlite": SQLiteBackend,
}


@pytest.fixture(params=sorted(BACKEND_FACTORIES))
def backend_kind(request) -> str:
    return request.param


def on_backend(store: InstanceStore, kind: str) -> InstanceStore:
    if kind == "memory":
        return store
    return store.clone(BACKEND_FACTORIES[kind]())


def row_key(instance: Instance):
    return (instance.instance_id, instance.cls, dict(instance.attributes))


class TestBackendProtocol:
    def test_crud_roundtrip(self, carrier, backend_kind) -> None:
        store = InstanceStore(
            carrier, backend=BACKEND_FACTORIES[backend_kind]()
        )
        store.add("i1", "Cars", price=100, model="T1")
        store.add("i2", "Trucks", price=200)
        assert len(store) == 2
        assert "i1" in store
        assert store.get("i1").get("model") == "T1"
        assert store.classes() == {"Cars", "Trucks"}
        store.remove("i2")
        assert "i2" not in store
        with pytest.raises(KnowledgeBaseError):
            store.remove("i2")

    def test_scan_is_ordered_and_streaming(
        self, carrier, backend_kind
    ) -> None:
        store = InstanceStore(
            carrier, backend=BACKEND_FACTORIES[backend_kind]()
        )
        for i in (3, 1, 2):
            store.add(f"i{i}", "Cars", price=i * 100)
        iterator = store.scan(["Cars"])
        assert iter(iterator) is iter(iterator)  # a lazy iterator
        assert [i.instance_id for i in iterator] == ["i1", "i2", "i3"]

    def test_create_backend_by_name(self, backend_kind) -> None:
        backend = create_backend(backend_kind)
        assert backend.kind == backend_kind
        with pytest.raises(KnowledgeBaseError):
            create_backend("papyrus")

    def test_nested_values_roundtrip(self, carrier, backend_kind) -> None:
        store = InstanceStore(
            carrier, backend=BACKEND_FACTORIES[backend_kind]()
        )
        store.add("i1", "Cars", tags=["a", "b"], meta={"k": 1})
        fetched = store.get("i1")
        assert fetched.get("tags") == ["a", "b"]
        assert fetched.get("meta") == {"k": 1}


class TestSQLitePersistence:
    def test_reopen_from_disk(self, carrier, tmp_path) -> None:
        path = tmp_path / "kb.sqlite"
        store = InstanceStore(carrier, backend=SQLiteBackend(path))
        store.add("i1", "Cars", price=123)
        store.backend.close()
        reopened = InstanceStore(carrier, backend=SQLiteBackend(path))
        assert reopened.get("i1").get("price") == 123

    def test_unserializable_attribute_rejected(self, carrier) -> None:
        store = InstanceStore(carrier, backend=SQLiteBackend())
        with pytest.raises(KnowledgeBaseError):
            store.add("i1", "Cars", weird=object())


CONDITIONS = [
    Condition("price", "<", 20000),
    Condition("price", "<=", 21500),
    Condition("price", ">", 21500),
    Condition("price", ">=", 61000),
    Condition("price", "!=", 21500),
    Condition("price", "=", 21500),
    Condition("model", "=", "T800"),
    Condition("model", "!=", "T800"),
    Condition("model", "<", "V"),
    Condition("owner", "=", "Gio"),
    # type-mismatch cases: numeric predicate over text values and
    # vice versa must fail the row on both backends
    Condition("model", "<", 10),
    Condition("price", "<", "cheap"),
    Condition("missing", "=", 1),
]


class TestScanParity:
    @pytest.mark.parametrize(
        "condition", CONDITIONS, ids=[str(c) for c in CONDITIONS]
    )
    @pytest.mark.parametrize("maker", [carrier_store, factory_store])
    def test_condition_parity(self, maker, condition) -> None:
        mem = maker()
        sql = mem.clone(SQLiteBackend())
        classes = sorted(mem.classes())
        got_mem = [
            row_key(i)
            for i in mem.scan(classes, conditions=(condition,))
        ]
        got_sql = [
            row_key(i)
            for i in sql.scan(classes, conditions=(condition,))
        ]
        assert got_mem == got_sql
        # and both agree with plain python filtering over a full scan
        plain = [
            row_key(i)
            for i in mem.scan(classes)
            if condition.evaluate(i.get(condition.attribute))
        ]
        assert got_mem == plain

    def test_sqlite_actually_pushes_into_sql(self) -> None:
        sql = carrier_store().clone(SQLiteBackend())
        before = sql.backend.stats.snapshot()
        list(
            sql.scan(
                ["Carrier"], conditions=(Condition("price", "<", 20000),)
            )
        )
        after = sql.backend.stats.snapshot()
        assert (
            after["conditions_pushed"] - before["conditions_pushed"] == 1
        )
        assert "json_extract" in sql.backend.last_sql
        assert "WHERE" in sql.backend.last_sql

    def test_untranslatable_condition_falls_back_to_python(self) -> None:
        sql = carrier_store().clone(SQLiteBackend())
        condition = Condition("price", "=", True)  # bool: never pushed
        assert condition_to_sql(condition) is None
        list(sql.scan(["Carrier"], conditions=(condition,)))
        assert sql.backend.stats.conditions_python >= 1

    def test_projection_pushes_into_sql(self) -> None:
        sql = carrier_store().clone(SQLiteBackend())
        rows = list(sql.scan(["Carrier"], attrs=frozenset({"price"})))
        assert rows
        assert all(set(i.attributes) <= {"price"} for i in rows)
        assert "data -> " in sql.backend.last_sql
        assert sql.backend.stats.projected_scans >= 1

    def test_string_not_equal_skips_stored_null(self, carrier) -> None:
        """A stored JSON null is None to Python, which fails every
        predicate — SQL-side evaluation must agree."""
        mem = InstanceStore(carrier)
        mem.add("i1", "Cars", model=None)
        mem.add("i2", "Cars", model="T800")
        mem.add("i3", "Cars")
        sql = mem.clone(SQLiteBackend())
        condition = Condition("model", "!=", "X")
        got_mem = [
            i.instance_id for i in mem.scan(["Cars"], conditions=(condition,))
        ]
        got_sql = [
            i.instance_id for i in sql.scan(["Cars"], conditions=(condition,))
        ]
        assert got_mem == got_sql == ["i2"]
        assert sql.backend.stats.conditions_pushed == 1

    def test_out_of_range_int_falls_back_to_python(self, carrier) -> None:
        """sqlite3 cannot bind ints beyond 64 bits; the condition must
        run in Python instead of crashing the scan."""
        mem = InstanceStore(carrier)
        mem.add("i1", "Cars", serial=2**63)
        mem.add("i2", "Cars", serial=5)
        sql = mem.clone(SQLiteBackend())
        condition = Condition("serial", "=", 2**63)
        assert condition_to_sql(condition) is None
        got = [
            i.instance_id for i in sql.scan(["Cars"], conditions=(condition,))
        ]
        assert got == ["i1"]

    def test_clear_empties_backend(self, carrier, backend_kind) -> None:
        store = InstanceStore(
            carrier, backend=BACKEND_FACTORIES[backend_kind]()
        )
        store.add("i1", "Cars", price=1)
        store.backend.clear()
        assert len(store) == 0
        store.add("i1", "Cars", price=2)  # id is free again
        assert store.get("i1").get("price") == 2

    def test_insert_overwrite_replaces_indexes(
        self, carrier, backend_kind
    ) -> None:
        """insert is an upsert on both backends: a replaced row must
        vanish from its old class and attribute buckets."""
        backend = BACKEND_FACTORIES[backend_kind]()
        backend.insert(Instance("i1", "Cars", {"model": "T1"}))
        backend.insert(Instance("i1", "Trucks", {"model": "T2"}))
        assert backend.classes() == {"Trucks"}
        assert list(backend.scan({"Cars"})) == []
        assert [
            i.get("model")
            for i in backend.scan(
                {"Trucks"}, conditions=(Condition("model", "=", "T2"),)
            )
        ] == ["T2"]
        assert not list(
            backend.scan(
                {"Trucks"}, conditions=(Condition("model", "=", "T1"),)
            )
        )

    def test_memory_equality_index_narrows(self) -> None:
        mem = carrier_store()
        rows = list(
            mem.scan(
                ["Carrier"], conditions=(Condition("model", "=", "T800"),)
            )
        )
        assert [i.instance_id for i in rows] == ["HaulTruck1"]


SCENARIOS = [
    "SELECT price FROM transport:Vehicle",
    "SELECT price FROM transport:Vehicle WHERE price < 10000",
    "SELECT price FROM carrier:Trucks WHERE price < 20000",
    "SELECT model FROM carrier:Trucks WHERE model = T800",
    "SELECT * FROM carrier:Trucks",
    "SELECT COUNT(*) FROM transport:Vehicle WHERE price < 10000",
    "SELECT MIN(price), MAX(price) FROM transport:Vehicle",
    "SELECT price FROM transport:Vehicle ORDER BY price DESC LIMIT 2",
    "SELECT price FROM transport:Vehicle LIMIT 1",
]


def result_keys(rows):
    return [
        (r.source, r.instance_id, sorted(r.values.items())) for r in rows
    ]


def answer_by_hand(transport: Articulation, question: str) -> list[ResultRow]:
    """A scenario's answer without the planner or the executor: every
    instance of each source's reformulated classes, its values
    converted, kept when each WHERE condition holds, then finalized."""
    query = parse_query(question)
    stores = {"carrier": carrier_store(), "factory": factory_store()}
    rows = []
    for plan in sorted(reformulate(query, transport), key=lambda p: p.source):
        for instance in stores[plan.source].select(plan.classes):
            values = {
                attr: plan.convert(attr, value)
                for attr, value in instance.attributes.items()
            }
            if all(c.evaluate(values.get(c.attribute)) for c in query.where):
                rows.append(
                    ResultRow(
                        instance.instance_id, plan.source, instance.cls, values
                    )
                )
    return project_rows(query, finalize_rows(query, rows))


class TestQueryParityAcrossBackends:
    """The acceptance gate: every query scenario answers on both
    backends exactly as it does by hand — through the engine's own plan
    (``pushed``) and with every WHERE condition evaluated after
    conversion, so a disagreement shows whether storage or pushdown
    caused it."""

    @pytest.mark.parametrize("question", SCENARIOS)
    @pytest.mark.parametrize("pushed", [False, True])
    def test_scenario(
        self, transport: Articulation, question, pushed, backend_kind
    ) -> None:
        reference = answer_by_hand(transport, question)
        stores = {
            "carrier": on_backend(carrier_store(), backend_kind),
            "factory": on_backend(factory_store(), backend_kind),
        }
        engine = QueryEngine(transport, stores)
        rows = (
            engine.execute(question)
            if pushed
            else execute_unpushed(engine, question)
        )
        assert result_keys(rows) == result_keys(reference)
