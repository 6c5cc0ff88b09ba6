"""Experiment BACKENDS: the layered query path over pluggable storage.

Measures (a) memory vs SQLite scan/query throughput on the workload
generator's populations and (b) eager (materialize-per-stage) vs
streaming execution via the executor's peak-rows instrumentation —
the wins the planner/executor/backend split was built for.
"""

from __future__ import annotations

import time

import pytest

from repro.kb.backends import InMemoryBackend, SQLiteBackend
from repro.kb.instances import InstanceStore
from repro.query.engine import QueryEngine
from repro.workloads.paper_example import (
    carrier_ontology,
    factory_ontology,
    generate_transport_articulation,
)
from tests.support.baselines import execute_unpushed


def populated_stores(n_instances: int, backend_factory=InMemoryBackend):
    carrier_kb = InstanceStore(
        carrier_ontology(), backend=backend_factory()
    )
    factory_kb = InstanceStore(
        factory_ontology(), backend=backend_factory()
    )
    for i in range(n_instances):
        carrier_kb.add(
            f"car{i}", "Car", price=1000 + 7 * (i % 900), model=f"M{i % 10}"
        )
        factory_kb.add(
            f"veh{i}", "Vehicle", price=2000 + 11 * (i % 1500),
            weight=800 + i % 300,
        )
    return carrier_kb, factory_kb


def make_engine(n_instances: int, backend_factory) -> QueryEngine:
    articulation = generate_transport_articulation()
    carrier_kb, factory_kb = populated_stores(n_instances, backend_factory)
    return QueryEngine(
        articulation, {"carrier": carrier_kb, "factory": factory_kb}
    )


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("n_instances", [1000])
def test_backend_query_throughput(benchmark, backend, n_instances) -> None:
    factory = InMemoryBackend if backend == "memory" else SQLiteBackend
    engine = make_engine(n_instances, factory)
    question = "SELECT price FROM transport:Vehicle WHERE price < 3000"
    rows = benchmark(lambda: engine.execute(question))
    assert rows


@pytest.mark.parametrize("n_instances", [2000])
def test_sql_pushdown_vs_python_filter(table, n_instances) -> None:
    """With the SQLite backend, pushdown means the predicate runs in
    SQL and non-matching rows never cross into Python at all; the
    unpushed reference filters in Python after conversion."""
    question = "SELECT price FROM transport:Vehicle WHERE price < 2100"

    engine = make_engine(n_instances, SQLiteBackend)
    results = []
    for mode, execute in (
        ("python filter", execute_unpushed),
        ("sql pushdown", QueryEngine.execute),
    ):
        t0 = time.perf_counter()
        rows = execute(engine, question)
        elapsed = time.perf_counter() - t0
        results.append(
            (
                mode,
                len(rows),
                engine.last_stats.rows_scanned,
                f"{1e3 * elapsed:.1f}ms",
            )
        )
    table(
        f"BACKENDS sql pushdown at n={n_instances}/source",
        ["mode", "rows out", "rows crossed SQL boundary", "time"],
        results,
    )
    # identical answers, far fewer rows surfaced from SQL
    assert results[0][1] == results[1][1]
    assert results[1][2] < results[0][2]


@pytest.mark.parametrize("n_instances", [5000])
def test_streaming_does_not_materialize_intermediates(
    table, n_instances
) -> None:
    """Peak-rows instrumentation: aggregates and LIMIT queries hold a
    constant number of rows regardless of population size — the whole
    point of the iterator pipelines."""
    engine = make_engine(n_instances, InMemoryBackend)
    workloads = [
        ("COUNT(*) fold", "SELECT COUNT(*) FROM transport:Vehicle"),
        ("LIMIT early-exit", "SELECT price FROM transport:Vehicle LIMIT 5"),
        ("full scan", "SELECT price FROM transport:Vehicle"),
        (
            "ORDER BY (sort barrier)",
            "SELECT price FROM transport:Vehicle ORDER BY price LIMIT 5",
        ),
    ]
    rows_available = 2 * n_instances
    results = []
    for label, question in workloads:
        engine.execute(question)
        stats = engine.last_stats
        results.append(
            (
                label,
                stats.rows_scanned,
                stats.peak_rows,
                "no (sort)" if "ORDER BY" in question else "yes",
            )
        )
    table(
        f"BACKENDS streaming peak-rows at n={n_instances}/source "
        f"({rows_available} rows available)",
        ["workload", "rows scanned", "peak rows held", "streamed"],
        results,
    )
    by_label = {r[0]: r for r in results}
    # aggregation folds the full stream into one row
    assert by_label["COUNT(*) fold"][1] == rows_available
    assert by_label["COUNT(*) fold"][2] == 1
    # LIMIT without ORDER BY never pulls more than it needs
    assert by_label["LIMIT early-exit"][1] == 5
    assert by_label["LIMIT early-exit"][2] == 5
    # only ORDER BY pays the materialization
    assert by_label["ORDER BY (sort barrier)"][2] == rows_available


@pytest.mark.parametrize("n_instances", [1000])
def test_sqlite_bulk_load(benchmark, n_instances) -> None:
    """Bulk transaction loading a memory store into SQLite."""
    mem, _ = populated_stores(n_instances)
    store = benchmark(lambda: mem.clone(SQLiteBackend()))
    assert len(store) == n_instances
