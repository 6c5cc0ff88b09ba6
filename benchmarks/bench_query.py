"""Experiment QUERY: reformulation overhead and view acceleration
(§2.3, §2.6).

Measures (a) planning cost (reformulation across bridges + conversion-
path search), (b) execution over growing instance populations, direct
source query vs articulation-level query with currency conversion,
and (c) the materialized-view shortcut.
"""

from __future__ import annotations

import pytest

from repro.kb.instances import InstanceStore
from repro.query.engine import QueryEngine
from repro.query.views import ViewCatalog
from repro.workloads.paper_example import (
    carrier_ontology,
    factory_ontology,
    generate_transport_articulation,
)
from tests.support.baselines import execute_unpushed


def populated_stores(n_instances: int):
    carrier_kb = InstanceStore(carrier_ontology())
    factory_kb = InstanceStore(factory_ontology())
    for i in range(n_instances):
        carrier_kb.add(
            f"car{i}", "Car", price=1000 + 7 * (i % 900), model=f"M{i % 10}"
        )
        factory_kb.add(
            f"veh{i}", "Vehicle", price=2000 + 11 * (i % 1500),
            weight=800 + i % 300,
        )
    return carrier_kb, factory_kb


@pytest.fixture(scope="module")
def engine_small():
    articulation = generate_transport_articulation()
    carrier_kb, factory_kb = populated_stores(100)
    return QueryEngine(
        articulation, {"carrier": carrier_kb, "factory": factory_kb}
    )


def test_planning_cost(benchmark, engine_small) -> None:
    plan = benchmark(
        lambda: engine_small.plan(
            "SELECT price FROM transport:Vehicle WHERE price < 3000"
        )
    )
    assert len(plan.source_plans) == 2


@pytest.mark.parametrize("n_instances", [100, 1000, 5000])
def test_articulation_query_execution(benchmark, n_instances) -> None:
    articulation = generate_transport_articulation()
    carrier_kb, factory_kb = populated_stores(n_instances)
    engine = QueryEngine(
        articulation, {"carrier": carrier_kb, "factory": factory_kb}
    )
    plan = engine.plan(
        "SELECT price FROM transport:Vehicle WHERE price < 3000"
    )
    rows = benchmark(lambda: engine.run(plan))
    assert rows


@pytest.mark.parametrize("n_instances", [1000])
def test_reformulation_overhead_summary(benchmark, table, n_instances) -> None:
    """Direct source scan vs articulation query over the same data —
    the delta is reformulation + conversion, and should be a constant
    factor, not a blowup."""
    import time

    articulation = generate_transport_articulation()
    carrier_kb, factory_kb = populated_stores(n_instances)
    engine = QueryEngine(
        articulation, {"carrier": carrier_kb, "factory": factory_kb}
    )

    benchmark(lambda: engine.execute("SELECT price FROM transport:Vehicle"))
    t0 = time.perf_counter()
    direct = carrier_kb.select(["Car"])
    t1 = time.perf_counter()
    mediated = engine.execute("SELECT price FROM transport:Vehicle")
    t2 = time.perf_counter()

    table(
        f"QUERY reformulation overhead at n={n_instances}/source",
        ["path", "rows", "time"],
        [
            ("direct carrier scan", len(direct),
             f"{1e3 * (t1 - t0):.2f}ms"),
            ("articulation query (2 sources + conversion)", len(mediated),
             f"{1e3 * (t2 - t1):.2f}ms"),
        ],
    )
    assert len(mediated) == 2 * n_instances


@pytest.mark.parametrize("n_instances", [2000])
def test_pushdown_ablation(benchmark, table, n_instances) -> None:
    """DESIGN.md ablation: predicate pushdown through inverse
    conversions (the engine) vs post-conversion filtering (the
    unpushed reference) on a selective query."""
    import time

    carrier_kb, factory_kb = populated_stores(n_instances)
    engine = QueryEngine(
        generate_transport_articulation(),
        {"carrier": carrier_kb, "factory": factory_kb},
    )
    question = "SELECT price FROM transport:Vehicle WHERE price < 2000"

    t0 = time.perf_counter()
    rows_plain = execute_unpushed(engine, question)
    t_plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    rows_pushed = engine.execute(question)
    t_pushed = time.perf_counter() - t0
    assert [r.instance_id for r in rows_plain] == [
        r.instance_id for r in rows_pushed
    ]
    benchmark(lambda: engine.execute(question))
    table(
        f"QUERY pushdown ablation at n={n_instances}/source",
        ["mode", "rows", "time"],
        [
            ("post-conversion filter", len(rows_plain),
             f"{1e3 * t_plain:.1f}ms"),
            ("pushdown", len(rows_pushed), f"{1e3 * t_pushed:.1f}ms"),
        ],
    )


def test_view_acceleration(benchmark, table, engine_small) -> None:
    catalog = ViewCatalog(engine_small)
    catalog.define("vehicles", "SELECT * FROM transport:Vehicle")
    question = "SELECT price FROM transport:Vehicle WHERE price < 3000"

    rows_view = benchmark(lambda: catalog.execute(question))
    rows_live = engine_small.execute(question)
    assert {r.instance_id for r in rows_view} == {
        r.instance_id for r in rows_live
    }
    table(
        "QUERY view acceleration",
        ["metric", "value"],
        [
            ("view hits", catalog.hits),
            ("view misses", catalog.misses),
            ("rows", len(rows_view)),
        ],
    )
