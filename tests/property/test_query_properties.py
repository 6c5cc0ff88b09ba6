"""Property-based tests for query-layer invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kb.instances import InstanceStore
from repro.query.ast import Condition, Query
from repro.query.engine import QueryEngine
from repro.workloads.paper_example import (
    carrier_ontology,
    factory_ontology,
    generate_transport_articulation,
)
from tests.support.baselines import execute_unpushed


def build_engine(seed: int, n: int) -> QueryEngine:
    rng = random.Random(seed)
    carrier_kb = InstanceStore(carrier_ontology())
    factory_kb = InstanceStore(factory_ontology())
    for i in range(n):
        carrier_kb.add(
            f"c{i}",
            rng.choice(["Car", "Cars", "SUV"]),
            price=rng.randint(100, 30_000),
            model=f"M{rng.randint(0, 5)}",
        )
        factory_kb.add(
            f"f{i}",
            rng.choice(["Vehicle", "GoodsVehicle", "Truck"]),
            price=rng.randint(100, 60_000),
            weight=rng.randint(500, 4_000),
        )
    return QueryEngine(
        generate_transport_articulation(),
        {"carrier": carrier_kb, "factory": factory_kb},
    )


conditions = st.lists(
    st.tuples(
        st.sampled_from(["price", "weight"]),
        st.sampled_from(["<", "<=", ">", ">="]),
        st.integers(min_value=0, max_value=40_000),
    ),
    max_size=2,
)


@given(st.integers(min_value=0, max_value=50), conditions)
@settings(max_examples=25, deadline=None)
def test_pushdown_agrees_with_plain(seed, raw_conditions) -> None:
    """For every random predicate set, pushdown changes nothing."""
    where = [Condition(a, op, v) for a, op, v in raw_conditions]
    query = Query.over("transport:Vehicle", select=["price"], where=where)
    engine = build_engine(seed, 30)
    plain = execute_unpushed(engine, query)
    pushed = engine.execute(query)
    assert [(r.source, r.instance_id) for r in plain] == [
        (r.source, r.instance_id) for r in pushed
    ]


@pytest.mark.parametrize("seed", range(3))
def test_pushdown_agrees_at_converted_boundaries(seed) -> None:
    """Random constants almost never sit on a pushed threshold; a
    stored price's converted value puts that instance exactly on it."""
    engine = build_engine(seed, 30)
    prices = engine.execute(Query.over("transport:Vehicle", select=["price"]))
    for row in prices:
        for op in ("<", "<=", ">", ">="):
            query = Query.over(
                "transport:Vehicle",
                select=["price"],
                where=[Condition("price", op, row.get("price"))],
            )
            pushed = engine.execute(query)
            plain = execute_unpushed(engine, query)
            assert [(r.source, r.instance_id) for r in pushed] == [
                (r.source, r.instance_id) for r in plain
            ]


@given(st.integers(min_value=0, max_value=50), conditions)
@settings(max_examples=25, deadline=None)
def test_where_narrowing_is_monotone(seed, raw_conditions) -> None:
    """Adding predicates never adds rows."""
    engine = build_engine(seed, 30)
    where = [Condition(a, op, v) for a, op, v in raw_conditions]
    wide = engine.execute(Query.over("transport:Vehicle"))
    narrow = engine.execute(Query.over("transport:Vehicle", where=where))
    wide_keys = {(r.source, r.instance_id) for r in wide}
    narrow_keys = {(r.source, r.instance_id) for r in narrow}
    assert narrow_keys <= wide_keys


@given(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=25, deadline=None)
def test_limit_is_a_prefix(seed, limit) -> None:
    engine = build_engine(seed, 25)
    ordered = engine.execute(
        Query.over("transport:Vehicle", select=["price"],
                   order_by=[("price", False)])
    )
    limited = engine.execute(
        Query.over("transport:Vehicle", select=["price"],
                   order_by=[("price", False)], limit=limit)
    )
    assert [(r.source, r.instance_id) for r in limited] == [
        (r.source, r.instance_id) for r in ordered[:limit]
    ]


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=20, deadline=None)
def test_count_star_equals_row_count(seed) -> None:
    engine = build_engine(seed, 20)
    rows = engine.execute(Query.over("transport:Vehicle"))
    from repro.query.ast import Aggregate

    counted = engine.execute(
        Query.over(
            "transport:Vehicle", aggregates=[Aggregate("count", "*")]
        )
    )
    assert counted[0].get("count(*)") == len(rows)


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=20, deadline=None)
def test_min_max_bound_every_converted_value(seed) -> None:
    from repro.query.ast import Aggregate

    engine = build_engine(seed, 20)
    rows = engine.execute(Query.over("transport:Vehicle", select=["price"]))
    prices = [
        r.get("price") for r in rows if isinstance(r.get("price"), float)
    ]
    agg = engine.execute(
        Query.over(
            "transport:Vehicle",
            aggregates=[Aggregate("min", "price"),
                        Aggregate("max", "price")],
        )
    )[0]
    if prices:
        assert agg.get("min(price)") == pytest.approx(min(prices))
        assert agg.get("max(price)") == pytest.approx(max(prices))
        for price in prices:
            assert agg.get("min(price)") <= price <= agg.get("max(price)")


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=15, deadline=None)
def test_mediated_rows_partition_by_source_plans(seed) -> None:
    """Every mediated row is traceable to exactly one source plan, and
    per-source row sets are disjoint by provenance."""
    engine = build_engine(seed, 20)
    plan = engine.plan(Query.over("transport:Vehicle"))
    rows = engine.run(plan)
    plan_sources = {p.source for p in plan.source_plans}
    for row in rows:
        assert row.source in plan_sources
    keys = [(r.source, r.instance_id) for r in rows]
    assert len(keys) == len(set(keys))
