"""Unit tests for query planning and execution."""

from __future__ import annotations

import pytest

from repro.core.articulation import Articulation
from repro.errors import PlanningError
from repro.kb.instances import InstanceStore
from repro.query.engine import QueryEngine
from repro.workloads.paper_example import DG_PER_EURO, PS_PER_EURO


@pytest.fixture
def engine(
    transport: Articulation,
    carrier_kb: InstanceStore,
    factory_kb: InstanceStore,
) -> QueryEngine:
    return QueryEngine(
        transport, {"carrier": carrier_kb, "factory": factory_kb}
    )


class TestPlanning:
    def test_plan_covers_both_sources(self, engine: QueryEngine) -> None:
        plan = engine.plan("SELECT price FROM transport:Vehicle")
        assert {p.source for p in plan.source_plans} == {
            "carrier",
            "factory",
        }

    def test_plan_describe_mentions_conversions(
        self, engine: QueryEngine
    ) -> None:
        plan = engine.plan("SELECT price FROM transport:Vehicle")
        text = plan.describe()
        assert "PSToEuroFn" in text
        assert "scan carrier" in text

    def test_plan_without_registered_store_fails(
        self, transport: Articulation, carrier_kb: InstanceStore
    ) -> None:
        engine = QueryEngine(transport, {})
        with pytest.raises(PlanningError):
            engine.plan("SELECT * FROM transport:Vehicle")

    def test_plan_with_partial_stores_uses_what_exists(
        self, transport: Articulation, carrier_kb: InstanceStore
    ) -> None:
        engine = QueryEngine(transport, {"carrier": carrier_kb})
        plan = engine.plan("SELECT * FROM transport:Vehicle")
        assert [p.source for p in plan.source_plans] == ["carrier"]


class TestExecution:
    def test_cross_source_answers_in_euro(self, engine: QueryEngine) -> None:
        rows = engine.execute("SELECT price FROM transport:Vehicle")
        by_id = {row.instance_id: row for row in rows}
        # carrier FleetCar1: 7200 PS -> EUR
        assert by_id["FleetCar1"].get("price") == pytest.approx(
            7200 / PS_PER_EURO
        )
        # factory ProtoVehicle1: 19500 DG -> EUR
        assert by_id["ProtoVehicle1"].get("price") == pytest.approx(
            19500 / DG_PER_EURO
        )

    def test_predicates_evaluate_in_target_metric(
        self, engine: QueryEngine
    ) -> None:
        rows = engine.execute(
            "SELECT price FROM transport:Vehicle WHERE price < 10000"
        )
        ids = {row.instance_id for row in rows}
        # 7200 PS ~ 10125 EUR: excluded. 19500 DG ~ 8849 EUR: included.
        assert "FleetCar1" not in ids
        assert "ProtoVehicle1" in ids
        assert "LineTruck2" in ids

    def test_query_on_source_class_pulls_other_source(
        self, engine: QueryEngine
    ) -> None:
        rows = engine.execute("SELECT price FROM carrier:Trucks")
        sources = {row.source for row in rows}
        assert sources == {"carrier", "factory"}
        by_id = {row.instance_id: row for row in rows}
        # factory LineTruck1 61000 DG -> PS via Euro.
        expected = 61000 / DG_PER_EURO * PS_PER_EURO
        assert by_id["LineTruck1"].get("price") == pytest.approx(expected)
        # carrier trucks stay in their own metric.
        assert by_id["HaulTruck1"].get("price") == 21500

    def test_subclass_closure_within_source(
        self, engine: QueryEngine
    ) -> None:
        rows = engine.execute("SELECT * FROM carrier:Trucks")
        factory_ids = {
            row.instance_id for row in rows if row.source == "factory"
        }
        # GoodsVehicle closure picks up Trucks below it.
        assert factory_ids == {"GoodsVan1", "LineTruck1", "LineTruck2"}

    def test_select_star_returns_all_attributes(
        self, engine: QueryEngine
    ) -> None:
        rows = engine.execute("SELECT * FROM carrier:Trucks")
        haul = next(r for r in rows if r.instance_id == "HaulTruck1")
        assert set(haul.values) >= {"price", "owner", "model"}

    def test_projection_limits_attributes(self, engine: QueryEngine) -> None:
        rows = engine.execute("SELECT model FROM carrier:Trucks")
        haul = next(r for r in rows if r.instance_id == "HaulTruck1")
        assert set(haul.values) == {"model"}

    def test_string_predicate(self, engine: QueryEngine) -> None:
        rows = engine.execute(
            "SELECT model FROM carrier:Trucks WHERE model = T800"
        )
        assert [r.instance_id for r in rows] == ["HaulTruck1"]

    def test_rows_sorted_and_deduplicated(self, engine: QueryEngine) -> None:
        rows = engine.execute("SELECT * FROM transport:Vehicle")
        keys = [(r.source, r.instance_id) for r in rows]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_missing_attribute_fails_predicate(
        self, engine: QueryEngine
    ) -> None:
        rows = engine.execute(
            "SELECT weight FROM transport:Vehicle WHERE weight > 0"
        )
        assert {r.source for r in rows} == {"factory"}


class TestWrapperAccounting:
    def test_fetch_count_increments(
        self,
        transport: Articulation,
        carrier_kb: InstanceStore,
        factory_kb: InstanceStore,
    ) -> None:
        engine = QueryEngine(
            transport,
            {"carrier": carrier_kb, "factory": factory_kb},
        )
        before = carrier_kb.backend.stats.scans
        engine.execute("SELECT * FROM transport:Vehicle")
        engine.execute("SELECT * FROM transport:Vehicle")
        assert carrier_kb.backend.stats.scans - before == 2
