"""Unit tests for the planner layer: physical plans, pushdown
annotations, plans that follow articulation edits, and streaming
execution stats."""

from __future__ import annotations

import pytest

from repro.core.articulation import Articulation
from repro.kb.backends import SQLiteBackend
from repro.kb.instances import InstanceStore
from repro.query.engine import QueryEngine
from repro.query.planner import PhysicalPlan
from repro.workloads.paper_example import carrier_store, factory_store


@pytest.fixture
def engine(
    transport: Articulation,
    carrier_kb: InstanceStore,
    factory_kb: InstanceStore,
) -> QueryEngine:
    return QueryEngine(
        transport, {"carrier": carrier_kb, "factory": factory_kb}
    )


class TestPhysicalPlan:
    def test_plan_is_an_operator_tree(self, engine: QueryEngine) -> None:
        plan = engine.plan(
            "SELECT price FROM transport:Vehicle WHERE price < 10000"
        )
        assert isinstance(plan, PhysicalPlan)
        assert {p.source for p in plan.pipelines} == {"carrier", "factory"}
        for pipeline in plan.pipelines:
            # the range predicate and the projection both push
            assert [c.attribute for c in pipeline.scan.pushed] == ["price"]
            assert pipeline.scan.projection == ("price",)
            assert pipeline.filter.residual == ()

    def test_pushdown_annotates_scan_ops(
        self, transport: Articulation
    ) -> None:
        engine = QueryEngine(
            transport,
            {"carrier": carrier_store(), "factory": factory_store()},
        )
        plan = engine.plan(
            "SELECT price FROM transport:Vehicle WHERE price < 10000"
        )
        for pipeline in plan.pipelines:
            assert len(pipeline.scan.pushed) == 1
            # translated into the source's own metric
            assert pipeline.scan.pushed[0].value != 10000
            assert pipeline.filter.residual == ()

    def test_describe_shows_push_project_merge_finalize(
        self, transport: Articulation
    ) -> None:
        engine = QueryEngine(
            transport,
            {"carrier": carrier_store().clone(SQLiteBackend())},
        )
        text = engine.plan(
            "SELECT price FROM transport:Vehicle WHERE price < 10000"
            " ORDER BY price LIMIT 3"
        ).describe()
        assert "scan carrier" in text
        assert "push price <" in text
        assert "project ['price']" in text
        assert "convert price" in text
        assert "merge" in text
        assert "finalize" in text
        assert "limit 3" in text

    def test_select_star_pushes_no_projection(
        self, engine: QueryEngine
    ) -> None:
        plan = engine.plan("SELECT * FROM transport:Vehicle")
        for pipeline in plan.pipelines:
            assert pipeline.scan.projection is None


class TestPlanCache:
    """The planner keeps no cache: every plan reads the articulation
    as it is at the call."""

    def test_articulation_edit_invalidates(
        self, engine: QueryEngine
    ) -> None:
        question = "SELECT price FROM transport:Vehicle"
        first = engine.plan(question)
        classes = {p.source: p.scan.classes for p in first.pipelines}
        assert classes["carrier"] == ("Car",)
        # carrier:Cars bridges to transport:CarsTrucks; making that a
        # Vehicle brings the carrier's Cars and Trucks into the scan
        engine.unified.articulation.ontology.add_subclass(
            "CarsTrucks", "Vehicle"
        )
        second = engine.plan(question)
        classes = {p.source: p.scan.classes for p in second.pipelines}
        assert classes["carrier"] == ("Cars", "Trucks")
        assert classes["factory"] == ("Vehicle",)

    def test_fingerprint_changes_with_bridges(
        self, transport: Articulation
    ) -> None:
        """The result cache keys on this stamp, so an articulation edit
        must move it."""
        before = transport.fingerprint()
        transport.ontology.add_term("Hovercraft")
        assert transport.fingerprint() != before

    def test_rule_update_under_same_label_invalidates(
        self, transport: Articulation, carrier_kb, factory_kb
    ) -> None:
        """A rate update re-registered under the same label (the churn
        scenario) must not serve plans with the stale conversion."""
        from dataclasses import replace

        engine = QueryEngine(
            transport, {"carrier": carrier_kb, "factory": factory_kb}
        )
        question = "SELECT price FROM transport:Vehicle"
        before = engine.execute(question)
        functions = engine.unified.articulation.functions
        for label, rule in list(functions.items()):
            functions[label] = replace(
                rule,
                fn=lambda x, old=rule.fn: old(x) * 1000,
                expr_text=None,
                inverse_expr_text=None,
            )
        after = engine.execute(question)
        by_id = {r.instance_id: r for r in before}
        changed = [
            r
            for r in after
            if r.get("price") is not None
            and r.get("price") != by_id[r.instance_id].get("price")
        ]
        assert changed, "a stale plan served obsolete conversions"


class TestStreamingExecution:
    def test_aggregate_queries_materialize_one_row(
        self, engine: QueryEngine
    ) -> None:
        rows = engine.execute("SELECT COUNT(*) FROM transport:Vehicle")
        stats = engine.last_stats
        assert rows[0].get("count(*)") == stats.rows_scanned > 1
        assert stats.peak_rows == 1

    def test_limit_stops_pulling_early(self, engine: QueryEngine) -> None:
        rows = engine.execute("SELECT price FROM transport:Vehicle LIMIT 1")
        stats = engine.last_stats
        assert len(rows) == 1
        assert stats.peak_rows == 1
        # only one instance was ever pulled out of the backends
        assert stats.rows_scanned == 1

    def test_order_by_forces_sort_barrier(
        self, engine: QueryEngine
    ) -> None:
        engine.execute(
            "SELECT price FROM transport:Vehicle ORDER BY price"
        )
        stats = engine.last_stats
        assert stats.peak_rows >= stats.rows_out > 1

    def test_streamed_rows_arrive_sorted(self, engine: QueryEngine) -> None:
        rows = engine.execute("SELECT price FROM transport:Vehicle")
        keys = [(r.source, r.instance_id) for r in rows]
        assert keys == sorted(keys)

    def test_per_source_scan_accounting(self, engine: QueryEngine) -> None:
        engine.execute("SELECT price FROM transport:Vehicle")
        stats = engine.last_stats
        assert set(stats.per_source) == {"carrier", "factory"}
        assert sum(stats.per_source.values()) == stats.rows_scanned
