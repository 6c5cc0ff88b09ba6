"""Unit tests for predicate pushdown through conversion functions."""

from __future__ import annotations

import pytest

from repro.core.articulation import Articulation
from repro.core.rules import FunctionalRule, TermRef
from repro.kb.backends import SQLiteBackend
from repro.kb.instances import InstanceStore
from repro.query.ast import Condition, Query
from repro.query.engine import QueryEngine
from repro.query.pushdown import push_condition, split_conditions
from repro.query.reformulate import Conversion, SourcePlan, reformulate
from repro.query.views import ViewCatalog
from repro.workloads.paper_example import (
    PS_PER_EURO,
    carrier_store,
    factory_store,
    generate_transport_articulation,
)
from tests.support.baselines import execute_unpushed


def carrier_price_plan(transport: Articulation, query: Query):
    plans = reformulate(query, transport)
    return next(p for p in plans if p.source == "carrier")


class TestConversionInverse:
    def test_invertible_chain(self, transport: Articulation) -> None:
        query = Query.over("transport:Vehicle", select=["price"])
        plan = carrier_price_plan(transport, query)
        conversion = plan.conversions["price"]
        assert conversion.invertible
        assert conversion.apply_inverse(1.0) == pytest.approx(PS_PER_EURO)
        assert conversion.is_increasing()

    def test_two_hop_inverse(self, transport: Articulation) -> None:
        query = Query.over("carrier:Trucks", select=["price"])
        plans = reformulate(query, transport)
        factory_plan = next(p for p in plans if p.source == "factory")
        conversion = factory_plan.conversions["price"]
        assert conversion.invertible
        value = conversion.apply(500.0)
        assert conversion.apply_inverse(value) == pytest.approx(500.0)

    def test_decreasing_conversion_flips_operator(self) -> None:
        decreasing = Conversion(
            "temp",
            "a:U",
            "b:V",
            (
                FunctionalRule(
                    "Neg",
                    TermRef("a", "U"),
                    TermRef("b", "V"),
                    fn=lambda x: -x,
                    inverse=lambda x: -x,
                ),
            ),
        )

        class FakePlan:
            conversions = {"temp": decreasing}

        condition = Condition("temp", "<", 5)
        pushed = push_condition(condition, FakePlan())  # type: ignore[arg-type]
        assert pushed.op == ">"
        assert pushed.value == pytest.approx(-5.0)

    def test_no_exact_threshold_stays_residual(self) -> None:
        """An inverse that misses the boundary by far more than a few
        floats yields no pushed condition; the condition stays
        residual."""
        off = Conversion(
            "price",
            "a:U",
            "b:V",
            (
                FunctionalRule(
                    "Shift",
                    TermRef("a", "U"),
                    TermRef("b", "V"),
                    fn=lambda x: x + 1000.0,
                    inverse=lambda x: x,
                ),
            ),
        )

        class FakePlan:
            conversions = {"price": off}

        query = Query.over("b:V", where=[Condition("price", "<", 5000)])
        plan: SourcePlan = FakePlan()  # type: ignore[assignment]
        assert push_condition(query.where[0], plan) is None
        assert split_conditions(query, plan) == ((), query.where)


class TestPushability:
    def test_range_ops_push(self, transport: Articulation) -> None:
        query = Query.over(
            "transport:Vehicle", where=[Condition("price", "<", 100)]
        )
        plan = carrier_price_plan(transport, query)
        assert push_condition(query.where[0], plan) is not None

    def test_equality_never_pushes_through_conversion(
        self, transport: Articulation
    ) -> None:
        query = Query.over(
            "transport:Vehicle", where=[Condition("price", "=", 100)]
        )
        plan = carrier_price_plan(transport, query)
        assert push_condition(query.where[0], plan) is None

    def test_unconverted_attribute_trivially_pushes(
        self, transport: Articulation
    ) -> None:
        query = Query.over(
            "transport:Vehicle", where=[Condition("model", "=", "T800")]
        )
        plan = carrier_price_plan(transport, query)
        assert push_condition(query.where[0], plan) == query.where[0]

    def test_non_numeric_constant_does_not_push(
        self, transport: Articulation
    ) -> None:
        query = Query.over(
            "transport:Vehicle", where=[Condition("price", "<", "cheap")]
        )
        plan = carrier_price_plan(transport, query)
        assert push_condition(query.where[0], plan) is None

    def test_split_conditions_splits_residual(
        self, transport: Articulation
    ) -> None:
        query = Query.over(
            "transport:Vehicle",
            where=[
                Condition("price", "<", 10000),
                Condition("price", "=", 42),
            ],
        )
        plan = carrier_price_plan(transport, query)
        pushed, residual = split_conditions(query, plan)
        assert pushed == (push_condition(query.where[0], plan),)
        assert residual == (Condition("price", "=", 42),)


class TestEndToEndEquivalence:
    @pytest.fixture
    def stores(self) -> dict[str, InstanceStore]:
        return {"carrier": carrier_store(), "factory": factory_store()}

    @pytest.mark.parametrize(
        "question",
        [
            "SELECT price FROM transport:Vehicle WHERE price < 10000",
            "SELECT price FROM transport:Vehicle WHERE price >= 10000",
            "SELECT price FROM carrier:Trucks WHERE price < 20000",
            "SELECT price FROM transport:Vehicle "
            "WHERE price > 4000 AND price <= 9000",
            "SELECT model FROM carrier:Trucks WHERE model = T800",
            "SELECT COUNT(*) FROM transport:Vehicle WHERE price < 10000",
        ],
    )
    def test_pushdown_equals_plain_execution(
        self, transport: Articulation, stores, question
    ) -> None:
        engine = QueryEngine(transport, stores)
        rows_plain = execute_unpushed(engine, question)
        rows_pushed = engine.execute(question)
        assert [
            (r.source, r.instance_id, sorted(r.values.items()))
            for r in rows_plain
        ] == [
            (r.source, r.instance_id, sorted(r.values.items()))
            for r in rows_pushed
        ]

    def test_pushdown_reduces_fetched_instances(
        self, transport: Articulation
    ) -> None:
        def fetched(execute) -> int:
            stores = {"carrier": carrier_store(), "factory": factory_store()}
            execute(
                QueryEngine(transport, stores),
                "SELECT price FROM transport:Vehicle WHERE price < 5000",
            )
            return sum(
                store.backend.stats.rows_yielded for store in stores.values()
            )

        assert fetched(QueryEngine.execute) < fetched(execute_unpushed)


class TestExactThresholds:
    """A pushed threshold splits stored values exactly where their
    converted values split.  7111 PS converts to exactly 10000.0 EUR,
    while the inverse ``10000 * 0.7111`` rounds to 7110.999999999999."""

    @staticmethod
    def boundary_engine(backend_kind: str = "memory") -> QueryEngine:
        carrier = carrier_store()
        carrier.add("Boundary", "Car", price=7111)
        if backend_kind == "sqlite":
            carrier = carrier.clone(SQLiteBackend())
        return QueryEngine(
            generate_transport_articulation(),
            {"carrier": carrier, "factory": factory_store()},
        )

    @pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_boundary_price_answers_as_unpushed(
        self, op: str, backend_kind: str
    ) -> None:
        engine = self.boundary_engine(backend_kind)
        question = (
            f"SELECT price FROM transport:Vehicle WHERE price {op} 10000"
        )
        rows = engine.execute(question)
        assert [(r.source, r.instance_id) for r in rows] == [
            (r.source, r.instance_id)
            for r in execute_unpushed(engine, question)
        ]
        kept = ("carrier", "Boundary") in {
            (r.source, r.instance_id) for r in rows
        }
        assert kept == (op in ("<=", ">="))

    def test_view_answers_as_the_live_plan(self) -> None:
        engine = self.boundary_engine()
        catalog = ViewCatalog(engine)
        question = "SELECT price FROM transport:Vehicle WHERE price <= 10000"
        live = catalog.execute(question)
        catalog.define("vehicles", "SELECT price FROM transport:Vehicle")
        from_view = catalog.execute(question)
        assert catalog.hits == 1
        assert [(r.source, r.instance_id) for r in from_view] == [
            (r.source, r.instance_id) for r in live
        ]
