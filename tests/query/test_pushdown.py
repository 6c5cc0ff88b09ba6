"""Unit tests for predicate pushdown through conversion functions."""

from __future__ import annotations

import pytest

from repro.core.articulation import Articulation
from repro.core.rules import FunctionalRule, TermRef
from repro.kb.instances import InstanceStore
from repro.query.ast import Condition, Query
from repro.query.engine import QueryEngine
from repro.query.pushdown import push_condition, pushable, split_conditions
from repro.query.reformulate import Conversion, reformulate
from repro.query.wrappers import InstanceStoreWrapper
from repro.workloads.paper_example import (
    PS_PER_EURO,
    carrier_store,
    factory_store,
)


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


class TestPushability:
    def test_range_ops_push(self, transport: Articulation) -> None:
        query = Query.over(
            "transport:Vehicle", where=[Condition("price", "<", 100)]
        )
        plan = carrier_price_plan(transport, query)
        assert pushable(query.where[0], plan)

    def test_equality_never_pushes_through_conversion(
        self, transport: Articulation
    ) -> None:
        query = Query.over(
            "transport:Vehicle", where=[Condition("price", "=", 100)]
        )
        plan = carrier_price_plan(transport, query)
        assert not pushable(query.where[0], plan)

    def test_unconverted_attribute_trivially_pushes(
        self, transport: Articulation
    ) -> None:
        query = Query.over(
            "transport:Vehicle", where=[Condition("model", "=", "T800")]
        )
        plan = carrier_price_plan(transport, query)
        assert pushable(query.where[0], plan)

    def test_non_numeric_constant_does_not_push(
        self, transport: Articulation
    ) -> None:
        query = Query.over(
            "transport:Vehicle", where=[Condition("price", "<", "cheap")]
        )
        plan = carrier_price_plan(transport, query)
        assert not pushable(query.where[0], plan)

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
        plain = QueryEngine(transport, stores)
        pushed = QueryEngine(transport, stores, pushdown=True)
        rows_plain = plain.execute(question)
        rows_pushed = pushed.execute(question)
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
        carrier_wrapper = InstanceStoreWrapper(carrier_store())
        factory_wrapper = InstanceStoreWrapper(factory_store())
        engine = QueryEngine(
            transport,
            {"carrier": carrier_wrapper, "factory": factory_wrapper},
            pushdown=True,
        )
        engine.execute(
            "SELECT price FROM transport:Vehicle WHERE price < 5000"
        )
        pushed_total = (
            carrier_wrapper.fetched_instances
            + factory_wrapper.fetched_instances
        )

        carrier_plain = InstanceStoreWrapper(carrier_store())
        factory_plain = InstanceStoreWrapper(factory_store())
        plain = QueryEngine(
            transport,
            {"carrier": carrier_plain, "factory": factory_plain},
        )
        plain.execute(
            "SELECT price FROM transport:Vehicle WHERE price < 5000"
        )
        plain_total = (
            carrier_plain.fetched_instances
            + factory_plain.fetched_instances
        )
        assert pushed_total < plain_total
