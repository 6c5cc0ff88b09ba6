"""Unit tests for the goal-directed (relevance-sliced) engine."""

from __future__ import annotations

import pytest

from repro.core.rules import HornClause
from repro.errors import InferenceError
from repro.inference.goal import GoalDirectedEngine
from repro.inference.horn import HornEngine

TRANS = HornClause(
    ("S", "?x", "?z"), (("S", "?x", "?y"), ("S", "?y", "?z"))
)
LIFT = HornClause(("implies", "?x", "?y"), (("S", "?x", "?y"),))
INSTANCE = HornClause(
    ("instance_of", "?o", "?c2"),
    (("instance_of", "?o", "?c1"), ("implies", "?c1", "?c2")),
)


def multi_predicate_engine() -> GoalDirectedEngine:
    engine = GoalDirectedEngine()
    engine.add_clauses([TRANS, LIFT, INSTANCE])
    engine.add_facts(
        [
            ("S", "Car", "Cars"),
            ("S", "Cars", "Carrier"),
            ("instance_of", "MyCar", "Car"),
            # An unrelated predicate family that the goal never needs.
            ("A", "Price", "Cars"),
            ("A", "Weight", "Cars"),
        ]
    )
    return engine


class TestAnswers:
    def test_ground_goal(self) -> None:
        engine = multi_predicate_engine()
        assert engine.holds(("S", "Car", "Carrier"))
        assert not engine.holds(("S", "Carrier", "Car"))

    def test_layered_predicates(self) -> None:
        engine = multi_predicate_engine()
        assert engine.holds(("implies", "Car", "Carrier"))
        assert engine.holds(("instance_of", "MyCar", "Carrier"))

    def test_variable_query(self) -> None:
        engine = multi_predicate_engine()
        answers = engine.query(("S", "Car", "?x"))
        assert {a["?x"] for a in answers} == {"Cars", "Carrier"}

    def test_holds_requires_ground(self) -> None:
        with pytest.raises(InferenceError):
            multi_predicate_engine().holds(("S", "?x", "Carrier"))

    def test_cycles_terminate(self) -> None:
        engine = GoalDirectedEngine()
        engine.add_clause(TRANS)
        engine.add_fact(("S", "a", "b"))
        engine.add_fact(("S", "b", "a"))
        assert engine.holds(("S", "a", "a"))
        assert not engine.holds(("S", "a", "zzz"))

    def test_explain_delegates(self) -> None:
        engine = multi_predicate_engine()
        base = engine.explain(("S", "Car", "Carrier"))
        assert set(base) == {("S", "Car", "Cars"), ("S", "Cars", "Carrier")}


class TestSlicing:
    def test_relevant_predicates_backward_closure(self) -> None:
        engine = multi_predicate_engine()
        assert engine.relevant_predicates("S") == {"S"}
        assert engine.relevant_predicates("implies") == {"implies", "S"}
        assert engine.relevant_predicates("instance_of") == {
            "instance_of",
            "implies",
            "S",
        }

    def test_slice_excludes_irrelevant_facts(self) -> None:
        engine = multi_predicate_engine()
        engine.holds(("S", "Car", "Carrier"))
        stats = engine.last_slice_stats
        assert stats["facts"] == 2  # only the S facts
        assert stats["total_facts"] == 5
        assert stats["clauses"] == 1  # only TRANS

    def test_slice_memoized(self) -> None:
        engine = multi_predicate_engine()
        engine.holds(("S", "Car", "Cars"))
        first = engine.last_slice_stats
        engine.last_slice_stats = {}
        engine.holds(("S", "Cars", "Carrier"))
        # Second query reuses the slice: stats untouched.
        assert engine.last_slice_stats == {}
        assert first["facts"] == 2

    def test_new_fact_invalidates_slices(self) -> None:
        engine = multi_predicate_engine()
        assert not engine.holds(("S", "Car", "Transportation"))
        engine.add_fact(("S", "Carrier", "Transportation"))
        assert engine.holds(("S", "Car", "Transportation"))

    def test_bodiless_clause_becomes_fact(self) -> None:
        engine = GoalDirectedEngine()
        engine.add_clause(HornClause(("S", "a", "b")))
        assert engine.holds(("S", "a", "b"))

    def test_non_ground_fact_rejected(self) -> None:
        with pytest.raises(InferenceError):
            GoalDirectedEngine().add_fact(("S", "?x", "b"))


class TestAgreementWithForward:
    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 2), (2, 3)],
            [(0, 1), (1, 0)],
            [(0, 1), (1, 2), (2, 0), (2, 4)],
            [],
        ],
    )
    def test_same_answers_per_predicate(self, edges) -> None:
        forward = HornEngine()
        sliced = GoalDirectedEngine()
        for engine in (forward, sliced):
            engine.add_clauses([TRANS, LIFT])
            for a, b in edges:
                engine.add_fact(("S", f"v{a}", f"v{b}"))
        forward.saturate()
        for predicate in ("S", "implies"):
            assert sliced.facts(predicate) == forward.facts(predicate)

    def test_fig2_agreement(self, transport) -> None:
        """The sliced engine answers the paper's questions identically
        to the full forward reasoner."""
        from repro.inference.engine import OntologyInferenceEngine

        full = OntologyInferenceEngine.from_articulation(transport)
        sliced = GoalDirectedEngine()
        # Rebuild the same program from the forward engine's inputs.
        full_engine = full.engine
        sliced.add_clauses(full_engine.clauses())
        sliced.add_facts(full_engine.base_facts())
        questions = [
            ("implies", "carrier:Car", "factory:Vehicle"),
            ("implies", "factory:Truck", "transport:CargoCarrierVehicle"),
            ("implies", "factory:Vehicle", "transport:CarsTrucks"),
            ("S", "transport:Owner", "transport:Person"),
        ]
        for question in questions:
            assert sliced.holds(question) == full_engine.holds(question)
