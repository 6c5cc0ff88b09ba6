"""Unit tests for the Horn-clause forward-chaining engine."""

from __future__ import annotations

import pytest

from repro.core.rules import HornClause
from repro.errors import InferenceError
from repro.inference.horn import (
    FactStore,
    HornEngine,
    compile_clause,
    is_variable,
    substitute,
    unify_atom,
)

from tests.support.baselines import NaiveHornEngine

TRANS = HornClause(
    ("S", "?x", "?z"), (("S", "?x", "?y"), ("S", "?y", "?z"))
)


class TestAtoms:
    def test_is_variable(self) -> None:
        assert is_variable("?X")
        assert not is_variable("X")

    def test_substitute(self) -> None:
        atom = ("S", "?x", "b")
        assert substitute(atom, {"?x": "a"}) == ("S", "a", "b")

    def test_substitute_leaves_unbound(self) -> None:
        assert substitute(("S", "?x", "?y"), {"?x": "a"}) == ("S", "a", "?y")

    def test_unify_success(self) -> None:
        assert unify_atom(("S", "?x", "b"), ("S", "a", "b")) == {"?x": "a"}

    def test_unify_predicate_mismatch(self) -> None:
        assert unify_atom(("S", "?x", "b"), ("A", "a", "b")) is None

    def test_unify_constant_mismatch(self) -> None:
        assert unify_atom(("S", "a", "b"), ("S", "a", "c")) is None

    def test_unify_repeated_variable_must_agree(self) -> None:
        assert unify_atom(("S", "?x", "?x"), ("S", "a", "a")) == {"?x": "a"}
        assert unify_atom(("S", "?x", "?x"), ("S", "a", "b")) is None

    def test_unify_extends_binding(self) -> None:
        binding = {"?x": "a"}
        result = unify_atom(("S", "?x", "?y"), ("S", "a", "b"), binding)
        assert result == {"?x": "a", "?y": "b"}
        assert binding == {"?x": "a"}  # input untouched


@pytest.mark.parametrize(
    "engine_cls",
    [
        pytest.param(HornEngine, id="seminaive"),
        pytest.param(NaiveHornEngine, id="naive"),
    ],
)
class TestSaturation:
    def test_transitive_closure(self, engine_cls) -> None:
        engine = engine_cls()
        engine.add_clause(TRANS)
        engine.add_facts([("S", "a", "b"), ("S", "b", "c"), ("S", "c", "d")])
        engine.saturate()
        assert engine.holds(("S", "a", "d"))
        assert engine.holds(("S", "a", "c"))
        assert not engine.holds(("S", "d", "a"))

    def test_closure_size_on_chain(self, engine_cls) -> None:
        engine = engine_cls()
        engine.add_clause(TRANS)
        n = 12
        for i in range(n - 1):
            engine.add_fact(("S", f"n{i}", f"n{i+1}"))
        engine.saturate()
        assert len(engine.facts("S")) == n * (n - 1) // 2

    def test_symmetric_rule(self, engine_cls) -> None:
        engine = engine_cls()
        engine.add_clause(
            HornClause(("sib", "?y", "?x"), (("sib", "?x", "?y"),))
        )
        engine.add_fact(("sib", "a", "b"))
        assert engine.holds(("sib", "b", "a"))

    def test_multi_body_join(self, engine_cls) -> None:
        engine = engine_cls()
        engine.add_clause(
            HornClause(
                ("uncle", "?u", "?n"),
                (("brother", "?u", "?p"), ("parent", "?p", "?n")),
            )
        )
        engine.add_fact(("brother", "bob", "sue"))
        engine.add_fact(("parent", "sue", "kid"))
        assert engine.holds(("uncle", "bob", "kid"))

    def test_cycle_terminates(self, engine_cls) -> None:
        engine = engine_cls()
        engine.add_clause(TRANS)
        engine.add_facts([("S", "a", "b"), ("S", "b", "a")])
        engine.saturate()
        assert engine.holds(("S", "a", "a"))
        assert engine.holds(("S", "b", "b"))

    def test_saturate_returns_derived_count(self, engine_cls) -> None:
        engine = engine_cls()
        engine.add_clause(TRANS)
        engine.add_facts([("S", "a", "b"), ("S", "b", "c")])
        derived = engine.saturate()
        assert derived == 1  # only (a, c)

    def test_strategies_agree(self, engine_cls) -> None:
        # Build the same program on both engines; compare closures.
        def build(cls) -> set:
            engine = cls()
            engine.add_clause(TRANS)
            engine.add_clause(
                HornClause(("R", "?x", "?y"), (("S", "?x", "?y"),))
            )
            engine.add_facts(
                [("S", "a", "b"), ("S", "b", "c"), ("S", "c", "a")]
            )
            engine.saturate()
            return engine.facts()

        assert build(engine_cls) == build(NaiveHornEngine)


class TestProgramHygiene:
    def test_non_ground_fact_rejected(self) -> None:
        engine = HornEngine()
        with pytest.raises(InferenceError):
            engine.add_fact(("S", "?x", "b"))

    def test_unsafe_clause_rejected(self) -> None:
        engine = HornEngine()
        with pytest.raises(InferenceError):
            engine.add_clause(
                HornClause(("S", "?x", "?z"), (("S", "?x", "?y"),))
            )

    def test_bodiless_clause_becomes_fact(self) -> None:
        engine = HornEngine()
        engine.add_clause(HornClause(("S", "a", "b")))
        assert engine.holds(("S", "a", "b"))

    def test_duplicate_fact_reports_false(self) -> None:
        engine = HornEngine()
        assert engine.add_fact(("S", "a", "b"))
        assert not engine.add_fact(("S", "a", "b"))

    def test_duplicate_clause_ignored(self) -> None:
        engine = HornEngine()
        engine.add_clause(TRANS)
        engine.add_clause(TRANS)
        engine.add_facts([("S", "a", "b"), ("S", "b", "c")])
        assert engine.saturate() == 1


class TestQueries:
    @pytest.fixture
    def engine(self) -> HornEngine:
        engine = HornEngine()
        engine.add_clause(TRANS)
        engine.add_facts([("S", "a", "b"), ("S", "b", "c")])
        return engine

    def test_query_with_variables(self, engine: HornEngine) -> None:
        bindings = engine.query(("S", "a", "?x"))
        assert {b["?x"] for b in bindings} == {"b", "c"}

    def test_query_all_pairs(self, engine: HornEngine) -> None:
        bindings = engine.query(("S", "?x", "?y"))
        assert len(bindings) == 3

    def test_query_ground_atom(self, engine: HornEngine) -> None:
        assert engine.query(("S", "a", "b")) == [{}]

    def test_query_saturates_lazily(self) -> None:
        engine = HornEngine()
        engine.add_clause(TRANS)
        engine.add_facts([("S", "a", "b"), ("S", "b", "c")])
        # No explicit saturate(): holds() must trigger it.
        assert engine.holds(("S", "a", "c"))

    def test_new_facts_invalidate_saturation(self, engine: HornEngine) -> None:
        assert engine.holds(("S", "a", "c"))
        engine.add_fact(("S", "c", "d"))
        assert engine.holds(("S", "a", "d"))

    def test_facts_by_predicate(self, engine: HornEngine) -> None:
        engine.add_fact(("other", "x", "y"))
        assert all(f[0] == "S" for f in engine.facts("S"))
        assert ("other", "x", "y") in engine.facts()

    def test_iter_facts_matches_facts_without_copying(
        self, engine: HornEngine
    ) -> None:
        assert set(engine.iter_facts("S")) == engine.facts("S")
        assert set(engine.iter_facts()) == engine.facts()

    def test_fact_count(self, engine: HornEngine) -> None:
        engine.add_fact(("other", "x", "y"))
        assert engine.fact_count("S") == 3
        assert engine.fact_count() == 4

    def test_query_uses_most_selective_index(self, engine: HornEngine) -> None:
        # Both a bound first and a bound second argument answer
        # identically regardless of which bucket gets probed.
        assert {b["?x"] for b in engine.query(("S", "?x", "c"))} == {"a", "b"}
        assert {b["?x"] for b in engine.query(("S", "a", "?x"))} == {"b", "c"}


class TestExplanations:
    def test_base_fact_explains_itself(self) -> None:
        engine = HornEngine()
        engine.add_fact(("S", "a", "b"))
        assert engine.explain(("S", "a", "b")) == [("S", "a", "b")]

    def test_derived_fact_traces_to_base_facts(self) -> None:
        engine = HornEngine()
        engine.add_clause(TRANS)
        engine.add_facts([("S", "a", "b"), ("S", "b", "c"), ("S", "c", "d")])
        base = set(engine.explain(("S", "a", "d")))
        assert base <= {("S", "a", "b"), ("S", "b", "c"), ("S", "c", "d")}
        assert len(base) >= 2

    def test_explain_unknown_fact_raises(self) -> None:
        engine = HornEngine()
        with pytest.raises(InferenceError):
            engine.explain(("S", "nope", "nope"))

    def test_no_explain_mode_raises_but_derives(self) -> None:
        engine = HornEngine(record_derivations=False)
        engine.add_clause(TRANS)
        engine.add_facts([("S", "a", "b"), ("S", "b", "c")])
        assert engine.holds(("S", "a", "c"))
        with pytest.raises(InferenceError):
            engine.explain(("S", "a", "c"))

    def test_explain_covers_incremental_derivations(self) -> None:
        engine = HornEngine()
        engine.add_clause(TRANS)
        engine.add_facts([("S", "a", "b"), ("S", "b", "c")])
        engine.saturate()
        engine.add_fact(("S", "c", "d"))
        base = set(engine.explain(("S", "a", "d")))
        assert base <= {("S", "a", "b"), ("S", "b", "c"), ("S", "c", "d")}
        assert ("S", "c", "d") in base


class TestCompilationAndStore:
    def test_compiled_clause_shared_across_engines(self) -> None:
        assert compile_clause(TRANS) is compile_clause(TRANS)

    def test_compiled_plan_reorders_for_selectivity(self) -> None:
        clause = HornClause(
            ("uncle", "?u", "?n"),
            (("parent", "?p", "?n"), ("brother", "?u", "?p")),
        )
        compiled = compile_clause(clause)
        # Each delta plan leads with its delta atom.
        for index, plan in enumerate(compiled.delta_plans):
            assert plan.steps[0].orig == index
        assert compiled.body_preds == {"parent", "brother"}

    def test_store_overlay_shares_base_without_copying(self) -> None:
        base = FactStore()
        base.add(("S", "a", "b"))
        base.add(("T", "a", "b"))
        overlay = FactStore(base=base, visible=frozenset({"S"}))
        assert ("S", "a", "b") in overlay
        assert ("T", "a", "b") not in overlay  # restricted away
        overlay.add(("S", "b", "c"))
        assert set(overlay.pool("S")) == {("S", "a", "b"), ("S", "b", "c")}
        assert set(base.pool("S")) == {("S", "a", "b")}  # base untouched
        assert overlay.probe_size("S", 2, "b") == 1
        assert len(overlay) == 2

    def test_engine_over_overlay_store_saturates_against_base(self) -> None:
        base = FactStore()
        base.add(("S", "a", "b"))
        base.add(("S", "b", "c"))
        engine = HornEngine(
            store=FactStore(base=base, visible=frozenset({"S"}))
        )
        engine.add_clause(TRANS)
        assert engine.holds(("S", "a", "c"))
        assert ("S", "a", "c") not in base  # derived facts stay local
