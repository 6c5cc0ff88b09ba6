"""Incremental (delta) saturation: parity with from-scratch evaluation.

The rebuilt Horn engine queues facts and clauses added after a
fixpoint and propagates only those deltas on the next query.  These
property-style suites assert the guarantee the module promises: for
randomized chain / tree / cyclic programs, incremental
``add_fact``-after-fixpoint is indistinguishable from building the
engine from scratch — same facts, same ``holds`` answers, same
``explain`` grounding — and the flat and naive reference engines of
:mod:`tests.support.baselines` agree with it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rules import HornClause
from repro.inference.horn import HornEngine

from tests.support.baselines import FlatHornEngine, NaiveHornEngine

TRANS = HornClause(
    ("S", "?x", "?z"), (("S", "?x", "?y"), ("S", "?y", "?z"))
)
LIFT = HornClause(("implies", "?x", "?y"), (("S", "?x", "?y"),))
IMPL_TRANS = HornClause(
    ("implies", "?x", "?z"),
    (("implies", "?x", "?y"), ("implies", "?y", "?z")),
)
INSTANCE = HornClause(
    ("instance_of", "?o", "?c2"),
    (("instance_of", "?o", "?c1"), ("implies", "?c1", "?c2")),
)
PROGRAM = [TRANS, LIFT, IMPL_TRANS, INSTANCE]

# Random edge lists over 8 nodes cover chains, trees (fan-out), cycles
# and disconnected fragments; instance facts exercise the stratified
# layers above the closure.
edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=14,
)
instance_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=6,
)


def _facts_for(edges, instances):
    atoms = [("S", f"v{a}", f"v{b}") for a, b in edges]
    atoms += [("instance_of", f"o{o}", f"v{c}") for o, c in instances]
    return atoms


def _scratch(atoms, engine_cls=HornEngine) -> HornEngine:
    engine = engine_cls()
    engine.add_clauses(PROGRAM)
    engine.add_facts(atoms)
    engine.saturate()
    return engine


class TestIncrementalFactParity:
    @given(edge_lists, edge_lists, instance_lists)
    @settings(max_examples=60, deadline=None)
    def test_facts_and_holds_match_scratch(
        self, base_edges, extra_edges, instances
    ) -> None:
        base = _facts_for(base_edges, instances)
        extra = _facts_for(extra_edges, [])
        incremental = _scratch(base)
        assert incremental.last_stats["mode"] == "full"
        incremental.add_facts(extra)
        scratch = _scratch(base + extra)
        assert incremental.facts() == scratch.facts()
        for atom in list(scratch.iter_facts("implies"))[:5]:
            assert incremental.holds(atom)

    @given(edge_lists, edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_explanations_ground_in_base_facts(
        self, base_edges, extra_edges
    ) -> None:
        base = _facts_for(base_edges, [])
        extra = _facts_for(extra_edges, [])
        engine = _scratch(base)
        engine.add_facts(extra)
        known = set(base) | set(extra)
        for atom in engine.facts("S"):
            explanation = engine.explain(atom)
            assert explanation
            assert set(explanation) <= known

    @given(edge_lists)
    @settings(max_examples=30, deadline=None)
    def test_one_fact_at_a_time_matches_batch(self, edges) -> None:
        """Saturating between every single insert equals one batch."""
        engine = HornEngine()
        engine.add_clauses(PROGRAM)
        engine.saturate()
        for atom in _facts_for(edges, []):
            engine.add_fact(atom)
            engine.saturate()
        batch = _scratch(_facts_for(edges, []))
        assert engine.facts() == batch.facts()


class TestIncrementalClauseParity:
    @given(edge_lists, instance_lists)
    @settings(max_examples=40, deadline=None)
    def test_clause_after_fixpoint_matches_scratch(
        self, edges, instances
    ) -> None:
        atoms = _facts_for(edges, instances)
        engine = HornEngine()
        engine.add_clauses([TRANS, LIFT])
        engine.add_facts(atoms)
        engine.saturate()
        # Two more layers arrive after the fixpoint.
        engine.add_clause(IMPL_TRANS)
        engine.add_clause(INSTANCE)
        scratch = _scratch(atoms)
        assert engine.facts() == scratch.facts()

    def test_new_clause_and_new_facts_together(self) -> None:
        engine = HornEngine()
        engine.add_clause(TRANS)
        engine.add_facts([("S", "a", "b"), ("S", "b", "c")])
        engine.saturate()
        engine.add_clause(LIFT)
        engine.add_fact(("S", "c", "d"))
        assert engine.holds(("implies", "a", "d"))


class TestSchedulingParity:
    # Naive evaluation has no schedule: both naive cells run the same
    # reference engine.
    @pytest.mark.parametrize(
        "engine_cls",
        [
            pytest.param(HornEngine, id="stratified-seminaive"),
            pytest.param(NaiveHornEngine, id="stratified-naive"),
            pytest.param(FlatHornEngine, id="flat-seminaive"),
            pytest.param(NaiveHornEngine, id="flat-naive"),
        ],
    )
    def test_variant_matrix_agrees(self, engine_cls) -> None:
        atoms = _facts_for(
            [(0, 1), (1, 2), (2, 0), (2, 3), (4, 4)], [(0, 0), (1, 3)]
        )
        engine = _scratch(atoms, engine_cls)
        reference = _scratch(atoms)
        assert engine.facts() == reference.facts()

    @given(edge_lists, instance_lists)
    @settings(max_examples=40, deadline=None)
    def test_stratified_equals_flat(self, edges, instances) -> None:
        atoms = _facts_for(edges, instances)
        stratified = _scratch(atoms)
        flat = _scratch(atoms, FlatHornEngine)
        assert stratified.facts() == flat.facts()

    @given(edge_lists)
    @settings(max_examples=30, deadline=None)
    def test_stratified_incremental_equals_flat_incremental(
        self, edges
    ) -> None:
        split = len(edges) // 2
        engines = []
        for engine_cls in (HornEngine, FlatHornEngine):
            engine = engine_cls()
            engine.add_clauses(PROGRAM)
            engine.add_facts(_facts_for(edges[:split], []))
            engine.saturate()
            engine.add_facts(_facts_for(edges[split:], []))
            engines.append(engine)
        assert engines[0].facts() == engines[1].facts()


class TestDeltaDedupe:
    def test_multi_occurrence_delta_joins_once(self) -> None:
        """The transitive clause reads its delta predicate at both body
        positions; the old/new discipline must enumerate each join
        exactly once per round.  Over a 2-cycle, round one joins the
        two delta facts in each role: 2 positions x (2 delta x 1
        match) + the (a,b,a)/(b,a,b) overlaps — bounded well below the
        naive double enumeration."""
        engine = HornEngine()
        engine.add_clause(TRANS)
        engine.add_facts([("S", "a", "b"), ("S", "b", "a")])
        engine.saturate()
        assert engine.facts("S") == {
            ("S", "a", "b"),
            ("S", "b", "a"),
            ("S", "a", "a"),
            ("S", "b", "b"),
        }

    def test_derived_counts_equal_across_strategies(self) -> None:
        atoms = [("S", f"n{i}", f"n{i+1}") for i in range(6)]
        counts = {}
        for engine_cls in (HornEngine, NaiveHornEngine):
            engine = engine_cls()
            engine.add_clause(TRANS)
            engine.add_facts(atoms)
            counts[engine_cls] = engine.saturate()
        assert counts[HornEngine] == counts[NaiveHornEngine]

    def test_incremental_work_tracks_delta(self) -> None:
        """Join work after a single insert must be a small fraction of
        a from-scratch run (the §5.3 maintenance win, measured)."""
        n = 40
        engine = HornEngine()
        engine.add_clause(TRANS)
        engine.add_facts([("S", f"n{i}", f"n{i+1}") for i in range(n)])
        engine.saturate()
        full = dict(engine.last_stats)
        engine.add_fact(("S", f"n{n}", f"n{n+1}"))
        engine.saturate()
        incremental = dict(engine.last_stats)
        assert incremental["mode"] == "incremental"
        assert incremental["derived"] == n + 1 - 1
        assert incremental["candidates"] * 5 < full["candidates"]
