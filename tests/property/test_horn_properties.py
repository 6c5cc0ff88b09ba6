"""Property-based tests for the Horn engine: it agrees with the naive
reference engine, closures match graph reachability, explanations are
grounded."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rules import HornClause
from repro.inference.horn import HornEngine

from tests.support.baselines import NaiveHornEngine

TRANS = HornClause(
    ("S", "?x", "?z"), (("S", "?x", "?y"), ("S", "?y", "?z"))
)

edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
    ),
    max_size=16,
)


def closure_by_graph(edges: list[tuple[int, int]]) -> set[tuple[str, str]]:
    """Reference transitive closure via plain BFS."""
    adjacency: dict[str, set[str]] = {}
    for a, b in edges:
        adjacency.setdefault(f"v{a}", set()).add(f"v{b}")
    result: set[tuple[str, str]] = set()
    for start in adjacency:
        seen: set[str] = set()
        stack = list(adjacency.get(start, ()))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            result.add((start, node))
            stack.extend(adjacency.get(node, ()))
    return result


@given(edge_lists)
@settings(max_examples=80, deadline=None)
def test_transitive_closure_matches_reachability(edges) -> None:
    engine = HornEngine()
    engine.add_clause(TRANS)
    for a, b in edges:
        engine.add_fact(("S", f"v{a}", f"v{b}"))
    engine.saturate()
    derived = {(f[1], f[2]) for f in engine.facts("S")}
    expected = closure_by_graph(edges) | {
        (f"v{a}", f"v{b}") for a, b in edges
    }
    assert derived == expected


@given(edge_lists)
@settings(max_examples=50, deadline=None)
def test_naive_and_seminaive_agree(edges) -> None:
    def run(engine_cls) -> set:
        engine = engine_cls()
        engine.add_clause(TRANS)
        engine.add_clause(
            HornClause(("R", "?y", "?x"), (("S", "?x", "?y"),))
        )
        for a, b in edges:
            engine.add_fact(("S", f"v{a}", f"v{b}"))
        engine.saturate()
        return engine.facts()

    assert run(NaiveHornEngine) == run(HornEngine)


@given(edge_lists)
@settings(max_examples=50, deadline=None)
def test_saturation_is_idempotent(edges) -> None:
    engine = HornEngine()
    engine.add_clause(TRANS)
    for a, b in edges:
        engine.add_fact(("S", f"v{a}", f"v{b}"))
    engine.saturate()
    first = engine.facts()
    derived_again = engine.saturate()
    assert derived_again == 0
    assert engine.facts() == first


@given(edge_lists)
@settings(max_examples=40, deadline=None)
def test_explanations_ground_in_base_facts(edges) -> None:
    engine = HornEngine()
    engine.add_clause(TRANS)
    base = {("S", f"v{a}", f"v{b}") for a, b in edges}
    for fact in base:
        engine.add_fact(fact)
    engine.saturate()
    for fact in engine.facts("S"):
        explanation = engine.explain(fact)
        assert explanation
        assert set(explanation) <= base


@given(edge_lists, edge_lists)
@settings(max_examples=40, deadline=None)
def test_monotonicity(edges_small, edges_extra) -> None:
    """Adding facts never removes conclusions (datalog is monotone)."""

    def run(pairs) -> set:
        engine = HornEngine()
        engine.add_clause(TRANS)
        for a, b in pairs:
            engine.add_fact(("S", f"v{a}", f"v{b}"))
        engine.saturate()
        return engine.facts()

    small = run(edges_small)
    big = run(edges_small + edges_extra)
    assert small <= big
