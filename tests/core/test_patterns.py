"""Unit tests for graph patterns and the strict/fuzzy matcher."""

from __future__ import annotations

import pytest

from repro.core.graph import LabeledGraph
from repro.core.ontology import Ontology
from repro.core.patterns import (
    ANY_LABEL,
    MatchConfig,
    Pattern,
    find_matches,
    first_match,
    matches,
)
from repro.errors import PatternError

from tests.support.baselines import find_matches_scan

# the production search and the label-scan reference, by name
MATCHERS = {"indexed": find_matches, "scan": find_matches_scan}


@pytest.fixture
def graph(carrier: Ontology) -> LabeledGraph:
    return carrier.graph


class TestPatternConstruction:
    def test_duplicate_node_id_rejected(self) -> None:
        pattern = Pattern()
        pattern.add_node("n", "Car")
        with pytest.raises(PatternError):
            pattern.add_node("n", "Cars")

    def test_edge_requires_known_endpoints(self) -> None:
        pattern = Pattern()
        pattern.add_node("n", "Car")
        with pytest.raises(PatternError):
            pattern.add_edge("n", "S", "ghost")

    def test_edge_label_empty_rejected(self) -> None:
        pattern = Pattern()
        pattern.add_node("a", "Car")
        pattern.add_node("b", "Cars")
        with pytest.raises(PatternError):
            pattern.add_edge("a", "", "b")

    def test_single_factory(self) -> None:
        pattern = Pattern.single("Car", ontology="carrier")
        assert len(pattern) == 1
        assert pattern.ontology == "carrier"

    def test_path_factory(self) -> None:
        pattern = Pattern.path(["Car", "Cars", "Carrier"], edge_label="S")
        assert len(pattern) == 3
        assert len(pattern.edges()) == 2

    def test_path_needs_labels(self) -> None:
        with pytest.raises(PatternError):
            Pattern.path([])

    def test_variables_listed(self) -> None:
        pattern = Pattern()
        pattern.add_node("n0", "Trucks")
        pattern.add_node("n1", None, "O")
        pattern.add_edge("n1", "A", "n0")
        assert pattern.variables() == ["O"]


class TestStrictMatching:
    def test_single_node_match(self, graph: LabeledGraph) -> None:
        assert matches(Pattern.single("Car"), graph)

    def test_single_node_no_match(self, graph: LabeledGraph) -> None:
        assert not matches(Pattern.single("Spaceship"), graph)

    def test_empty_pattern_raises(self, graph: LabeledGraph) -> None:
        with pytest.raises(PatternError):
            list(find_matches(Pattern(), graph))

    def test_edge_condition_enforced(self, graph: LabeledGraph) -> None:
        pattern = Pattern.path(["Car", "Cars"], edge_label="S")
        assert matches(pattern, graph)
        wrong_direction = Pattern.path(["Cars", "Car"], edge_label="S")
        assert not matches(wrong_direction, graph)

    def test_edge_label_must_agree(self, graph: LabeledGraph) -> None:
        pattern = Pattern.path(["Car", "Cars"], edge_label="A")
        assert not matches(pattern, graph)

    def test_any_label_wildcard(self, graph: LabeledGraph) -> None:
        pattern = Pattern.path(["Car", "Driver"], edge_label=ANY_LABEL)
        assert matches(pattern, graph)  # the drivenBy edge

    def test_binding_exposes_mapping(self, graph: LabeledGraph) -> None:
        pattern = Pattern.path(["Car", "Cars"], edge_label="S")
        binding = first_match(pattern, graph)
        assert binding is not None
        assert binding["n0"] == "Car"
        assert binding.matched_nodes() == frozenset({"Car", "Cars"})

    def test_variable_binding(self, graph: LabeledGraph) -> None:
        pattern = Pattern()
        pattern.add_node("truck", "Trucks")
        pattern.add_node("owner", None, "O")
        pattern.add_edge("owner", "A", "truck")
        variables = {b.var("O") for b in find_matches(pattern, graph)}
        # Trucks has A-edges from Price, Owner, Model.
        assert variables == {"Price", "Owner", "Model"}

    def test_multi_edge_pattern(self, graph: LabeledGraph) -> None:
        pattern = Pattern()
        pattern.add_node("t", "Trucks")
        pattern.add_node("o", "Owner")
        pattern.add_node("m", "Model")
        pattern.add_edge("o", "A", "t")
        pattern.add_edge("m", "A", "t")
        assert matches(pattern, graph)

    def test_limit_stops_enumeration(self, graph: LabeledGraph) -> None:
        pattern = Pattern()
        pattern.add_node("x", None, "X")
        results = list(find_matches(pattern, graph, limit=3))
        assert len(results) == 3

    def test_zero_limit_yields_nothing(self) -> None:
        g = LabeledGraph()
        for node in ("a", "b", "c"):
            g.add_node(node, "X")
        for matcher in MATCHERS.values():
            assert list(matcher(Pattern.single("X"), g, limit=0)) == []

    def test_negative_limit_rejected(self) -> None:
        g = LabeledGraph()
        for node in ("a", "b", "c"):
            g.add_node(node, "X")
        for matcher in MATCHERS.values():
            with pytest.raises(PatternError):
                matcher(Pattern.single("X"), g, limit=-1)

    def test_wildcard_matches_every_node(self, graph: LabeledGraph) -> None:
        pattern = Pattern()
        pattern.add_node("x", None, "X")
        results = list(find_matches(pattern, graph))
        assert len(results) == graph.node_count()

    def test_homomorphism_default_not_injective(self) -> None:
        g = LabeledGraph()
        g.add_node("n", "A")
        g.add_edge("n", "r", "n")  # self loop
        pattern = Pattern()
        pattern.add_node("p1", "A")
        pattern.add_node("p2", "A")
        pattern.add_edge("p1", "r", "p2")
        # Non-injective: both pattern nodes may map to the single node.
        assert matches(pattern, g)
        assert not matches(pattern, g, MatchConfig(injective=True))


class TestFuzzyMatching:
    def test_case_insensitive(self, graph: LabeledGraph) -> None:
        pattern = Pattern.single("car")
        assert not matches(pattern, graph)
        assert matches(pattern, graph, MatchConfig(case_insensitive=True))

    def test_synonyms_relax_condition_one(self, graph: LabeledGraph) -> None:
        pattern = Pattern.single("Automobile")
        config = MatchConfig.with_synonyms([("Automobile", "Car")])
        assert matches(pattern, graph, config)

    def test_synonyms_are_symmetric(self, graph: LabeledGraph) -> None:
        pattern = Pattern.single("Car")
        config = MatchConfig.with_synonyms([("Automobile", "Car")])
        # Car still matches itself under the synonym config.
        assert matches(pattern, graph, config)

    def test_relax_edge_labels(self, graph: LabeledGraph) -> None:
        pattern = Pattern.path(["Car", "Cars"], edge_label="A")
        assert matches(pattern, graph, MatchConfig(relax_edge_labels=True))

    def test_node_equiv_escape_hatch(self, graph: LabeledGraph) -> None:
        config = MatchConfig(
            node_equiv=lambda p, g: p == "AnyVehicle" and g in ("Car", "SUV")
        )
        pattern = Pattern.single("AnyVehicle")
        found = {
            b["n0"] for b in find_matches(pattern, graph, config)
        }
        assert found == {"Car", "SUV"}

    def test_edge_equiv_escape_hatch(self, graph: LabeledGraph) -> None:
        config = MatchConfig(edge_equiv=lambda p, g: {p, g} == {"S", "A"})
        pattern = Pattern.path(["Car", "Cars"], edge_label="A")
        assert matches(pattern, graph, config)

    def test_strict_config_factory(self) -> None:
        config = MatchConfig.strict()
        assert not config.case_insensitive
        assert not config.relax_edge_labels


class TestSynonymClosure:
    def test_transitive_chain_closes(self, graph: LabeledGraph) -> None:
        """a~b plus b~c must let a match c without restating the pair."""
        config = MatchConfig.with_synonyms(
            [("Automobile", "Motorcar"), ("Motorcar", "Car")]
        )
        # 'Automobile' reaches the graph's 'Car' through the chain.
        assert matches(Pattern.single("Automobile"), graph, config)
        assert config.synonyms["Automobile"] == frozenset(
            {"Motorcar", "Car"}
        )
        assert config.synonyms["Car"] == frozenset(
            {"Motorcar", "Automobile"}
        )

    def test_closure_spans_components_independently(self) -> None:
        config = MatchConfig.with_synonyms(
            [("a", "b"), ("b", "c"), ("x", "y")]
        )
        assert config.synonyms["a"] == frozenset({"b", "c"})
        assert config.synonyms["x"] == frozenset({"y"})
        assert "a" not in config.synonyms["x"]


class TestDeterministicEnumeration:
    def test_candidates_enumerate_sorted(self) -> None:
        g = LabeledGraph()
        for node in ("z9", "m5", "a1", "k3"):
            g.add_node(node, "Same")
        pattern = Pattern.single("Same")
        for matcher in MATCHERS.values():
            found = [b["n0"] for b in matcher(pattern, g)]
            assert found == sorted(found) == ["a1", "k3", "m5", "z9"]

    def test_wildcard_enumerates_sorted(self) -> None:
        g = LabeledGraph()
        for node in ("w", "b", "q", "d"):
            g.add_node(node)
        pattern = Pattern()
        pattern.add_node("x", None, "X")
        for matcher in MATCHERS.values():
            found = [b.var("X") for b in matcher(pattern, g)]
            assert found == ["b", "d", "q", "w"]


class TestNonCopyingAccessors:
    def test_nodes_and_edges_are_cached_tuples(self) -> None:
        pattern = Pattern.path(["Car", "Cars"], edge_label="S")
        assert pattern.nodes() is pattern.nodes()
        assert pattern.edges() is pattern.edges()
        assert isinstance(pattern.nodes(), tuple)
        assert isinstance(pattern.edges(), tuple)

    def test_cache_invalidated_on_growth(self) -> None:
        pattern = Pattern()
        pattern.add_node("a", "Car")
        nodes_before = pattern.nodes()
        edges_before = pattern.edges()
        pattern.add_node("b", "Cars")
        pattern.add_edge("a", "S", "b")
        assert len(pattern.nodes()) == 2
        assert len(pattern.edges()) == 1
        assert pattern.nodes() is not nodes_before
        assert pattern.edges() is not edges_before


class TestScanBaselineParity:
    def test_node_id_colliding_with_label_keeps_candidates(self) -> None:
        """Regression: the scan path skipped any graph label that
        happened to equal a node id already collected, dropping valid
        fuzzy candidates and diverging from the indexed search."""
        g = LabeledGraph()
        g.add_node("car", "CAR")  # node id 'car' collides with...
        g.add_node("n1", "car")   # ...this node's label
        pattern = Pattern.single("CAR")
        config = MatchConfig(case_insensitive=True)
        results = {
            name: sorted(b["n0"] for b in matcher(pattern, g, config))
            for name, matcher in MATCHERS.items()
        }
        assert results["scan"] == results["indexed"] == ["car", "n1"]


class TestMatchIndexCaching:
    def test_index_reused_for_same_graph_and_config(
        self, graph: LabeledGraph
    ) -> None:
        from repro.core.patterns import MatchIndex

        config = MatchConfig(case_insensitive=True)
        index1 = MatchIndex.for_graph(graph, config)
        index2 = MatchIndex.for_graph(graph, config)
        assert index2 is index1

    def test_index_rebuilt_after_mutation(self, graph: LabeledGraph) -> None:
        from repro.core.patterns import MatchIndex

        config = MatchConfig(case_insensitive=True)
        index1 = MatchIndex.for_graph(graph, config)
        assert "Car" in index1.candidates("car")
        graph.add_node("CAR2", "CAR")
        index2 = MatchIndex.for_graph(graph, config)
        assert index2 is not index1  # the graph moved: a fresh build
        assert index2.fresh()
        assert "CAR2" in index2.candidates("car")
        assert MatchIndex.for_graph(graph, config) is index2

    def test_distinct_configs_get_distinct_indexes(
        self, graph: LabeledGraph
    ) -> None:
        from repro.core.patterns import MatchIndex

        strict = MatchConfig.strict()
        fuzzy = MatchConfig(case_insensitive=True)
        assert MatchIndex.for_graph(graph, strict) is not MatchIndex.for_graph(
            graph, fuzzy
        )
        assert MatchIndex.for_graph(graph, strict).candidates("car") == ()
        assert MatchIndex.for_graph(graph, fuzzy).candidates("car") == ("Car",)

    def test_default_config_shares_one_index(self) -> None:
        """Config-less calls must reuse one strict index, not churn the
        cache with a fresh config per call."""
        g = LabeledGraph()
        g.add_node("Car")
        before = len(g._match_indexes)
        for _ in range(20):
            list(find_matches(Pattern.single("Car"), g))
        assert len(g._match_indexes) <= before + 1

    def test_value_equal_configs_share_one_index(self) -> None:
        """A fresh-but-equal MatchConfig per call (idiomatic for a
        frozen dataclass) must hit the same cached index, not rebuild
        and churn the cache."""
        from repro.core.patterns import MatchIndex

        g = LabeledGraph()
        g.add_node("Car")
        g._match_indexes.clear()
        first = MatchIndex.for_graph(g, MatchConfig(case_insensitive=True))
        for _ in range(20):
            config = MatchConfig(case_insensitive=True)
            assert MatchIndex.for_graph(g, config) is first
        assert len(g._match_indexes) == 1

    def test_eviction_drops_one_entry_not_all(self) -> None:
        from repro.core.patterns import MatchIndex

        g = LabeledGraph()
        g.add_node("Car")
        g._match_indexes.clear()
        configs = [MatchConfig.with_synonyms([("car", f"auto{i}")])
                   for i in range(MatchIndex._CACHE_LIMIT)]
        indexes = [MatchIndex.for_graph(g, c) for c in configs]
        overflow = MatchConfig(relax_edge_labels=True)
        MatchIndex.for_graph(g, overflow)
        # Only the oldest entry was evicted; the rest stay warm.
        assert MatchIndex.for_graph(g, configs[-1]) is indexes[-1]
        assert len(g._match_indexes) == MatchIndex._CACHE_LIMIT


class TestIncrementalIndexMaintenance:
    """MatchIndex under graph deltas: a moved graph gets a fresh index."""

    def _config(self) -> MatchConfig:
        synonyms = MatchConfig.with_synonyms([("Car", "Auto")]).synonyms
        return MatchConfig(synonyms=synonyms, case_insensitive=True)

    def test_deltas_match_fresh_build_and_scan(self) -> None:
        from repro.core.patterns import MatchIndex

        g = LabeledGraph()
        for n in ["Car", "car", "Truck", "Auto", "Bus"]:
            g.add_node(n)
        g.add_edge("Car", "uses", "Truck")
        config = self._config()
        index = MatchIndex.for_graph(g, config)
        # Warm every lazy structure, so a stale one would show.
        index.candidates("Car")
        index.all_nodes()
        index.pair_labels("Car", "Truck")

        g.add_node("auto2", "auto")       # joins via synonym + case
        g.add_node("Plane")
        g.relabel_node("Bus", "Car")      # joins via relabel
        g.remove_node("Truck")            # leaves (and sheds its edge)
        g.add_edge("Car", "tows", "Plane")

        current = MatchIndex.for_graph(g, config)
        assert current.fresh()
        scratch = MatchIndex(g, config)
        assert current.candidates("Car") == scratch.candidates("Car")
        assert "auto2" in current.candidates("Car")
        assert "Bus" in current.candidates("Car")
        assert current.all_nodes() == scratch.all_nodes()
        assert current.pair_labels("Car", "Plane") == {"tows"}
        assert not current.pair_labels("Car", "Truck")
        for pattern in (
            Pattern.single("car"),
            Pattern.path(["Car", "Plane"]),
            Pattern.path(["Car", "Truck"], edge_label="uses"),
        ):
            indexed = [b.mapping for b in find_matches(pattern, g, config)]
            scanned = [
                b.mapping for b in find_matches_scan(pattern, g, config)
            ]
            assert indexed == scanned
        assert [
            b.mapping
            for b in find_matches(Pattern.path(["Car", "Plane"]), g, config)
        ] == [{"n0": "Car", "n1": "Plane"}]

    def test_strategies_agree_after_delta_refresh(self) -> None:
        g = LabeledGraph()
        for n in ["Car", "Truck", "Bus"]:
            g.add_node(n)
        g.add_edge("Car", "uses", "Truck")
        config = self._config()
        pattern = Pattern.path(["Car", "Truck"], edge_label="uses")
        baseline = [b.mapping for b in find_matches(pattern, g, config)]
        assert baseline

        g.add_node("Auto1", "Auto")
        g.add_edge("Auto1", "uses", "Truck")
        indexed = [b.mapping for b in find_matches(pattern, g, config)]
        scanned = [b.mapping for b in find_matches_scan(pattern, g, config)]
        assert indexed == scanned
        assert {"n0": "Auto1", "n1": "Truck"} in indexed

    def test_journal_since_semantics(self) -> None:
        g = LabeledGraph()
        g.add_node("A")
        v = g.version
        assert g.journal_since(v) == []
        g.add_node("B")
        g.add_edge("A", "rel", "B")
        rows = g.journal_since(v)
        assert [row[1] for row in rows] == ["add_node", "add_edge"]
        assert rows[-1][0] == g.version
