"""Parity: indexed fuzzy matching ≡ the scanning baseline, and
blocked SKAT proposal ≡ the all-pairs baseline.

:func:`find_matches` resolves candidates through the cached
:class:`MatchIndex` and compiled edge checks; the scan in
:mod:`tests.support.baselines` is the pre-index code path.  Both must
emit *identical binding sequences* — same matches, same order — across
strict, synonym, case-insensitive and relaxed-edge configurations, on
randomized graphs and patterns.  Likewise the blocked SKAT matchers
must propose exactly the candidates the all-pairs loops propose on
randomized workloads.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import LabeledGraph
from repro.core.patterns import (
    ANY_LABEL,
    MatchConfig,
    Pattern,
    find_matches,
)
from repro.lexicon.skat import (
    ExactLabelMatcher,
    HypernymMatcher,
    SkatEngine,
    StructuralMatcher,
    SynonymMatcher,
)
from repro.workloads.generator import WorkloadConfig, generate_workload

from tests.support.baselines import (
    AllPairsExactLabelMatcher,
    AllPairsHypernymMatcher,
    AllPairsStructuralMatcher,
    AllPairsSynonymMatcher,
    all_pairs_skat,
    find_matches_scan,
)

# ----------------------------------------------------------------------
# randomized graphs / patterns / configs
# ----------------------------------------------------------------------
# A small label alphabet with case variants so case folding has work
# to do, plus synonym pairs that chain (a ~ b ~ c) to exercise the
# transitive closure.
NODE_LABELS = ["alpha", "Alpha", "beta", "gamma", "Delta", "delta"]
EDGE_LABELS = ["S", "A", "r"]

graph_edges = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.sampled_from(EDGE_LABELS),
        st.integers(min_value=0, max_value=6),
    ),
    max_size=16,
)
node_labelings = st.lists(
    st.sampled_from(NODE_LABELS), min_size=7, max_size=7
)


def build_graph(labeling, edges, collide=False) -> LabeledGraph:
    # With ``collide``, node 0's id is drawn from the *label* alphabet:
    # a node id equal to some other node's label once hid a scan-path
    # bug (candidates dropped when a label tested `in` an id set).
    ids = [f"v{i}" for i in range(len(labeling))]
    if collide:
        ids[0] = "alpha"
    graph = LabeledGraph()
    for node_id, label in zip(ids, labeling):
        graph.add_node(node_id, label)
    for src, label, dst in edges:
        graph.add_edge(ids[src], label, ids[dst])
    return graph


pattern_nodes = st.lists(
    st.one_of(
        st.sampled_from(NODE_LABELS),  # labeled node
        st.none(),  # wildcard
    ),
    min_size=1,
    max_size=3,
)
pattern_edges = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.sampled_from([*EDGE_LABELS, ANY_LABEL]),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=3,
)


def build_pattern(labels, edges) -> Pattern:
    pattern = Pattern()
    for i, label in enumerate(labels):
        variable = f"X{i}" if label is None else None
        pattern.add_node(f"p{i}", label, variable)
    for src, label, dst in edges:
        if src < len(labels) and dst < len(labels):
            pattern.add_edge(f"p{src}", label, f"p{dst}")
    return pattern


CONFIGS = {
    "strict": MatchConfig.strict(),
    "case": MatchConfig(case_insensitive=True),
    "synonyms": MatchConfig.with_synonyms(
        [("alpha", "beta"), ("beta", "gamma")]
    ),
    "relaxed": MatchConfig(relax_edge_labels=True),
    "injective": MatchConfig(injective=True),
    "everything": MatchConfig(
        synonyms=MatchConfig.with_synonyms(
            [("alpha", "beta"), ("Delta", "gamma")]
        ).synonyms,
        case_insensitive=True,
        relax_edge_labels=True,
    ),
    "node_equiv": MatchConfig(
        node_equiv=lambda p, g: p.startswith("a") and g.startswith("b")
    ),
    "edge_equiv": MatchConfig(edge_equiv=lambda p, g: {p, g} == {"S", "A"}),
}


_MATCHERS = {"indexed": find_matches, "scan": find_matches_scan}


def bindings(pattern, graph, config, strategy):
    return [
        (dict(b.mapping), dict(b.variables))
        for b in _MATCHERS[strategy](pattern, graph, config)
    ]


class TestIndexedEqualsScan:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @given(node_labelings, graph_edges, pattern_nodes, pattern_edges,
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_same_bindings_same_order(
        self, config_name, labeling, edges, plabels, pedges, collide
    ) -> None:
        graph = build_graph(labeling, edges, collide=collide)
        pattern = build_pattern(plabels, pedges)
        config = CONFIGS[config_name]
        assert bindings(pattern, graph, config, "indexed") == bindings(
            pattern, graph, config, "scan"
        )

    @given(node_labelings, graph_edges, pattern_nodes, pattern_edges)
    @settings(max_examples=25, deadline=None)
    def test_limit_agrees(self, labeling, edges, plabels, pedges) -> None:
        graph = build_graph(labeling, edges)
        pattern = build_pattern(plabels, pedges)
        config = CONFIGS["everything"]
        for limit in (1, 2, 5):
            indexed = [
                dict(b.mapping)
                for b in find_matches(pattern, graph, config, limit=limit)
            ]
            scan = [
                dict(b.mapping)
                for b in find_matches_scan(
                    pattern, graph, config, limit=limit
                )
            ]
            assert indexed == scan

    @given(node_labelings, graph_edges)
    @settings(max_examples=25, deadline=None)
    def test_index_survives_graph_mutation(self, labeling, edges) -> None:
        """The cached index self-invalidates when the graph moves."""
        graph = build_graph(labeling, edges)
        pattern = Pattern.single("alpha")
        config = CONFIGS["case"]
        before = bindings(pattern, graph, config, "indexed")
        assert before == bindings(pattern, graph, config, "scan")
        graph.add_node("fresh", "ALPHA")
        after = bindings(pattern, graph, config, "indexed")
        assert after == bindings(pattern, graph, config, "scan")
        assert len(after) == len(before) + 1


# ----------------------------------------------------------------------
# blocked SKAT ≡ all-pairs SKAT
# ----------------------------------------------------------------------
def proposal_fingerprint(candidates):
    return sorted(
        (c.key(), round(c.score, 9), c.matcher, c.reason) for c in candidates
    )


workload_params = st.tuples(
    st.integers(min_value=2, max_value=40),  # seed
    st.sampled_from([20, 35]),  # terms per source
    st.sampled_from([0.0, 0.4, 0.8]),  # identical_fraction
    st.sampled_from([0.0, 0.5]),  # lexicon noise
)


class TestBlockedSkatEqualsAllPairs:
    @given(workload_params)
    @settings(max_examples=15, deadline=None)
    def test_default_pipeline_parity(self, params) -> None:
        seed, terms, identical, noise = params
        workload = generate_workload(
            WorkloadConfig(
                universe_size=terms * 3,
                n_sources=2,
                terms_per_source=terms,
                overlap=0.5,
                identical_fraction=identical,
                seed=seed,
            )
        )
        lexicon = workload.lexicon(noise=noise, seed=seed)
        o1, o2 = workload.sources
        blocked = SkatEngine.default(lexicon)
        scan = all_pairs_skat(lexicon)
        assert proposal_fingerprint(
            blocked.propose(o1, o2)
        ) == proposal_fingerprint(scan.propose(o1, o2))
        # The blocking indexes must beat the all-pairs bound they are
        # compared against (4 matchers' worth of |o1| x |o2|).
        assert (
            blocked.last_stats["candidate_pairs"]
            < scan.last_stats["candidate_pairs"]
        )

    @given(workload_params)
    @settings(max_examples=10, deadline=None)
    def test_individual_matchers_parity(self, params) -> None:
        seed, terms, identical, noise = params
        workload = generate_workload(
            WorkloadConfig(
                universe_size=terms * 3,
                n_sources=2,
                terms_per_source=terms,
                overlap=0.6,
                identical_fraction=identical,
                seed=seed,
            )
        )
        lexicon = workload.lexicon(noise=noise, seed=seed)
        o1, o2 = workload.sources
        pairs = [
            (ExactLabelMatcher(), AllPairsExactLabelMatcher()),
            (SynonymMatcher(lexicon), AllPairsSynonymMatcher(lexicon)),
            (HypernymMatcher(lexicon), AllPairsHypernymMatcher(lexicon)),
            (
                StructuralMatcher(seeds=[ExactLabelMatcher()]),
                AllPairsStructuralMatcher(seeds=[ExactLabelMatcher()]),
            ),
        ]
        for blocked, scan in pairs:
            assert proposal_fingerprint(
                blocked.propose(o1, o2)
            ) == proposal_fingerprint(scan.propose(o1, o2)), blocked.name

    def test_paper_example_parity(self) -> None:
        """The Fig. 2 carrier/factory pair through both pipelines."""
        from repro.workloads.paper_example import (
            carrier_ontology,
            factory_ontology,
        )

        carrier, factory = carrier_ontology(), factory_ontology()
        blocked = SkatEngine.default()
        scan = all_pairs_skat()
        assert proposal_fingerprint(
            blocked.propose(carrier, factory)
        ) == proposal_fingerprint(scan.propose(carrier, factory))
