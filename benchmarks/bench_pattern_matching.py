"""Experiment PATTERN: pattern matching cost, strict vs fuzzy (§3).

Matches the paper's two textual pattern shapes (a path and a node-with-
attributes) against synthetic ontologies of growing size, under strict
label equality and under fuzzy (synonym + relaxed-edge) configurations.
The fuzzy baseline (``tests.support.baselines.find_matches_scan``)
pays a Python-level label scan per pattern node per call;
:func:`find_matches` resolves the same candidates through the cached
:class:`MatchIndex`, and the ablation at the bottom measures the gap
(recorded into ``BENCH_articulation.json``).
"""

from __future__ import annotations

import time

import pytest

from repro.core.patterns import ANY_LABEL, MatchConfig, Pattern, find_matches
from repro.workloads.generator import WorkloadConfig, generate_workload

from tests.support.baselines import find_matches_scan

# How many times each articulation-rule application re-matches against
# one (graph, config) pair in the generation loop; the ablation repeats
# each measurement this often so index amortization is visible the way
# production sees it.
REPEATS = 20


def build_graph(n_terms: int):
    workload = generate_workload(
        WorkloadConfig(
            universe_size=n_terms,
            n_sources=1,
            terms_per_source=n_terms,
            overlap=0.0,
            identical_fraction=1.0,
            seed=47,
        )
    )
    return workload.sources[0].graph


def path_pattern(graph) -> Pattern:
    """A two-hop S-path pattern anchored at a real edge."""
    edge = next(e for e in graph.edges() if e.label == "S")
    return Pattern.path(
        [graph.label(edge.source), graph.label(edge.target)],
        edge_label="S",
    )


def star_pattern(graph) -> Pattern:
    """node(X: anything) — one labeled node, one wildcard attribute."""
    edge = next(e for e in graph.edges() if e.label == "A")
    pattern = Pattern()
    pattern.add_node("owner", graph.label(edge.target))
    pattern.add_node("attr", None, "X")
    pattern.add_edge("attr", ANY_LABEL, "owner")
    return pattern


@pytest.mark.parametrize("n_terms", [100, 400, 1600])
def test_strict_path_match(benchmark, n_terms) -> None:
    graph = build_graph(n_terms)
    pattern = path_pattern(graph)
    results = benchmark(lambda: list(find_matches(pattern, graph)))
    assert results


@pytest.mark.parametrize("n_terms", [100, 400, 1600])
def test_fuzzy_path_match(benchmark, n_terms) -> None:
    graph = build_graph(n_terms)
    pattern = path_pattern(graph)
    config = MatchConfig(case_insensitive=True, relax_edge_labels=True)
    results = benchmark(lambda: list(find_matches(pattern, graph, config)))
    assert results


@pytest.mark.parametrize("n_terms", [100, 400, 1600])
def test_wildcard_star_match(benchmark, n_terms) -> None:
    graph = build_graph(n_terms)
    pattern = star_pattern(graph)
    results = benchmark(lambda: list(find_matches(pattern, graph)))
    assert results


def test_strict_vs_fuzzy_summary(benchmark, table) -> None:
    import time

    reference = build_graph(400)
    reference_pattern = path_pattern(reference)
    benchmark(lambda: sum(1 for _ in find_matches(reference_pattern,
                                                  reference)))
    rows = []
    for n_terms in (100, 400, 1600):
        graph = build_graph(n_terms)
        pattern = path_pattern(graph)
        t0 = time.perf_counter()
        strict_count = sum(1 for _ in find_matches(pattern, graph))
        t1 = time.perf_counter()
        config = MatchConfig(
            case_insensitive=True, relax_edge_labels=True
        )
        fuzzy_count = sum(1 for _ in find_matches(pattern, graph, config))
        t2 = time.perf_counter()
        rows.append(
            (
                n_terms,
                strict_count,
                f"{1e3 * (t1 - t0):.2f}ms",
                fuzzy_count,
                f"{1e3 * (t2 - t1):.2f}ms",
            )
        )
        assert fuzzy_count >= strict_count  # fuzzy is monotone
    table(
        "PATTERN strict vs fuzzy",
        ["n", "strict matches", "strict t", "fuzzy matches", "fuzzy t"],
        rows,
    )


def fuzzy_config(graph) -> MatchConfig:
    """Case + relaxed edges + a synonym table over real graph labels."""
    labels = sorted(graph.labels())
    pairs = [
        (labels[i], labels[i + 1]) for i in range(0, len(labels) - 1, 7)
    ]
    return MatchConfig(
        synonyms=MatchConfig.with_synonyms(pairs).synonyms,
        case_insensitive=True,
        relax_edge_labels=True,
    )


def test_indexed_vs_scan_fuzzy(table, record_bench) -> None:
    """The acceptance ablation: indexed fuzzy matching against the
    per-call label-scan baseline.  At the largest ontology the indexed
    search must clear a 10x speedup."""
    rows = []
    series = {}
    for n_terms in (100, 400, 1600):
        graph = build_graph(n_terms)
        pattern = path_pattern(graph)
        config = fuzzy_config(graph)

        # Untimed warmup: the index is built once per (graph, config)
        # in the generation loop; time the steady state of both paths.
        sum(1 for _ in find_matches_scan(pattern, graph, config))
        sum(1 for _ in find_matches(pattern, graph, config))

        t0 = time.perf_counter()
        for _ in range(REPEATS):
            scan_matches = sum(
                1 for _ in find_matches_scan(pattern, graph, config)
            )
        t_scan = time.perf_counter() - t0

        t0 = time.perf_counter()
        for _ in range(REPEATS):
            indexed_matches = sum(
                1 for _ in find_matches(pattern, graph, config)
            )
        t_indexed = time.perf_counter() - t0

        assert indexed_matches == scan_matches
        speedup = t_scan / t_indexed
        series[n_terms] = {
            "scan_ms": round(1e3 * t_scan, 2),
            "indexed_ms": round(1e3 * t_indexed, 2),
            "speedup": round(speedup, 1),
            "matches": indexed_matches,
            "repeats": REPEATS,
        }
        rows.append(
            (
                n_terms,
                indexed_matches,
                f"{1e3 * t_scan:.1f}ms",
                f"{1e3 * t_indexed:.1f}ms",
                f"{speedup:.1f}x",
            )
        )
    table(
        "PATTERN indexed vs scan (fuzzy: synonyms + case + relaxed edges)",
        ["n", "matches", "scan", "indexed", "speedup"],
        rows,
    )
    record_bench("pattern_matching", {"indexed_vs_scan_fuzzy": series})
    assert series[1600]["speedup"] >= 10.0, (
        f"fuzzy find_matches speedup {series[1600]['speedup']}x at the "
        "largest ontology is below the 10x bar"
    )
