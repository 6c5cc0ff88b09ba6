"""Reference algorithms the production layers no longer ship.

Each layer of ``repro`` runs one algorithm: stratified semi-naive Horn
saturation, indexed pattern matching and blocked SKAT matching.  The
simpler algorithms they replaced live here, unchanged, as the
references the parity suites compare against and the baselines the
benchmark ablations measure:

* :class:`NaiveHornEngine` — naive evaluation: every saturation replays
  from the asserted facts, then re-joins every clause's full plan
  against the whole store until a round derives nothing.  It shares
  the join runtime with :class:`~repro.inference.horn.HornEngine` but
  none of its delta plans, stratifier or DRed pass, which makes it the
  churn oracle (:func:`tests.support.churn_scripts.oracle_engine`).
* :class:`FlatHornEngine` — semi-naive evaluation with the whole
  program as one stratum (the ``stratified_vs_flat`` ablation).
* :func:`find_matches_scan` — pattern matching by a per-call label
  scan instead of the cached :class:`~repro.core.patterns.MatchIndex`.
* ``AllPairs*Matcher`` and :func:`all_pairs_skat` — SKAT matchers that
  examine every ``(term1, term2)`` pair instead of blocking.
* :func:`execute_unpushed` — query execution with nothing pushed to
  the stores: every WHERE condition is evaluated after conversion.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import replace

from repro.core.graph import LabeledGraph
from repro.core.ontology import Ontology
from repro.core.patterns import (
    _STRICT_CONFIG,
    Binding,
    MatchConfig,
    Pattern,
    PatternEdge,
    PatternNode,
    _order_nodes,
    _pattern_adjacency,
)
from repro.errors import PatternError
from repro.inference.horn import Atom, CompiledClause, HornEngine, _new_stats
from repro.lexicon.expert import MatchCandidate
from repro.lexicon.skat import (
    ExactLabelMatcher,
    HypernymMatcher,
    SkatEngine,
    StructuralMatcher,
    SynonymMatcher,
)
from repro.lexicon.wordnet import MiniWordNet, normalize_lemma, seed_lexicon
from repro.query.ast import Query
from repro.query.engine import QueryEngine, ResultRow
from repro.query.planner import FilterOp

__all__ = [
    "AllPairsExactLabelMatcher",
    "AllPairsHypernymMatcher",
    "AllPairsStructuralMatcher",
    "AllPairsSynonymMatcher",
    "FlatHornEngine",
    "NaiveHornEngine",
    "all_pairs_skat",
    "execute_unpushed",
    "find_matches_scan",
]


# ----------------------------------------------------------------------
# Horn evaluation
# ----------------------------------------------------------------------
class NaiveHornEngine(HornEngine):
    """Naive evaluation: replay from base, then full re-join rounds.

    Rounds are snapshots, as in the semi-naive engine: facts derived in
    round ``r`` become joinable in round ``r + 1``.  Every saturation
    starts over from the asserted facts, so additions, retractions and
    clause changes all cost a from-scratch run.
    """

    def saturate(self) -> int:
        self._reset_to_base()
        self.last_stats = _new_stats("full")
        store = self._store
        stats = self.last_stats
        stats["strata"] = 1 if self._compiled else 0  # naive is flat
        derived_total = 0
        while True:
            stats["rounds"] += 1
            round_new: list[Atom] = []
            round_set: set[Atom] = set()
            for cc in self._compiled:
                stats["activations"] += 1
                for head, premises in self._run_plan(cc, cc.full_plan, None):
                    if head in round_set or head in store:
                        continue
                    round_set.add(head)
                    round_new.append(head)
                    self._record_new(cc, head, premises)
            if round_new:
                self._derived_ever = True
            for fact in round_new:
                store.add(fact)
            derived_total += len(round_new)
            if not round_new:
                break
        self._saturated = True
        stats["derived"] = derived_total
        return derived_total


class FlatHornEngine(HornEngine):
    """Semi-naive evaluation with every clause in one stratum: each
    round visits every clause whose body reads the round's delta."""

    def _schedule(self) -> list[list[CompiledClause]]:
        if self._strata is None:
            self._strata = [list(self._compiled)] if self._compiled else []
        return self._strata


# ----------------------------------------------------------------------
# pattern matching
# ----------------------------------------------------------------------
def _scan_candidates(
    node: PatternNode, graph: LabeledGraph, config: MatchConfig
) -> list[str]:
    """Graph nodes that could satisfy condition 1 for ``node``: a full
    label scan per fuzzy lookup."""
    if node.is_wildcard:
        return sorted(graph.nodes())
    assert node.label is not None
    # Fast path: exact label index.
    found = set(graph.nodes_with_label(node.label))
    needs_scan = bool(
        config.case_insensitive or config.synonyms or config.node_equiv
    )
    if needs_scan:
        for label in graph.labels():
            if label == node.label:
                continue  # already covered by the exact index above
            if config.node_labels_match(node.label, label):
                found.update(graph.nodes_with_label(label))
    return sorted(found)


def _find_matches_scan(
    pattern: Pattern,
    graph: LabeledGraph,
    config: MatchConfig,
    limit: int | None,
) -> Iterator[Binding]:
    nodes = pattern.nodes()
    candidate_sets = {
        n.node_id: _scan_candidates(n, graph, config) for n in nodes
    }
    adjacency = _pattern_adjacency(nodes, pattern.edges())
    order = _order_nodes(nodes, candidate_sets, adjacency)

    assignment: dict[str, str] = {}
    used: set[str] = set()
    emitted = 0

    def edge_ok(edge: PatternEdge) -> bool:
        src = assignment.get(edge.source)
        dst = assignment.get(edge.target)
        if src is None or dst is None:
            return True  # not yet checkable
        for graph_edge in graph.out_edges(src):
            if graph_edge.target == dst and config.edge_labels_match(
                edge.label, graph_edge.label
            ):
                return True
        return False

    def extend(depth: int) -> Iterator[Binding]:
        nonlocal emitted
        if depth == len(order):
            variables = {
                n.variable: assignment[n.node_id]
                for n in nodes
                if n.variable is not None
            }
            emitted += 1
            yield Binding(dict(assignment), variables)
            return
        pattern_node = order[depth]
        for candidate in candidate_sets[pattern_node.node_id]:
            if config.injective and candidate in used:
                continue
            assignment[pattern_node.node_id] = candidate
            used.add(candidate)
            if all(
                edge_ok(e)
                for e in adjacency[pattern_node.node_id]
            ):
                yield from extend(depth + 1)
                if limit is not None and emitted >= limit:
                    del assignment[pattern_node.node_id]
                    used.discard(candidate)
                    return
            del assignment[pattern_node.node_id]
            used.discard(candidate)

    yield from extend(0)


def find_matches_scan(
    pattern: Pattern,
    graph: LabeledGraph,
    config: MatchConfig | None = None,
    *,
    limit: int | None = None,
) -> Iterator[Binding]:
    """:func:`~repro.core.patterns.find_matches` by label scan.

    Same argument checks and the same node order, so it enumerates the
    same bindings in the same sequence as the indexed search.
    """
    config = config if config is not None else _STRICT_CONFIG
    if not len(pattern):
        raise PatternError("cannot match an empty pattern")
    if limit is not None:
        if limit < 0:
            raise PatternError(f"match limit must be >= 0, got {limit!r}")
        if limit == 0:
            return iter(())
    return _find_matches_scan(pattern, graph, config, limit)


# ----------------------------------------------------------------------
# SKAT matchers
# ----------------------------------------------------------------------
class AllPairsExactLabelMatcher(ExactLabelMatcher):
    def propose(self, o1: Ontology, o2: Ontology) -> list[MatchCandidate]:
        """All-pairs baseline: compare every ``(term1, term2)``."""
        candidates: list[MatchCandidate] = []
        terms2 = list(o2.terms())
        self.last_pairs = 0
        for term1 in o1.terms():
            norm1 = normalize_lemma(term1)
            for term2 in terms2:
                self.last_pairs += 1
                if norm1 == normalize_lemma(term2):
                    candidates.extend(self._emit(o1, term1, o2, term2))
        return candidates


class AllPairsSynonymMatcher(SynonymMatcher):
    def propose(self, o1: Ontology, o2: Ontology) -> list[MatchCandidate]:
        """All-pairs baseline: ``are_synonyms`` on every pair."""
        candidates: list[MatchCandidate] = []
        terms2 = list(o2.terms())
        self.last_pairs = 0
        for term1 in o1.terms():
            if not self.lexicon.knows(term1):
                continue
            for term2 in terms2:
                self.last_pairs += 1
                if normalize_lemma(term1) == normalize_lemma(term2):
                    continue  # the exact matcher owns this pair
                if self.lexicon.are_synonyms(term1, term2):
                    candidates.extend(self._emit(o1, term1, o2, term2))
        return candidates


class AllPairsHypernymMatcher(HypernymMatcher):
    def propose(self, o1: Ontology, o2: Ontology) -> list[MatchCandidate]:
        """All-pairs baseline: hypernym tests on every known pair."""
        candidates: list[MatchCandidate] = []
        terms1 = [t for t in o1.terms() if self.lexicon.knows(t)]
        terms2 = [t for t in o2.terms() if self.lexicon.knows(t)]
        self.last_pairs = 0
        for term1 in terms1:
            for term2 in terms2:
                self.last_pairs += 1
                if self.lexicon.are_synonyms(term1, term2):
                    continue
                candidate = self._emit_pair(
                    o1,
                    term1,
                    o2,
                    term2,
                    self.lexicon.is_hyponym_of(term1, term2),
                    self.lexicon.is_hyponym_of(term2, term1),
                )
                if candidate is not None:
                    candidates.append(candidate)
        return candidates


class AllPairsStructuralMatcher(StructuralMatcher):
    def propose(
        self,
        o1: Ontology,
        o2: Ontology,
        *,
        seed_candidates: Sequence[MatchCandidate] | None = None,
    ) -> list[MatchCandidate]:
        """All-pairs baseline: score every unmatched pair."""
        anchor_pairs = self._anchor_pairs(o1, o2, seed_candidates)
        matched1 = {a for a, _ in anchor_pairs}
        matched2 = {b for _, b in anchor_pairs}

        candidates: list[MatchCandidate] = []
        self.last_pairs = 0
        for term1 in o1.terms():
            if term1 in matched1:
                continue
            neigh1 = self._neighbors(o1, term1)
            if not neigh1:
                continue
            for term2 in o2.terms():
                if term2 in matched2:
                    continue
                neigh2 = self._neighbors(o2, term2)
                if not neigh2:
                    continue
                self.last_pairs += 1
                aligned = sum(
                    1
                    for a, b in anchor_pairs
                    if a in neigh1 and b in neigh2
                )
                overlap = aligned / min(len(neigh1), len(neigh2))
                if overlap >= self.min_overlap:
                    candidates.extend(
                        self._emit(o1, term1, o2, term2, aligned, overlap)
                    )
        return candidates


def all_pairs_skat(lexicon: MiniWordNet | None = None) -> SkatEngine:
    """:meth:`SkatEngine.default`'s pipeline built from the all-pairs
    matchers."""
    lexicon = lexicon if lexicon is not None else seed_lexicon()
    lexical = [
        AllPairsExactLabelMatcher(),
        AllPairsSynonymMatcher(lexicon),
        AllPairsHypernymMatcher(lexicon),
    ]
    return SkatEngine(
        matchers=[*lexical, AllPairsStructuralMatcher(seeds=lexical[:2])]
    )


# ----------------------------------------------------------------------
# query execution
# ----------------------------------------------------------------------
def execute_unpushed(
    engine: QueryEngine, query: Query | str
) -> list[ResultRow]:
    """Run ``engine``'s plan for ``query`` with nothing pushed: each
    scan fetches every instance of its classes, values are converted,
    and only then is every WHERE condition evaluated."""
    plan = engine.plan(query)
    unpushed = replace(
        plan,
        pipelines=tuple(
            replace(
                pipeline,
                scan=replace(pipeline.scan, pushed=()),
                filter=FilterOp(plan.query.where),
            )
            for pipeline in plan.pipelines
        ),
    )
    return engine.run(unpushed)
