"""SKAT — the Semantic Knowledge Articulation Tool (paper §2.4).

"Articulation rules are proposed by SKAT using expert rules and other
external knowledge sources or semantic lexicons (e.g., Wordnet) and
verified by the expert. ... This process is iteratively repeated until
the expert is satisfied with the generated articulation."

:class:`SkatEngine` runs a pipeline of *matchers* over two source
ontologies.  Each matcher proposes scored rule candidates:

* :class:`ExactLabelMatcher`      — identical normalized labels;
* :class:`SynonymMatcher`         — labels sharing a lexicon synset;
* :class:`HypernymMatcher`        — lexicon says one term specializes
  the other (produces a *directed* rule);
* :class:`StructuralMatcher`      — unmatched label pairs whose graph
  neighborhoods align with already-proposed pairs.

Every matcher runs **blocked**: an inverted index — from normalized
lemma, synset id, or anchor-neighbor signature to candidate terms —
generates exactly the pairs that can match, so the pairs a matcher
examines grow with its *output*, not with ``|o1| x |o2|``.  A matcher
records the pairs it examined in ``last_pairs`` and
:meth:`SkatEngine.propose` aggregates them into ``last_stats`` for the
benchmarks.

:func:`articulate_with_expert` is the full §2.4 loop: propose → expert
review → generate → infer → propose again, to fixpoint.  The engine
that infers is saturated once and travels with the articulation to the
service that serves it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.articulation import Articulation, ArticulationGenerator
from repro.core.ontology import Ontology
from repro.core.rules import (
    ArticulationRuleSet,
    ImplicationRule,
    Rule,
    TermOperand,
    TermRef,
)
from repro.errors import LexiconError
from repro.inference.engine import OntologyInferenceEngine
from repro.lexicon.expert import (
    ExpertPolicy,
    MatchCandidate,
    ReviewedCandidate,
)
from repro.lexicon.wordnet import MiniWordNet, normalize_lemma, seed_lexicon

__all__ = [
    "Matcher",
    "ExactLabelMatcher",
    "SynonymMatcher",
    "HypernymMatcher",
    "StructuralMatcher",
    "SkatEngine",
    "articulate_with_expert",
]


def _simple_rule(
    o1: str, t1: str, o2: str, t2: str, *, source: str = "skat"
) -> ImplicationRule:
    return ImplicationRule(
        (TermOperand(TermRef(o1, t1)), TermOperand(TermRef(o2, t2))),
        source=source,
    )


def _equivalence_rules(
    o1: str, t1: str, o2: str, t2: str
) -> list[ImplicationRule]:
    """Equivalence is two directed rules (SI cycles express it, §4.1)."""
    return [
        _simple_rule(o1, t1, o2, t2),
        _simple_rule(o2, t2, o1, t1),
    ]


class Matcher:
    """One heuristic proposing candidates between two ontologies.

    ``last_pairs`` records how many term pairs the previous
    :meth:`propose` call actually examined — the quantity the blocking
    indexes drive sub-quadratic.
    """

    name = "matcher"
    last_pairs: int = 0

    def propose(
        self, o1: Ontology, o2: Ontology
    ) -> list[MatchCandidate]:
        raise NotImplementedError


class ExactLabelMatcher(Matcher):
    """Identical normalized labels suggest equivalent concepts."""

    name = "exact"

    def __init__(self, *, score: float = 0.95) -> None:
        self.score = score

    def _emit(self, o1: Ontology, term1: str, o2: Ontology, term2: str):
        reason = f"labels {term1!r} / {term2!r} normalize identically"
        return [
            MatchCandidate(rule, self.score, self.name, reason)
            for rule in _equivalence_rules(o1.name, term1, o2.name, term2)
        ]

    def propose(self, o1: Ontology, o2: Ontology) -> list[MatchCandidate]:
        by_norm: dict[str, list[str]] = {}
        for term in o2.terms():
            by_norm.setdefault(normalize_lemma(term), []).append(term)
        candidates: list[MatchCandidate] = []
        self.last_pairs = 0
        for term1 in o1.terms():
            for term2 in by_norm.get(normalize_lemma(term1), ()):
                self.last_pairs += 1
                candidates.extend(self._emit(o1, term1, o2, term2))
        return candidates

class SynonymMatcher(Matcher):
    """Labels sharing a lexicon synset suggest equivalent concepts."""

    name = "synonym"

    def __init__(
        self,
        lexicon: MiniWordNet | None = None,
        *,
        score: float = 0.85,
    ) -> None:
        self.lexicon = lexicon if lexicon is not None else seed_lexicon()
        self.score = score

    def _emit(self, o1: Ontology, term1: str, o2: Ontology, term2: str):
        reason = f"{term1!r} and {term2!r} share a synset"
        return [
            MatchCandidate(rule, self.score, self.name, reason)
            for rule in _equivalence_rules(o1.name, term1, o2.name, term2)
        ]

    def propose(self, o1: Ontology, o2: Ontology) -> list[MatchCandidate]:
        # Blocking key: synset id.  Two terms are synonyms iff they
        # share a synset, so indexing o2's terms by synset id generates
        # exactly the synonym pairs — never the full cross product.
        by_synset: dict[str, list[str]] = {}
        for term2 in o2.terms():
            for sid in self.lexicon.synset_ids(term2):
                by_synset.setdefault(sid, []).append(term2)
        candidates: list[MatchCandidate] = []
        self.last_pairs = 0
        for term1 in o1.terms():
            sids = self.lexicon.synset_ids(term1)
            if not sids:
                continue
            norm1 = normalize_lemma(term1)
            seen: set[str] = set()
            for sid in sids:
                for term2 in by_synset.get(sid, ()):
                    if term2 in seen:
                        continue
                    seen.add(term2)
                    self.last_pairs += 1
                    if norm1 == normalize_lemma(term2):
                        continue  # the exact matcher owns this pair
                    candidates.extend(self._emit(o1, term1, o2, term2))
        return candidates

class HypernymMatcher(Matcher):
    """Lexicon hypernymy suggests a *directed* specialization rule.

    ``o1:Car => o2:Vehicle`` when the lexicon derives car from vehicle.
    The score decays with hypernym distance — a grandparent is a weaker
    suggestion than a parent.
    """

    name = "hypernym"

    def __init__(
        self,
        lexicon: MiniWordNet | None = None,
        *,
        base_score: float = 0.75,
    ) -> None:
        self.lexicon = lexicon if lexicon is not None else seed_lexicon()
        self.base_score = base_score

    def _emit_pair(
        self, o1: Ontology, term1: str, o2: Ontology, term2: str,
        hyp12: bool, hyp21: bool,
    ) -> MatchCandidate | None:
        """One directed suggestion per pair, specific side first.

        When hypernymy somehow holds in both directions, the
        ``o1 -> o2`` reading wins.
        """
        if hyp12:
            similarity = self.lexicon.similarity(term1, term2)
            return MatchCandidate(
                _simple_rule(o1.name, term1, o2.name, term2),
                self.base_score * max(similarity, 0.5),
                self.name,
                f"lexicon derives {term1!r} from {term2!r}",
            )
        if hyp21:
            similarity = self.lexicon.similarity(term1, term2)
            return MatchCandidate(
                _simple_rule(o2.name, term2, o1.name, term1),
                self.base_score * max(similarity, 0.5),
                self.name,
                f"lexicon derives {term2!r} from {term1!r}",
            )
        return None

    def propose(self, o1: Ontology, o2: Ontology) -> list[MatchCandidate]:
        lexicon = self.lexicon
        # Blocking key: synset id.  term1 is a hyponym of term2 iff the
        # hypernym closure of term1's synsets meets term2's synsets, so
        # walking each term's (memoized) closure against a synset-id
        # index of the *other* side's terms enumerates exactly the
        # hypernym-related pairs, in both directions.
        ids1 = {t: lexicon.synset_ids(t) for t in o1.terms()}
        ids2 = {t: lexicon.synset_ids(t) for t in o2.terms()}
        index1: dict[str, list[str]] = {}
        for term1, sids in ids1.items():
            for sid in sids:
                index1.setdefault(sid, []).append(term1)
        index2: dict[str, list[str]] = {}
        for term2, sids in ids2.items():
            for sid in sids:
                index2.setdefault(sid, []).append(term2)

        # (term1, term2) -> [hyp12, hyp21]
        related: dict[tuple[str, str], list[bool]] = {}
        for term1, sids in ids1.items():
            if not sids:
                continue
            closure: set[str] = set()
            for sid in sids:
                closure |= lexicon.hypernym_closure(sid)
            for ancestor in closure:
                for term2 in index2.get(ancestor, ()):
                    flags = related.setdefault((term1, term2), [False, False])
                    flags[0] = True
        for term2, sids in ids2.items():
            if not sids:
                continue
            closure = set()
            for sid in sids:
                closure |= lexicon.hypernym_closure(sid)
            for ancestor in closure:
                for term1 in index1.get(ancestor, ()):
                    flags = related.setdefault((term1, term2), [False, False])
                    flags[1] = True

        self.last_pairs = len(related)
        candidates: list[MatchCandidate] = []
        for (term1, term2), (hyp12, hyp21) in sorted(related.items()):
            if lexicon.are_synonyms(term1, term2):
                continue
            candidate = self._emit_pair(o1, term1, o2, term2, hyp12, hyp21)
            if candidate is not None:
                candidates.append(candidate)
        return candidates

class StructuralMatcher(Matcher):
    """Neighborhood agreement proposes pairs the lexicon cannot see.

    Two unmatched terms whose graph neighbors are largely matched to
    each other probably denote the same concept (the classic similarity
    -flooding intuition, scaled down).  Runs over the candidates of the
    lexical matchers, so it must be placed after them in the pipeline.

    ``min_overlap`` must be positive: a pair needs at least one aligned
    neighbor pair to clear it, which is what lets the anchor
    neighborhoods block the search exactly.
    """

    name = "structural"

    def __init__(
        self,
        seeds: Sequence[Matcher] | None = None,
        *,
        min_overlap: float = 0.5,
        score: float = 0.6,
    ) -> None:
        if min_overlap <= 0:
            raise LexiconError(
                f"min_overlap must be positive, got {min_overlap!r}"
            )
        self.seeds = list(seeds) if seeds is not None else [
            ExactLabelMatcher(),
            SynonymMatcher(),
        ]
        self.min_overlap = min_overlap
        self.score = score

    @staticmethod
    def _neighbors(ontology: Ontology, term: str) -> set[str]:
        graph = ontology.graph
        return graph.successors(term) | graph.predecessors(term)

    def _anchor_pairs(
        self,
        o1: Ontology,
        o2: Ontology,
        seed_candidates: Sequence[MatchCandidate] | None = None,
    ) -> set[tuple[str, str]]:
        """Anchor pairs from the seed matchers' proposals.

        ``seed_candidates`` lets a pipeline that already ran the seed
        matchers (``SkatEngine.propose``) hand their output over
        instead of this matcher re-proposing the same pairs.
        """
        if seed_candidates is None:
            seed_candidates = [
                candidate
                for seed in self.seeds
                for candidate in seed.propose(o1, o2)
            ]
        anchor_pairs: set[tuple[str, str]] = set()
        for candidate in seed_candidates:
            rule = candidate.rule
            if isinstance(rule, ImplicationRule) and rule.is_simple():
                first, last = rule.steps[0], rule.steps[-1]
                assert isinstance(first, TermOperand)
                assert isinstance(last, TermOperand)
                if (
                    first.ref.ontology == o1.name
                    and last.ref.ontology == o2.name
                ):
                    anchor_pairs.add((first.ref.term, last.ref.term))
                elif (
                    first.ref.ontology == o2.name
                    and last.ref.ontology == o1.name
                ):
                    anchor_pairs.add((last.ref.term, first.ref.term))
        return anchor_pairs

    def _emit(
        self, o1: Ontology, term1: str, o2: Ontology, term2: str,
        aligned: int, overlap: float,
    ) -> list[MatchCandidate]:
        reason = (
            f"{aligned} aligned neighbor pair(s) "
            f"around {term1!r} / {term2!r}"
        )
        return [
            MatchCandidate(rule, self.score * overlap, self.name, reason)
            for rule in _equivalence_rules(o1.name, term1, o2.name, term2)
        ]

    def propose(
        self,
        o1: Ontology,
        o2: Ontology,
        *,
        seed_candidates: Sequence[MatchCandidate] | None = None,
    ) -> list[MatchCandidate]:
        anchor_pairs = self._anchor_pairs(o1, o2, seed_candidates)
        matched1 = {a for a, _ in anchor_pairs}
        matched2 = {b for _, b in anchor_pairs}

        # Blocking key: the anchor pair itself.  Candidate (t1, t2)
        # pairs are generated from each anchor's neighborhoods, and the
        # per-pair count of generating anchors *is* the alignment
        # score, so zero-aligned pairs are never materialized.
        aligned_count: dict[tuple[str, str], int] = {}
        neigh1_cache: dict[str, set[str]] = {}
        neigh2_cache: dict[str, set[str]] = {}
        for a, b in anchor_pairs:
            if not o1.has_term(a) or not o2.has_term(b):
                continue
            for term1 in self._neighbors(o1, a):
                if term1 in matched1:
                    continue
                for term2 in self._neighbors(o2, b):
                    if term2 in matched2:
                        continue
                    key = (term1, term2)
                    aligned_count[key] = aligned_count.get(key, 0) + 1

        self.last_pairs = len(aligned_count)
        candidates: list[MatchCandidate] = []
        for (term1, term2), aligned in sorted(aligned_count.items()):
            neigh1 = neigh1_cache.get(term1)
            if neigh1 is None:
                neigh1 = neigh1_cache[term1] = self._neighbors(o1, term1)
            neigh2 = neigh2_cache.get(term2)
            if neigh2 is None:
                neigh2 = neigh2_cache[term2] = self._neighbors(o2, term2)
            overlap = aligned / min(len(neigh1), len(neigh2))
            if overlap >= self.min_overlap:
                candidates.extend(
                    self._emit(o1, term1, o2, term2, aligned, overlap)
                )
        return candidates

@dataclass
class SkatEngine:
    """The suggestion pipeline: run matchers, dedup, rank.

    ``last_stats`` (populated by :meth:`propose`) reports the
    candidate pairs each matcher examined against the all-pairs bound
    ``|o1| x |o2|`` — the quantity the blocking indexes keep
    sub-quadratic.
    """

    matchers: list[Matcher] = field(default_factory=list)
    last_stats: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def default(cls, lexicon: MiniWordNet | None = None) -> "SkatEngine":
        lexicon = lexicon if lexicon is not None else seed_lexicon()
        lexical = [
            ExactLabelMatcher(),
            SynonymMatcher(lexicon),
            HypernymMatcher(lexicon),
        ]
        return cls(matchers=[*lexical, StructuralMatcher(seeds=lexical[:2])])

    def propose(
        self,
        o1: Ontology,
        o2: Ontology,
        *,
        exclude: Iterable[Rule] = (),
    ) -> list[MatchCandidate]:
        """Ranked, de-duplicated candidates, minus ``exclude`` rules."""
        excluded = {str(rule) for rule in exclude}
        best: dict[str, MatchCandidate] = {}
        per_matcher: dict[str, int] = {}
        proposed_by_matcher: dict[int, list[MatchCandidate]] = {}
        for matcher in self.matchers:
            if isinstance(matcher, StructuralMatcher) and all(
                id(seed) in proposed_by_matcher for seed in matcher.seeds
            ):
                # The structural matcher's seeds already ran in this
                # pipeline: hand their proposals over instead of having
                # the matcher re-propose the same pairs (so the stats
                # below count each examined pair exactly once).
                proposed = matcher.propose(
                    o1,
                    o2,
                    seed_candidates=[
                        candidate
                        for seed in matcher.seeds
                        for candidate in proposed_by_matcher[id(seed)]
                    ],
                )
            else:
                proposed = matcher.propose(o1, o2)
            proposed_by_matcher[id(matcher)] = proposed
            per_matcher[matcher.name] = (
                per_matcher.get(matcher.name, 0) + matcher.last_pairs
            )
            for candidate in proposed:
                key = candidate.key()
                if key in excluded:
                    continue
                current = best.get(key)
                if current is None or candidate.score > current.score:
                    best[key] = candidate
        self.last_stats = {
            "pairs_by_matcher": per_matcher,
            "candidate_pairs": sum(per_matcher.values()),
            "all_pairs": o1.term_count() * o2.term_count(),
        }
        return sorted(best.values(), key=lambda c: (-c.score, c.key()))


def articulate_with_expert(
    o1: Ontology,
    o2: Ontology,
    expert: ExpertPolicy,
    *,
    skat: SkatEngine | None = None,
    name: str = "articulation",
    max_rounds: int = 10,
    use_inference: bool = True,
) -> tuple[Articulation, list[ReviewedCandidate]]:
    """The full §2.4 loop; returns the articulation and the audit trail.

    Each round: SKAT proposes (excluding rules already applied), the
    inference engine derives further rule suggestions from the combined
    knowledge, the expert reviews each distinct rule once (a rule both
    suggest keeps its higher score), and accepted rules extend the
    articulation.  Stops when a round applies nothing new.

    The returned articulation carries the loop's saturated inference
    engine (:meth:`~repro.core.articulation.Articulation.carry_engine`)
    until a service installs it, so the application serves the engine
    the loop already built instead of saturating a second one.
    """
    skat = skat if skat is not None else SkatEngine.default()
    generator = ArticulationGenerator([o1, o2], name=name)
    articulation = generator.generate(ArticulationRuleSet())
    audit: list[ReviewedCandidate] = []

    volunteered = ArticulationRuleSet()
    volunteered.extend(expert.extra_rules())
    generator.extend(articulation, volunteered)

    # One inference engine lives across rounds: each round feeds only
    # the newly accepted rules' facts through incremental (delta)
    # saturation instead of rebuilding and re-saturating from scratch.
    # The articulation carries it out of the loop for a service to
    # adopt, so it records derivations just as a served engine does.
    engine: OntologyInferenceEngine | None = None
    for _ in range(max_rounds):
        candidates = skat.propose(o1, o2, exclude=list(articulation.rules))
        if use_inference and len(articulation.rules):
            if engine is None:
                engine = OntologyInferenceEngine.from_articulation(
                    articulation
                )
            else:
                engine.refresh_from_articulation(articulation)
            # one review per rule: a rule SKAT suggests too keeps the
            # higher score, as in SkatEngine.propose
            best = {candidate.key(): candidate for candidate in candidates}
            for derived in engine.derived_rules():
                if derived in articulation.rules:
                    continue
                suggestion = MatchCandidate(
                    derived,
                    0.7,
                    "inference",
                    "derived from accepted rules and source structure",
                )
                key = suggestion.key()
                current = best.get(key)
                if current is None or suggestion.score > current.score:
                    best[key] = suggestion
            candidates = list(best.values())
        if not candidates:
            break
        reviewed = expert.review(candidates)
        audit.extend(reviewed)
        accepted = ArticulationRuleSet()
        for review in reviewed:
            rule = review.accepted_rule()
            if rule is not None:
                accepted.add(rule)
        applied = generator.extend(articulation, accepted)
        if applied == 0:
            break
    if engine is not None:
        articulation.carry_engine(engine)
    return articulation, audit
