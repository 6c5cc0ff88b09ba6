"""Unit tests for SKAT matchers and the expert iteration loop."""

from __future__ import annotations

import pytest

from repro.core.ontology import Ontology
from repro.core.rules import ImplicationRule
from repro.errors import LexiconError
from repro.lexicon.expert import (
    AcceptAllPolicy,
    ExpertDecision,
    GroundTruthPolicy,
    ScriptedPolicy,
    ThresholdPolicy,
)
from repro.lexicon.skat import (
    ExactLabelMatcher,
    HypernymMatcher,
    SkatEngine,
    StructuralMatcher,
    SynonymMatcher,
    articulate_with_expert,
)
from repro.lexicon.wordnet import seed_lexicon
from repro.workloads.generator import WorkloadConfig, generate_workload


@pytest.fixture
def left() -> Ontology:
    onto = Ontology("left")
    for term in ("Vehicle", "Car", "Price", "Lorry"):
        onto.add_term(term)
    onto.add_subclass("Car", "Vehicle")
    onto.add_attribute("Price", "Car")
    onto.add_subclass("Lorry", "Vehicle")
    return onto


@pytest.fixture
def right() -> Ontology:
    onto = Ontology("right")
    for term in ("Vehicle", "Automobile", "Cost", "Truck"):
        onto.add_term(term)
    onto.add_subclass("Automobile", "Vehicle")
    onto.add_attribute("Cost", "Automobile")
    onto.add_subclass("Truck", "Vehicle")
    return onto


class TestExactLabelMatcher:
    def test_identical_labels_matched(
        self, left: Ontology, right: Ontology
    ) -> None:
        candidates = ExactLabelMatcher().propose(left, right)
        texts = {c.key() for c in candidates}
        assert "left:Vehicle => right:Vehicle" in texts
        assert "right:Vehicle => left:Vehicle" in texts

    def test_no_candidates_without_shared_labels(self) -> None:
        a = Ontology("a")
        a.add_term("X")
        b = Ontology("b")
        b.add_term("Y")
        assert ExactLabelMatcher().propose(a, b) == []

    def test_normalized_label_match(self) -> None:
        a = Ontology("a")
        a.add_term("passenger_car")
        b = Ontology("b")
        b.add_term("PassengerCar")
        candidates = ExactLabelMatcher().propose(a, b)
        assert candidates


class TestSynonymMatcher:
    def test_lexicon_synonyms_matched(
        self, left: Ontology, right: Ontology
    ) -> None:
        candidates = SynonymMatcher(seed_lexicon()).propose(left, right)
        texts = {c.key() for c in candidates}
        assert "left:Car => right:Automobile" in texts
        assert "right:Automobile => left:Car" in texts
        assert "left:Price => right:Cost" in texts
        assert "left:Lorry => right:Truck" in texts

    def test_exact_pairs_left_to_exact_matcher(
        self, left: Ontology, right: Ontology
    ) -> None:
        candidates = SynonymMatcher(seed_lexicon()).propose(left, right)
        texts = {c.key() for c in candidates}
        assert "left:Vehicle => right:Vehicle" not in texts


class TestHypernymMatcher:
    def test_directed_specialization(
        self, left: Ontology, right: Ontology
    ) -> None:
        candidates = HypernymMatcher(seed_lexicon()).propose(left, right)
        texts = {c.key() for c in candidates}
        # left:Car is a hyponym of right:Vehicle -> directed rule.
        assert "left:Car => right:Vehicle" in texts
        # and never the reverse direction for a hypernym pair.
        assert "right:Vehicle => left:Car" not in texts

    def test_both_directions_across_ontologies(
        self, left: Ontology, right: Ontology
    ) -> None:
        candidates = HypernymMatcher(seed_lexicon()).propose(left, right)
        texts = {c.key() for c in candidates}
        # right:Automobile is a hyponym of left:Vehicle.
        assert "right:Automobile => left:Vehicle" in texts

    def test_scores_decay_with_distance(self) -> None:
        a = Ontology("a")
        a.add_term("SUV")
        b = Ontology("b")
        b.add_term("Car")
        b.add_term("Vehicle")
        candidates = HypernymMatcher(seed_lexicon()).propose(a, b)
        by_target = {
            c.key(): c.score for c in candidates
        }
        assert by_target["a:SUV => b:Car"] > by_target["a:SUV => b:Vehicle"]


class TestStructuralMatcher:
    def test_neighborhood_alignment_proposes_unlexical_pair(self) -> None:
        """Two terms the lexicon has never heard of get matched because
        their neighbors align."""
        a = Ontology("a")
        for term in ("Vehicle", "Zorblat", "Price"):
            a.add_term(term)
        a.add_subclass("Zorblat", "Vehicle")
        a.add_attribute("Price", "Zorblat")
        b = Ontology("b")
        for term in ("Vehicle", "Gnarf", "Price"):
            b.add_term(term)
        b.add_subclass("Gnarf", "Vehicle")
        b.add_attribute("Price", "Gnarf")
        candidates = StructuralMatcher().propose(a, b)
        texts = {c.key() for c in candidates}
        assert "a:Zorblat => b:Gnarf" in texts

    def test_no_anchor_no_proposal(self) -> None:
        a = Ontology("a")
        a.add_term("X1")
        a.add_term("X2")
        a.add_subclass("X1", "X2")
        b = Ontology("b")
        b.add_term("Y1")
        b.add_term("Y2")
        b.add_subclass("Y1", "Y2")
        assert StructuralMatcher().propose(a, b) == []

    @pytest.mark.parametrize("min_overlap", [0.0, -0.5])
    def test_non_positive_min_overlap_rejected(self, min_overlap) -> None:
        """Anchor blocking only finds pairs with an aligned neighbor,
        which every pair clears at a zero threshold."""
        with pytest.raises(LexiconError):
            StructuralMatcher(min_overlap=min_overlap)


class TestSkatEngine:
    def test_dedup_keeps_best_score(
        self, left: Ontology, right: Ontology
    ) -> None:
        engine = SkatEngine.default()
        candidates = engine.propose(left, right)
        keys = [c.key() for c in candidates]
        assert len(keys) == len(set(keys))

    def test_ranked_descending(self, left: Ontology, right: Ontology) -> None:
        candidates = SkatEngine.default().propose(left, right)
        scores = [c.score for c in candidates]
        assert scores == sorted(scores, reverse=True)

    def test_exclusion(self, left: Ontology, right: Ontology) -> None:
        engine = SkatEngine.default()
        first = engine.propose(left, right)
        excluded = engine.propose(
            left, right, exclude=[first[0].rule]
        )
        assert first[0].key() not in {c.key() for c in excluded}

    def test_seed_matchers_run_once_per_propose(
        self, left: Ontology, right: Ontology
    ) -> None:
        """The structural matcher reuses the pipeline's seed proposals
        instead of re-running the shared exact/synonym matchers."""
        engine = SkatEngine.default()
        calls: dict[str, int] = {}
        for matcher in engine.matchers:
            original = matcher.propose

            def counted(o1, o2, *, _orig=original, _name=matcher.name, **kw):
                calls[_name] = calls.get(_name, 0) + 1
                return _orig(o1, o2, **kw)

            matcher.propose = counted  # type: ignore[method-assign]
        engine.propose(left, right)
        assert all(count == 1 for count in calls.values()), calls

    def test_seed_reuse_preserves_proposals(
        self, left: Ontology, right: Ontology
    ) -> None:
        """Handing seed proposals over must not change the output."""
        engine = SkatEngine.default()
        via_engine = [c.key() for c in engine.propose(left, right)]
        standalone = StructuralMatcher(seeds=engine.matchers[:2])
        direct = standalone.propose(left, right)
        structural = engine.matchers[-1].propose(
            left,
            right,
            seed_candidates=[
                c
                for seed in engine.matchers[:2]
                for c in seed.propose(left, right)
            ],
        )
        assert {c.key() for c in structural} == {c.key() for c in direct}
        assert via_engine  # the pipeline still proposes


class TestExpertLoop:
    def test_accept_all_converges(
        self, left: Ontology, right: Ontology
    ) -> None:
        articulation, audit = articulate_with_expert(
            left, right, AcceptAllPolicy(), name="mid"
        )
        assert len(articulation.rules) > 0
        assert len(audit) >= len(articulation.rules)
        # Car ~ Automobile must have made it into the articulation.
        terms = set(articulation.ontology.terms())
        assert "Automobile" in terms or "Car" in terms

    def test_threshold_policy_accepts_fewer(
        self, left: Ontology, right: Ontology
    ) -> None:
        all_art, _ = articulate_with_expert(
            left, right, AcceptAllPolicy(), name="mid"
        )
        strict_art, _ = articulate_with_expert(
            left, right, ThresholdPolicy(threshold=0.9), name="mid"
        )
        assert len(strict_art.rules) <= len(all_art.rules)

    def test_ground_truth_policy_filters_exactly(
        self, left: Ontology, right: Ontology
    ) -> None:
        truth = ["left:Car => right:Automobile"]
        policy = GroundTruthPolicy(frozenset(truth))
        articulation, _ = articulate_with_expert(
            left, right, policy, name="mid", use_inference=False
        )
        assert {str(r) for r in articulation.rules} == set(truth)

    def test_scripted_policy_modification(self) -> None:
        from repro.core.rules import parse_rule
        from repro.lexicon.expert import MatchCandidate

        candidate = MatchCandidate(
            parse_rule("a:X => b:Y"), 0.9, "exact"
        )
        replacement = parse_rule("a:X => b:Z")
        policy = ScriptedPolicy(
            decisions={"a:X => b:Y": ExpertDecision.MODIFY},
            modifications={"a:X => b:Y": replacement},
        )
        reviewed = policy.review([candidate])
        assert reviewed[0].accepted_rule() is replacement

    def test_scripted_policy_volunteers_rules_once(self) -> None:
        from repro.core.rules import parse_rule

        policy = ScriptedPolicy(
            volunteered=(parse_rule("a:X => b:Y"),)
        )
        assert len(policy.extra_rules()) == 1
        assert policy.extra_rules() == []

    def test_each_review_batch_holds_distinct_rules(self) -> None:
        """A rule both SKAT and inference suggest is reviewed once."""
        workload = generate_workload(
            WorkloadConfig(
                universe_size=180, terms_per_source=60, overlap=0.4, seed=1
            )
        )
        truth = workload.truth_rules(0, 1)
        batches: list[list[str]] = []

        class RecordingPolicy(GroundTruthPolicy):
            def review(self, candidates):
                candidates = list(candidates)
                batches.append([c.key() for c in candidates])
                return super().review(candidates)

        o1, o2 = workload.sources
        articulation, audit = articulate_with_expert(
            o1,
            o2,
            RecordingPolicy.from_rules(truth),
            skat=SkatEngine.default(workload.lexicon(noise=0.2, seed=1)),
            name="art",
        )
        assert len(batches) == 2  # the second holds inference suggestions
        for keys in batches:
            assert len(keys) == len(set(keys))
        assert len(audit) == sum(len(keys) for keys in batches)
        accepted = {str(rule) for rule in articulation.rules}
        assert accepted <= {str(rule) for rule in truth}
        assert len(accepted) == 40

    def test_merged_suggestion_keeps_the_higher_score(
        self, left: Ontology, right: Ontology
    ) -> None:
        """A rule SKAT and inference both suggest reaches the expert
        once, at the higher of the two scores (inference scores 0.7)."""
        from repro.core.rules import parse_rule
        from repro.lexicon.expert import MatchCandidate
        from repro.lexicon.skat import Matcher

        accept = "left:Car => right:Automobile"
        low = "left:Car => right:Vehicle"  # inference derives it
        high = "mid:Automobile => right:Vehicle"  # inference derives it

        class FixedMatcher(Matcher):
            name = "fixed"

            def propose(self, o1, o2):
                return [
                    MatchCandidate(parse_rule(low), 0.3, self.name),
                    MatchCandidate(parse_rule(high), 0.9, self.name),
                ]

        batches: list[dict[str, MatchCandidate]] = []

        class RecordingPolicy(ScriptedPolicy):
            def review(self, candidates):
                candidates = list(candidates)
                batches.append({c.key(): c for c in candidates})
                assert len(batches[-1]) == len(candidates)
                return super().review(candidates)

        # The volunteered rule is applied before round 1, so inference
        # runs in round 1 and its suggestions merge with SKAT's there.
        articulate_with_expert(
            left,
            right,
            RecordingPolicy(volunteered=(parse_rule(accept),)),
            skat=SkatEngine(matchers=[FixedMatcher()]),
            name="mid",
        )
        merged = batches[0]
        assert (merged[low].score, merged[low].matcher) == (0.7, "inference")
        assert (merged[high].score, merged[high].matcher) == (0.9, "fixed")

    def test_no_rule_is_reviewed_twice_and_skat_runs_once(self) -> None:
        """Neither source changes inside the loop: SKAT proposes once,
        and a rule the expert rejected never comes back for review."""
        workload = generate_workload(
            WorkloadConfig(
                universe_size=180, terms_per_source=60, overlap=0.4, seed=1
            )
        )
        truth = workload.truth_rules(0, 1)
        keys: list[str] = []
        proposals: list[int] = []

        class RecordingPolicy(GroundTruthPolicy):
            def review(self, candidates):
                candidates = list(candidates)
                keys.extend(c.key() for c in candidates)
                return super().review(candidates)

        class CountingSkat(SkatEngine):
            def propose(self, o1, o2, **kwargs):
                proposals.append(1)
                return super().propose(o1, o2, **kwargs)

        o1, o2 = workload.sources
        lexicon_skat = SkatEngine.default(workload.lexicon(noise=0.2, seed=1))
        articulation, audit = articulate_with_expert(
            o1,
            o2,
            RecordingPolicy.from_rules(truth),
            skat=CountingSkat(matchers=lexicon_skat.matchers),
            name="art",
        )
        assert len(proposals) == 1
        assert len(keys) == len(set(keys))
        assert len(audit) == len(keys)
        accepted = {str(rule) for rule in articulation.rules}
        assert accepted <= {str(rule) for rule in truth}
        assert len(accepted) == 40

    def test_audit_records_rejections(
        self, left: Ontology, right: Ontology
    ) -> None:
        _, audit = articulate_with_expert(
            left,
            right,
            ThresholdPolicy(threshold=2.0),  # rejects everything
            name="mid",
        )
        assert audit
        assert all(
            review.decision is ExpertDecision.REJECT for review in audit
        )
