"""Unit tests for the synthetic workload generator and churn model."""

from __future__ import annotations

import pytest

from repro.core.articulation import ArticulationGenerator
from repro.errors import OnionError
from repro.workloads.churn import apply_churn
from repro.workloads.generator import WorkloadConfig, generate_workload


class TestConfigValidation:
    def test_overlap_range(self) -> None:
        with pytest.raises(OnionError):
            WorkloadConfig(overlap=1.5)

    def test_terms_bounded_by_universe(self) -> None:
        with pytest.raises(OnionError):
            WorkloadConfig(universe_size=10, terms_per_source=20)

    def test_universe_minimum(self) -> None:
        with pytest.raises(OnionError):
            WorkloadConfig(universe_size=1)

    def test_sources_minimum(self) -> None:
        with pytest.raises(OnionError):
            WorkloadConfig(n_sources=0)


class TestGeneration:
    @pytest.fixture
    def workload(self):
        return generate_workload(
            WorkloadConfig(
                universe_size=100,
                n_sources=3,
                terms_per_source=40,
                overlap=0.4,
                seed=42,
            )
        )

    def test_deterministic_in_seed(self) -> None:
        config = WorkloadConfig(universe_size=50, terms_per_source=20, seed=9)
        w1 = generate_workload(config)
        w2 = generate_workload(config)
        for s1, s2 in zip(w1.sources, w2.sources):
            assert s1.same_structure(s2)

    def test_different_seeds_differ(self) -> None:
        w1 = generate_workload(
            WorkloadConfig(universe_size=50, terms_per_source=20, seed=1)
        )
        w2 = generate_workload(
            WorkloadConfig(universe_size=50, terms_per_source=20, seed=2)
        )
        assert not w1.sources[0].same_structure(w2.sources[0])

    def test_source_sizes(self, workload) -> None:
        assert all(s.term_count() == 40 for s in workload.sources)

    def test_sources_are_valid_ontologies(self, workload) -> None:
        for source in workload.sources:
            assert source.is_valid(), source.validate()

    def test_overlap_produces_co_references(self, workload) -> None:
        pairs = workload.co_referring(0, 1)
        assert pairs
        # Every co-referring term exists in its respective source.
        for term0, term1 in pairs:
            assert workload.sources[0].has_term(term0)
            assert workload.sources[1].has_term(term1)

    def test_zero_overlap(self) -> None:
        workload = generate_workload(
            WorkloadConfig(
                universe_size=400,
                terms_per_source=20,
                overlap=0.0,
                seed=5,
            )
        )
        # With no deliberate overlap, co-references come only from
        # chance collisions of private samples; allow a small number.
        assert len(workload.co_referring(0, 1)) <= 6

    def test_truth_rules_are_equivalences(self, workload) -> None:
        rules = workload.truth_rules(0, 1)
        texts = {str(r) for r in rules}
        for term0, term1 in workload.co_referring(0, 1):
            assert f"src0:{term0} => src1:{term1}" in texts
            assert f"src1:{term1} => src0:{term0}" in texts

    def test_truth_rules_generate_cleanly(self, workload) -> None:
        generator = ArticulationGenerator(
            workload.sources[:2], name="mid"
        )
        articulation = generator.generate(workload.truth_rules(0, 1))
        assert len(articulation.bridges) > 0

    def test_truth_alignment_qualified(self, workload) -> None:
        alignment = workload.truth_alignment(0, 1)
        for left, right in alignment:
            assert left.startswith("src0:")
            assert right.startswith("src1:")


class TestWorkloadLexicon:
    def test_lexicon_knows_variants(self) -> None:
        workload = generate_workload(
            WorkloadConfig(universe_size=40, terms_per_source=20, seed=3)
        )
        lexicon = workload.lexicon()
        # Pick a concept and check its variant labels are synonyms.
        concept = workload.concepts[5]
        assert lexicon.are_synonyms(concept.labels[0], concept.labels[1])

    def test_noise_drops_entries(self) -> None:
        workload = generate_workload(
            WorkloadConfig(universe_size=100, terms_per_source=30, seed=3)
        )
        full = workload.lexicon(noise=0.0)
        noisy = workload.lexicon(noise=0.5, seed=1)
        assert len(noisy) < len(full)

    def test_full_noise_empties_lexicon(self) -> None:
        workload = generate_workload(
            WorkloadConfig(universe_size=30, terms_per_source=10, seed=3)
        )
        assert len(workload.lexicon(noise=1.0)) == 0


class TestChurn:
    def test_mutation_count(self, carrier) -> None:
        report = apply_churn(carrier, n_mutations=12, seed=4)
        assert len(report) == 12 or len(report) >= 10  # deletes may skip

    def test_churn_deterministic(self) -> None:
        from repro.workloads.paper_example import carrier_ontology

        o1, o2 = carrier_ontology(), carrier_ontology()
        r1 = apply_churn(o1, n_mutations=15, seed=7)
        r2 = apply_churn(o2, n_mutations=15, seed=7)
        assert o1.same_structure(o2)
        assert [m.kind for m in r1.mutations] == [
            m.kind for m in r2.mutations
        ]

    def test_touched_terms_reported(self, carrier) -> None:
        before = set(carrier.terms())
        report = apply_churn(carrier, n_mutations=10, seed=2)
        touched = report.touched_terms()
        assert touched
        after = set(carrier.terms())
        # Every added or removed term is reported as touched.
        assert (after - before) <= touched
        assert (before - after) <= touched

    def test_add_only_churn(self, carrier) -> None:
        report = apply_churn(
            carrier,
            n_mutations=5,
            seed=3,
            add_weight=1.0,
            delete_weight=0.0,
            edge_weight=0.0,
        )
        assert all(m.kind == "add_term" for m in report.mutations)

    def test_ontology_stays_valid_under_churn(self, factory) -> None:
        apply_churn(factory, n_mutations=30, seed=9)
        assert factory.is_valid(), factory.validate()
