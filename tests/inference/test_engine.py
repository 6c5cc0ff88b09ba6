"""Unit tests for the ontology-level inference engine."""

from __future__ import annotations

import pytest

from repro.core.articulation import Articulation
from repro.core.ontology import Ontology
from repro.core.rules import ImplicationRule
from repro.errors import ContradictionError
from repro.inference.engine import OntologyInferenceEngine
from repro.inference.horn import HornEngine
from repro.workloads.paper_example import generate_transport_articulation

from tests.support.baselines import FlatHornEngine, NaiveHornEngine


@pytest.fixture
def engine(transport: Articulation) -> OntologyInferenceEngine:
    return OntologyInferenceEngine.from_articulation(transport)


class TestSingleOntology:
    def test_transitive_subclass(self, carrier: Ontology) -> None:
        engine = OntologyInferenceEngine.from_ontology(carrier)
        assert engine.is_subclass("Car", "Transportation")
        assert engine.is_subclass("SUV", "Carrier")

    def test_subclass_reflexive_by_convention(self, carrier: Ontology) -> None:
        engine = OntologyInferenceEngine.from_ontology(carrier)
        assert engine.is_subclass("Car", "Car")

    def test_subclass_directed(self, carrier: Ontology) -> None:
        engine = OntologyInferenceEngine.from_ontology(carrier)
        assert not engine.is_subclass("Transportation", "Car")

    def test_superclasses_subclasses(self, carrier: Ontology) -> None:
        engine = OntologyInferenceEngine.from_ontology(carrier)
        assert engine.superclasses("Car") == {
            "Cars",
            "Carrier",
            "Transportation",
        }
        assert "SUV" in engine.subclasses("Carrier")

    def test_instances_lift_through_subclass(self, carrier: Ontology) -> None:
        engine = OntologyInferenceEngine.from_ontology(carrier)
        assert "MyCar" in engine.instances_of("Cars")
        assert "MyCar" in engine.instances_of("Transportation")

    def test_custom_symmetric_relation(self) -> None:
        from repro.core.relations import RelationType

        onto = Ontology("o")
        onto.registry.register(
            RelationType("AdjacentTo", "ADJ", symmetric=True)
        )
        onto.add_term("A")
        onto.add_term("B")
        onto.relate("A", "AdjacentTo", "B")
        engine = OntologyInferenceEngine.from_ontology(onto)
        assert engine.engine.holds(("ADJ", "B", "A"))


class TestArticulationReasoning:
    def test_cross_ontology_implication(
        self, engine: OntologyInferenceEngine
    ) -> None:
        assert engine.implies("carrier:Car", "factory:Vehicle")

    def test_local_plus_bridge_composition(
        self, engine: OntologyInferenceEngine
    ) -> None:
        assert engine.implies("factory:Truck", "transport:CargoCarrierVehicle")
        assert engine.implies("factory:Truck", "carrier:Trucks")

    def test_implies_reflexive(self, engine: OntologyInferenceEngine) -> None:
        assert engine.implies("carrier:Car", "carrier:Car")

    def test_functional_bridges_carry_no_subsumption(
        self, engine: OntologyInferenceEngine
    ) -> None:
        assert not engine.implies("carrier:PoundSterling", "transport:Euro")

    def test_specializations_generalizations(
        self, engine: OntologyInferenceEngine
    ) -> None:
        specs = engine.specializations("transport:Vehicle")
        assert "carrier:Car" in specs
        gens = engine.generalizations("carrier:Car")
        assert "factory:Vehicle" in gens

    def test_equivalence_classes_detect_si_cycle(
        self, engine: OntologyInferenceEngine
    ) -> None:
        groups = engine.equivalence_classes()
        assert any(
            {"factory:Vehicle", "transport:Vehicle"} <= group
            for group in groups
        )


class TestDerivedRules:
    def test_derived_rules_are_cross_ontology_and_new(
        self, engine: OntologyInferenceEngine
    ) -> None:
        derived = engine.derived_rules()
        assert derived, "expected the engine to derive new rules"
        for rule in derived:
            assert rule.source == "inferred"
            ontologies = rule.ontologies()
            assert len(ontologies) == 2

    def test_derived_rules_exclude_stated_rules(
        self, engine: OntologyInferenceEngine, transport: Articulation
    ) -> None:
        stated = {str(r) for r in transport.rules.implications()}
        derived = {str(r) for r in engine.derived_rules()}
        assert not (stated & derived)

    def test_specific_expected_derivation(
        self, engine: OntologyInferenceEngine
    ) -> None:
        """factory:Truck => carrier:Trucks follows from the conjunction
        rule + factory's local hierarchy; it was never stated."""
        derived = {str(r) for r in engine.derived_rules()}
        assert "factory:Truck => carrier:Trucks" in derived


class TestConsistency:
    def test_no_contradictions_without_disjointness(
        self, engine: OntologyInferenceEngine
    ) -> None:
        assert engine.contradictions() == []
        engine.check_consistency()  # must not raise

    def test_disjointness_violation_detected(
        self, engine: OntologyInferenceEngine
    ) -> None:
        # Cars and Trucks are declared disjoint, but the articulation
        # bridges factory:Vehicle under CarsTrucks and Truck under
        # Trucks while Truck also reaches Vehicle -> no single term
        # lands in both here; instead manufacture a violation:
        engine.declare_disjoint("carrier:Cars", "carrier:Trucks")
        engine.engine.add_fact(("implies", "carrier:SUV", "carrier:Trucks"))
        found = engine.contradictions()
        assert any(term == "carrier:SUV" for term, _a, _b in found)
        with pytest.raises(ContradictionError):
            engine.check_consistency()

    def test_disjointness_is_symmetric(
        self, engine: OntologyInferenceEngine
    ) -> None:
        engine.declare_disjoint("carrier:Cars", "carrier:Trucks")
        engine.engine.add_fact(("implies", "carrier:SUV", "carrier:Trucks"))
        pairs = {
            (a, b) for _t, a, b in engine.contradictions()
        }
        assert ("carrier:Cars", "carrier:Trucks") in pairs
        assert ("carrier:Trucks", "carrier:Cars") in pairs


def _rerun(engine_cls, horn: HornEngine) -> HornEngine:
    """The same program (clauses and asserted facts) on a reference
    engine from :mod:`tests.support.baselines`."""
    reference = engine_cls()
    reference.add_clauses(horn.clauses())
    reference.add_facts(sorted(horn.base_facts()))
    reference.saturate()
    return reference


class TestStrategiesAgree:
    def test_naive_matches_seminaive_on_articulation(
        self, transport: Articulation
    ) -> None:
        semi = OntologyInferenceEngine.from_articulation(transport)
        naive = _rerun(NaiveHornEngine, semi.engine)
        assert semi.engine.facts() == naive.facts()

    def test_flat_matches_stratified_on_articulation(
        self, transport: Articulation
    ) -> None:
        stratified = OntologyInferenceEngine.from_articulation(transport)
        flat = _rerun(FlatHornEngine, stratified.engine)
        assert flat.facts() == stratified.engine.facts()


class TestIncrementalRefresh:
    def test_initial_refresh_mode(self, transport: Articulation) -> None:
        engine = OntologyInferenceEngine.from_articulation(transport)
        assert engine.last_refresh["mode"] == "initial"

    def test_grown_articulation_refreshes_incrementally(
        self, transport: Articulation
    ) -> None:
        from repro.core.articulation import ArticulationGenerator
        from repro.core.rules import ArticulationRuleSet, parse_rule

        engine = OntologyInferenceEngine.from_articulation(transport)
        assert not engine.implies("carrier:SUV", "factory:Vehicle")

        extra = ArticulationRuleSet()
        extra.add(parse_rule("carrier:SUV => factory:Vehicle"))
        generator = ArticulationGenerator(
            transport.sources.values(), name=transport.name
        )
        generator.extend(transport, extra)

        refresh = engine.refresh_from_articulation(transport)
        assert refresh["mode"] == "incremental"
        assert refresh["added"] >= 1
        assert engine.implies("carrier:SUV", "factory:Vehicle")
        # Parity with a from-scratch engine over the grown articulation.
        scratch = OntologyInferenceEngine.from_articulation(transport)
        assert engine.engine.facts() == scratch.engine.facts()

    def test_shrunk_articulation_serves_retraction(
        self, transport: Articulation
    ) -> None:
        """A shrink no longer forces a rebuild: the stale facts are
        retracted through the Horn engine's DRed pass and the result
        still equals a from-scratch build."""
        from repro.core.articulation import ArticulationGenerator
        from repro.core.rules import ArticulationRuleSet

        engine = OntologyInferenceEngine.from_articulation(transport)
        engine.fact_count()  # saturate once
        # Pin DRed: dropping the rule retracts 4 of the 44 base facts,
        # past the engine's twentieth-of-the-base rebuild crossover.
        engine.engine.rebuild_crossover = 10_000
        implications = list(transport.rules.implications())
        surviving = ArticulationRuleSet()
        for rule in transport.rules:
            if rule is not implications[0]:
                surviving.add(rule)
        generator = ArticulationGenerator(
            transport.sources.values(), name=transport.name
        )
        rebuilt = generator.generate(surviving)
        refresh = engine.refresh_from_articulation(rebuilt)
        assert refresh["mode"] == "retract"
        assert refresh["removed"] > 0
        scratch = OntologyInferenceEngine.from_articulation(rebuilt)
        assert engine.engine.facts() == scratch.engine.facts()

    def test_rebuild_replays_disjointness(
        self, transport: Articulation
    ) -> None:
        engine = OntologyInferenceEngine.from_articulation(transport)
        engine.declare_disjoint("carrier:Cars", "carrier:Trucks")
        # A rebuild-triggering refresh must keep the declaration alive.
        engine._program_facts = None
        engine.refresh_from_articulation(transport)
        engine.engine.add_fact(("implies", "carrier:SUV", "carrier:Trucks"))
        assert any(
            term == "carrier:SUV" for term, _a, _b in engine.contradictions()
        )


class TestNoopRefresh:
    """The version-stamp fast path: refreshing an unchanged
    articulation skips program re-extraction entirely."""

    def test_unchanged_articulation_is_noop(
        self, transport: Articulation
    ) -> None:
        engine = OntologyInferenceEngine.from_articulation(transport)
        refresh = engine.refresh_from_articulation(transport)
        assert refresh["mode"] == "noop"
        assert refresh["added"] == 0

    def test_noop_skips_program_extraction(
        self, transport: Articulation, monkeypatch
    ) -> None:
        engine = OntologyInferenceEngine.from_articulation(transport)

        def boom(articulation):  # pragma: no cover - must not run
            raise AssertionError("program re-extracted on a no-op refresh")

        monkeypatch.setattr(engine, "_articulation_program", boom)
        assert engine.refresh_from_articulation(transport)["mode"] == "noop"

    def test_version_bump_defeats_noop(self, transport: Articulation) -> None:
        engine = OntologyInferenceEngine.from_articulation(transport)
        transport.bump_version()
        refresh = engine.refresh_from_articulation(transport)
        assert refresh["mode"] == "incremental"
        assert refresh["added"] == 0  # nothing actually changed

    def test_source_growth_defeats_noop(
        self, transport: Articulation
    ) -> None:
        engine = OntologyInferenceEngine.from_articulation(transport)
        carrier = transport.sources["carrier"]
        carrier.ensure_term("Tricycle")
        carrier.add_subclass("Tricycle", "Cars")
        refresh = engine.refresh_from_articulation(transport)
        assert refresh["mode"] == "incremental"
        assert refresh["added"] >= 1
        assert engine.implies("carrier:Tricycle", "carrier:Cars")

    def test_different_articulation_object_never_noop(
        self, transport: Articulation
    ) -> None:
        engine = OntologyInferenceEngine.from_articulation(transport)
        other = generate_transport_articulation()
        refresh = engine.refresh_from_articulation(other)
        assert refresh["mode"] != "noop"

    def test_stamp_pins_articulation_object(
        self, transport: Articulation
    ) -> None:
        """The noop stamp holds the articulation itself (not its id),
        so a recycled address can never false-match."""
        engine = OntologyInferenceEngine.from_articulation(transport)
        assert engine._stamp_articulation is transport
