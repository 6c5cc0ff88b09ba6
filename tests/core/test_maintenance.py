"""Unit tests for the incremental articulation maintainer (§5.3)."""

from __future__ import annotations

import pytest

from repro.core.articulation import Articulation, ArticulationGenerator
from repro.core.graph import Edge
from repro.core.maintenance import ArticulationMaintainer
from repro.core.ontology import Ontology, qualify
from repro.core.rules import ImplicationRule
from repro.errors import ArticulationError
from repro.inference.engine import OntologyInferenceEngine
from repro.reliability import FaultInjected, FaultPlan
from repro.workloads.churn import apply_churn
from repro.workloads.generator import WorkloadConfig, generate_workload
from repro.workloads.paper_example import generate_transport_articulation


@pytest.fixture
def maintainer(transport: Articulation) -> ArticulationMaintainer:
    return ArticulationMaintainer(transport)


def _assert_matches_generation(articulation: Articulation) -> None:
    """The articulation equals generation from scratch over its sources
    and rules: same bridges, same ontology structure, same functions."""
    fresh = ArticulationGenerator(
        articulation.sources.values(), name=articulation.name
    ).generate(articulation.rules.copy())
    assert articulation.bridges == fresh.bridges
    assert articulation.ontology.same_structure(fresh.ontology)
    assert set(articulation.functions) == set(fresh.functions)


class TestClassification:
    def test_free_vs_affected(self, maintainer: ArticulationMaintainer) -> None:
        free, affected = maintainer.classify(
            "carrier", ["SUV", "Car", "Driver", "Trucks"]
        )
        assert free == {"SUV", "Driver"}
        assert affected == {"Car", "Trucks"}

    def test_unknown_source_rejected(
        self, maintainer: ArticulationMaintainer
    ) -> None:
        with pytest.raises(ArticulationError):
            maintainer.classify("nowhere", ["X"])

    def test_brand_new_terms_are_free(
        self, maintainer: ArticulationMaintainer
    ) -> None:
        free, affected = maintainer.classify("carrier", ["JustAdded"])
        assert free == {"JustAdded"}
        assert not affected


class TestFreeChanges:
    def test_free_change_costs_nothing(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        carrier = transport.sources["carrier"]
        carrier.ensure_term("Scooter")
        carrier.add_subclass("Scooter", "Cars")
        bridges_before = set(transport.bridges)
        report = maintainer.apply_source_changes("carrier", ["Scooter"])
        assert not report.required_work
        assert report.repair_ops == 0
        assert transport.bridges == bridges_before
        assert maintainer.verify() == []

    def test_removing_uncovered_term_is_free(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        transport.sources["carrier"].remove_term("SUV")
        report = maintainer.apply_source_changes("carrier", ["SUV"])
        assert not report.required_work
        assert maintainer.verify() == []


class TestAffectingChanges:
    def test_deleting_bridged_term_repairs(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        transport.sources["carrier"].remove_term("Car")
        report = maintainer.apply_source_changes("carrier", ["Car"])
        assert report.required_work
        # The two rules mentioning carrier:Car are dropped.
        dropped_texts = {str(r) for r in report.dropped_rules}
        assert "carrier:Car => factory:Vehicle" in dropped_texts
        assert any("PassengerCar" in t for t in dropped_texts)
        # No bridge references carrier:Car anymore.
        assert not any(
            "carrier:Car" in (e.source, e.target) for e in transport.bridges
        )
        assert maintainer.verify() == []

    def test_repair_equals_regeneration_from_surviving_rules(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        transport.sources["carrier"].remove_term("Car")
        maintainer.apply_source_changes("carrier", ["Car"])
        # Regenerate from scratch with the surviving rule set and
        # compare: reconstruction repair is deterministic.
        from repro.core.articulation import ArticulationGenerator

        generator = ArticulationGenerator(
            transport.sources.values(), name=transport.name
        )
        fresh = generator.generate(transport.rules.copy())
        assert fresh.ontology.same_structure(transport.ontology)
        assert fresh.bridges == transport.bridges

    def test_functional_rule_dropped_with_its_unit(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        transport.sources["carrier"].remove_term("PoundSterling")
        report = maintainer.apply_source_changes(
            "carrier", ["PoundSterling"]
        )
        assert report.required_work
        assert "PSToEuroFn()" not in transport.functions
        # The factory conversion survives untouched.
        assert "DGToEuroFn()" in transport.functions
        assert maintainer.verify() == []

    def test_hand_edited_articulation_is_reconstructed(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        """An edit made outside the generator voids the rule-generated
        mark, so the next affecting change rebuilds rather than keeps."""
        transport.bridges.add(
            Edge("carrier:SUV", "SIBridge", "transport:Vehicle")
        )
        report = maintainer.apply_source_changes("carrier", ["Car"])
        assert report.replayed_rules == len(transport.rules)
        assert transport.is_generated()
        _assert_matches_generation(transport)

    def test_affecting_change_without_deletion_replays(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        """An edit that touches a covered term but deletes nothing
        keeps every rule, and in a source without a conjunction rule
        the articulation already equals generation from scratch:
        nothing is replayed."""
        report = maintainer.apply_source_changes("carrier", ["Car"])
        assert report.required_work
        assert not report.dropped_rules
        assert report.replayed_rules == 0
        assert maintainer.verify() == []
        _assert_matches_generation(transport)


class TestConjunctionRegion:
    def test_common_subclass_edit_between_unbridged_terms_repairs(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        """An edit between two unbridged terms can still make a new
        common subclass of an AND rule's conjuncts; the generator
        bridges every common subclass, so the edit is affecting."""
        factory = transport.sources["factory"]
        factory.ensure_term("Bus")
        factory.add_subclass("Bus", "Vehicle")
        maintainer.apply_source_changes("factory", ["Bus", "Vehicle"])
        factory.ensure_term("Hauler")
        factory.add_subclass("Hauler", "CargoCarrier")
        maintainer.apply_source_changes("factory", ["Hauler", "CargoCarrier"])
        factory.add_subclass("Bus", "Hauler")
        report = maintainer.apply_source_changes("factory", ["Bus", "Hauler"])
        assert report.affected_terms == {"Bus", "Hauler"}
        assert (
            Edge("factory:Bus", "SIBridge", "transport:CargoCarrierVehicle")
            in transport.bridges
        )
        _assert_matches_generation(transport)

    def test_common_subclass_deleted_and_reported_alone_repairs(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        """Truck is bridged only as a common subclass; no rule names it.
        Reported without its neighbours, its deletion still rebuilds."""
        transport.sources["factory"].remove_term("Truck")
        report = maintainer.apply_source_changes("factory", ["Truck"])
        assert report.affected_terms == {"Truck"}
        assert report.replayed_rules == len(transport.rules)
        assert maintainer.verify() == []
        _assert_matches_generation(transport)

    def test_common_subclass_unlinked_and_reported_alone_repairs(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        """Reporting only the subclass end of a removed edge: Truck has
        left the conjuncts' descendants, and its bridge must go."""
        factory = transport.sources["factory"]
        factory.unrelate("Truck", "SubclassOf", "GoodsVehicle")
        maintainer.apply_source_changes("factory", ["Truck"])
        assert (
            Edge("factory:Truck", "SIBridge", "transport:CargoCarrierVehicle")
            not in transport.bridges
        )
        _assert_matches_generation(transport)

    def test_unreported_deletion_is_dropped_by_the_next_rebuild(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        """A rule whose term vanished in an unreported edit is dropped
        before the next reconstruction, instead of failing it."""
        transport.sources["carrier"].remove_term("Car")
        report = maintainer.apply_source_changes("factory", ["Truck"])
        assert report.dropped_rules
        assert maintainer.verify() == []
        _assert_matches_generation(transport)


class TestUnderChurn:
    def test_long_churn_run_stays_consistent(self) -> None:
        transport = generate_transport_articulation()
        maintainer = ArticulationMaintainer(transport)
        carrier = transport.sources["carrier"]
        for seed in range(6):
            report = apply_churn(carrier, n_mutations=8, seed=seed)
            maintainer.apply_source_changes(
                "carrier", report.touched_terms()
            )
            assert maintainer.verify() == []

    def test_verify_reports_manual_damage(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        transport.sources["factory"].remove_term("Vehicle")
        issues = maintainer.verify()
        assert any("dangling bridge" in issue for issue in issues)
        assert any("stale rule" in issue for issue in issues)


class TestRetractionRouting:
    """Deletion-repairs ride the DRed retraction delta, and the
    fingerprint-keyed part cache keeps unchanged graphs un-walked."""

    def test_repair_does_not_reextract_unchanged_sources(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        engine = maintainer.inference_engine()
        engine.fact_count()  # reach a fixpoint so DRed can repair it
        # Pin the crossover out of reach: this test is about DRed
        # routing and extraction caching, not the batch-rebuild switch
        # (covered below) — removing "Car" sheds ~30% of the base
        # facts, past the measured crossover.
        engine.engine.rebuild_crossover = 10_000
        transport.sources["carrier"].remove_term("Car")
        report = maintainer.apply_source_changes("carrier", ["Car"])
        assert report.inference_mode == "retract"
        refresh = engine.last_refresh
        assert refresh["removed"] > 0
        # carrier changed and the repair swapped in a fresh articulation
        # ontology; factory never moved, so its edge part came from the
        # per-version cache.
        assert "carrier" in refresh["extracted"]
        assert "factory" not in refresh["extracted"]

    def test_unsaturated_engine_reports_replay_not_retract(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        """A shrink diffed into an engine that never reached a
        fixpoint is applied but honestly labeled: the next query
        replays from base instead of running the DRed pass."""
        engine = maintainer.inference_engine()  # built, never queried
        transport.sources["carrier"].remove_term("Car")
        report = maintainer.apply_source_changes("carrier", ["Car"])
        assert report.inference_mode == "replay"
        assert not engine.implies("carrier:Car", "factory:Vehicle")
        assert engine.engine.last_stats["mode"] == "full"

    def test_source_rename_invalidates_part_cache(
        self, transport: Articulation
    ) -> None:
        """The per-part cache keys on the ontology *name* as well as
        the graph version: an in-place rename must re-extract, not
        serve stale qualified atoms."""
        from repro.inference.engine import OntologyInferenceEngine

        engine = OntologyInferenceEngine.from_articulation(transport)
        engine.fact_count()
        transport.sources["hauler"] = transport.sources.pop("carrier")
        transport.sources["hauler"].name = "hauler"
        # an unrelated edit elsewhere moves the fingerprint
        transport.sources["factory"].ensure_term("SparePart")
        transport.bump_version()
        engine.refresh_from_articulation(transport)
        scratch = OntologyInferenceEngine.from_articulation(transport)
        assert engine.engine.facts() == scratch.engine.facts()

    def test_bridge_only_shrink_needs_no_extraction_at_all(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        """Dropping a bridge (no graph moved) is served purely from
        the fingerprint diff: a retraction delta, zero graph walks."""
        from repro.inference.engine import OntologyInferenceEngine

        engine = maintainer.inference_engine()
        engine.fact_count()  # saturate once
        victim = sorted(
            transport.bridges, key=lambda e: (e.source, e.label, e.target)
        )[0]
        transport.bridges.discard(victim)
        transport.bump_version()
        refresh = engine.refresh_from_articulation(transport)
        assert refresh["mode"] == "retract"
        assert refresh["extracted"] == []  # every graph part cache-hit
        scratch = OntologyInferenceEngine.from_articulation(transport)
        assert engine.engine.facts() == scratch.engine.facts()


class TestSemanticChecks:
    def test_semantic_verify_clean_articulation(
        self, maintainer: ArticulationMaintainer
    ) -> None:
        assert maintainer.semantic_verify() == []

    def test_inference_engine_is_cached(
        self, maintainer: ArticulationMaintainer
    ) -> None:
        assert maintainer.inference_engine() is maintainer.inference_engine()

    def test_semantic_verify_reports_contradictions(
        self, maintainer: ArticulationMaintainer
    ) -> None:
        engine = maintainer.inference_engine()
        engine.declare_disjoint("carrier:Cars", "carrier:Trucks")
        engine.engine.add_fact(("implies", "carrier:SUV", "carrier:Trucks"))
        issues = maintainer.semantic_verify()
        assert any("carrier:SUV" in issue for issue in issues)

    def test_repair_refreshes_cached_engine(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        engine = maintainer.inference_engine()
        assert engine.implies("carrier:Car", "factory:Vehicle")
        # A deletion-repair routes through the DRed retraction delta,
        # not a rebuild (crossover pinned out of reach — the
        # batch-rebuild switch has its own test below).
        engine.engine.rebuild_crossover = 10_000
        transport.sources["carrier"].remove_term("Car")
        report = maintainer.apply_source_changes("carrier", ["Car"])
        assert report.inference_mode == "retract"
        # Same engine object, refreshed program: the dropped rule's
        # implication is gone.
        assert maintainer.inference_engine() is engine
        assert not engine.implies("carrier:Car", "factory:Vehicle")
        assert maintainer.semantic_verify() == []

    def test_heavy_repair_crosses_rebuild_crossover(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        """A shrink whose retraction count crosses the engine's
        measured rebuild crossover abandons the deletion cone and
        replays from base — surfaced as ``batch-rebuild``, with the
        same answers a DRed repair would give."""
        engine = maintainer.inference_engine()
        engine.fact_count()  # reach a fixpoint
        assert engine.engine.rebuild_crossover <= 10
        transport.sources["carrier"].remove_term("Car")
        report = maintainer.apply_source_changes("carrier", ["Car"])
        assert report.inference_mode == "batch-rebuild"
        assert engine.last_refresh["removed"] > 0
        # Semantics are unchanged by the routing choice.
        assert not engine.implies("carrier:Car", "factory:Vehicle")
        assert maintainer.semantic_verify() == []

    def test_semantic_verify_sees_free_edge_additions(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        """A free change (no bridge touched) can still add edges the
        engine's program loads; semantic_verify must refresh first."""
        engine = maintainer.inference_engine()
        engine.declare_disjoint("carrier:Cars", "carrier:Trucks")
        assert maintainer.semantic_verify() == []
        carrier = transport.sources["carrier"]
        carrier.ensure_term("AmphibTruck")
        carrier.add_subclass("AmphibTruck", "Cars")
        carrier.add_subclass("AmphibTruck", "Trucks")
        report = maintainer.apply_source_changes("carrier", ["AmphibTruck"])
        assert not report.required_work  # classified free, no repair
        issues = maintainer.semantic_verify()
        assert any("carrier:AmphibTruck" in issue for issue in issues)

    def test_free_change_leaves_engine_untouched(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        engine = maintainer.inference_engine()
        facts_before = engine.fact_count()
        carrier = transport.sources["carrier"]
        carrier.ensure_term("Scooter")
        report = maintainer.apply_source_changes("carrier", ["Scooter"])
        assert report.inference_mode == ""  # no repair, no refresh
        assert engine.fact_count() == facts_before


class TestClassificationCaching:
    def test_repeated_classify_hits_covered_cache(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        transport.cache_stats.clear()
        maintainer.classify("carrier", ["SUV"])
        maintainer.classify("carrier", ["Driver", "Car"])
        maintainer.classify("factory", ["Vehicle"])
        assert transport.cache_stats.get("covered_misses", 0) == 1
        assert transport.cache_stats.get("covered_hits", 0) == 2

    def test_source_only_edit_keeps_covered_cache(
        self, transport: Articulation
    ) -> None:
        """The covered-term set reads only the bridges, so a source
        edit does not invalidate it."""
        transport.covered_source_terms()
        transport.cache_stats.clear()
        carrier = transport.sources["carrier"]
        carrier.ensure_term("Tricycle")
        carrier.add_subclass("Tricycle", "Cars")
        transport.covered_source_terms()
        assert transport.cache_stats.get("covered_hits", 0) == 1
        assert transport.cache_stats.get("covered_misses", 0) == 0

    def test_repair_invalidates_covered_cache(
        self, maintainer: ArticulationMaintainer, transport: Articulation
    ) -> None:
        free, affected = maintainer.classify("carrier", ["Car"])
        assert affected == {"Car"}
        transport.sources["carrier"].remove_term("Car")
        maintainer.apply_source_changes("carrier", ["Car"])
        free, affected = maintainer.classify("carrier", ["Car"])
        assert affected == set()  # repair dropped every Car bridge

    def test_noop_refresh_after_repairless_verify(
        self, maintainer: ArticulationMaintainer
    ) -> None:
        engine = maintainer.inference_engine()
        maintainer.semantic_verify()
        first_mode = engine.last_refresh["mode"]
        assert first_mode in ("noop", "incremental")
        maintainer.semantic_verify()
        assert engine.last_refresh["mode"] == "noop"


# ----------------------------------------------------------------------
# differential checks: after every churn batch the maintained
# articulation equals generation from scratch over the current sources
# and surviving rules, and the long-lived inference engine, refreshed
# from per-part deltas, holds exactly the program and closure a fresh
# engine builds
# ----------------------------------------------------------------------
def _truth_articulation() -> Articulation:
    workload = generate_workload(
        WorkloadConfig(universe_size=240, terms_per_source=80, overlap=0.4)
    )
    return ArticulationGenerator(workload.sources, name="art").generate(
        workload.truth_rules(0, 1)
    )


def _assert_matches_fresh_engine(
    engine: OntologyInferenceEngine, articulation: Articulation
) -> None:
    fresh = OntologyInferenceEngine.from_articulation(articulation)
    assert engine._program_facts == fresh._program_facts
    assert engine.engine.facts() == fresh.engine.facts()


def _assert_rule_terms_covered(articulation: Articulation) -> None:
    """Every source term a rule names is a bridge endpoint, so its
    deletion is always affecting — what the maintainer's keep check
    relies on."""
    covered = articulation.covered_source_terms()
    for rule in articulation.rules:
        refs = (
            rule.terms()
            if isinstance(rule, ImplicationRule)
            else (rule.source, rule.target)
        )
        for ref in refs:
            if ref.ontology in articulation.sources:
                assert qualify(ref.ontology, ref.term) in covered, str(rule)


def _campaign(
    articulation: Articulation,
    *,
    seed: int,
    batches: int,
    mutations: int,
    delete_weight: float,
):
    """Churn every source in turn; yield after each batch's refresh."""
    maintainer = ArticulationMaintainer(articulation)
    engine = OntologyInferenceEngine.from_articulation(articulation)
    names = sorted(articulation.sources)
    for batch in range(batches):
        name = names[batch % len(names)]
        report = apply_churn(
            articulation.sources[name],
            n_mutations=mutations,
            seed=seed * 1009 + batch,
            delete_weight=delete_weight,
        )
        maintenance = maintainer.apply_source_changes(
            name, report.touched_terms()
        )
        engine.refresh_from_articulation(articulation)
        if batch % 2:
            engine.fact_count()  # reach a fixpoint: the DRed path runs
        yield maintenance, engine


class TestMaintainedArticulationMatchesGeneration:
    @pytest.mark.parametrize("seed", range(4))
    def test_transport_world_with_deletions(self, seed: int) -> None:
        """Simple, cascade, internal, AND, OR and functional rules, both
        sources churned with deletions on."""
        articulation = generate_transport_articulation()
        _assert_rule_terms_covered(articulation)
        kept = rebuilt = 0
        for maintenance, engine in _campaign(
            articulation, seed=seed, batches=12, mutations=4, delete_weight=0.3
        ):
            if maintenance.required_work:
                rebuilt += maintenance.replayed_rules > 0
                kept += maintenance.replayed_rules == 0
            _assert_matches_generation(articulation)
            _assert_rule_terms_covered(articulation)
            _assert_matches_fresh_engine(engine, articulation)
        # both repair paths ran: reconstruction and keeping
        assert kept and rebuilt

    @pytest.mark.parametrize("seed", range(2))
    def test_truth_rule_world_keeps_the_articulation(self, seed: int) -> None:
        """Truth rules and no deletions: every affecting change keeps
        the articulation object, its graph and its bridge set."""
        articulation = _truth_articulation()
        ontology = articulation.ontology
        stamp = articulation.bridges.stamp
        _assert_rule_terms_covered(articulation)
        affecting = 0
        for maintenance, engine in _campaign(
            articulation, seed=seed, batches=8, mutations=6, delete_weight=0.0
        ):
            affecting += maintenance.required_work
            assert maintenance.replayed_rules == 0
            assert articulation.ontology is ontology
            assert articulation.bridges.stamp == stamp
            _assert_matches_generation(articulation)
            _assert_rule_terms_covered(articulation)
            _assert_matches_fresh_engine(engine, articulation)
        assert affecting > 0


class TestRefreshFromJournal:
    def test_small_edit_replays_the_journal(self, monkeypatch) -> None:
        articulation = generate_transport_articulation()
        engine = OntologyInferenceEngine.from_articulation(articulation)
        engine.fact_count()
        carrier = articulation.sources["carrier"]
        carrier.ensure_term("Tricycle")
        carrier.add_subclass("Tricycle", "Cars")
        carrier.graph.remove_edge(
            carrier.graph.out_edges("Car", "drivenBy")[0]
        )

        def walk(ontology):  # pragma: no cover - must not run
            raise AssertionError("graph re-walked instead of replayed")

        monkeypatch.setattr(Ontology, "qualified_graph", walk)
        refresh = engine.refresh_from_articulation(articulation)
        monkeypatch.undo()
        assert refresh["extracted"] == ["carrier"]
        assert refresh["mode"] == "retract"
        _assert_matches_fresh_engine(engine, articulation)

    def test_journal_overrun_rewalks_the_part(self, monkeypatch) -> None:
        articulation = generate_transport_articulation()
        engine = OntologyInferenceEngine.from_articulation(articulation)
        engine.fact_count()
        carrier = articulation.sources["carrier"]
        version = carrier.graph.version
        for index in range(150):
            carrier.ensure_term(f"Extra{index}")
            carrier.add_subclass(f"Extra{index}", "Cars")
        carrier.remove_term("SUV")
        assert carrier.graph.journal_since(version) is None
        calls: list[str] = []
        walk = Ontology.qualified_graph

        def recording(ontology):
            calls.append(ontology.name)
            return walk(ontology)

        monkeypatch.setattr(Ontology, "qualified_graph", recording)
        refresh = engine.refresh_from_articulation(articulation)
        monkeypatch.undo()
        assert calls == ["carrier"]
        assert refresh["extracted"] == ["carrier"]
        _assert_matches_fresh_engine(engine, articulation)

    def test_failed_batch_rebuilds_on_next_refresh(self) -> None:
        """A refresh whose batch fails has already moved its parts; the
        next refresh rebuilds from them instead of losing the delta."""
        articulation = generate_transport_articulation()
        engine = OntologyInferenceEngine(
            fault_plan=FaultPlan.scripted({"batch_crash": [0]})
        )
        engine.refresh_from_articulation(articulation)
        carrier = articulation.sources["carrier"]
        carrier.ensure_term("Tricycle")
        carrier.add_subclass("Tricycle", "Cars")
        with pytest.raises(FaultInjected):
            engine.refresh_from_articulation(articulation)
        assert engine.refresh_from_articulation(articulation)["mode"] == (
            "initial"
        )
        _assert_matches_fresh_engine(engine, articulation)

    def test_instance_alias_labels_share_one_atom(self) -> None:
        """``InstanceOf`` edges and edges labeled ``instance_of`` map to
        the same atom: removing one keeps the atom while the other
        remains."""
        articulation = generate_transport_articulation()
        engine = OntologyInferenceEngine.from_articulation(articulation)
        carrier = articulation.sources["carrier"]
        carrier.relate("MyCar", "instance_of", "Cars")
        engine.refresh_from_articulation(articulation)
        carrier.graph.remove_edge(carrier.graph.out_edges("MyCar", "I")[0])
        engine.refresh_from_articulation(articulation)
        assert ("instance_of", "carrier:MyCar", "carrier:Cars") in (
            engine._program_facts
        )
        _assert_matches_fresh_engine(engine, articulation)

