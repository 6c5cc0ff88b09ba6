"""Unit tests for the articulation generator — the paper's §4 semantics."""

from __future__ import annotations

import pytest

from repro.core.articulation import (
    Articulation,
    ArticulationGenerator,
    BridgeSet,
)
from repro.core.graph import Edge
from repro.core.ontology import Ontology
from repro.core.rules import ArticulationRuleSet, parse_rule, parse_rules
from repro.errors import ArticulationError, TermNotFoundError


def _triple(edge: Edge) -> tuple[str, str, str]:
    return (edge.source, edge.label, edge.target)


def bridges_as_triples(articulation: Articulation) -> set[tuple[str, str, str]]:
    return {(e.source, e.label, e.target) for e in articulation.bridges}


@pytest.fixture
def generator(carrier: Ontology, factory: Ontology) -> ArticulationGenerator:
    return ArticulationGenerator([carrier, factory], name="transport")


class TestConstruction:
    def test_duplicate_source_names_rejected(self, carrier: Ontology) -> None:
        with pytest.raises(ArticulationError):
            ArticulationGenerator([carrier, carrier.copy()])

    def test_articulation_name_collision_rejected(
        self, carrier: Ontology, factory: Ontology
    ) -> None:
        with pytest.raises(ArticulationError):
            ArticulationGenerator([carrier, factory], name="carrier")


class TestSimpleRule:
    """The paper's first worked example: carrier:Car => factory:Vehicle."""

    def test_consequence_copied_into_articulation(
        self, generator: ArticulationGenerator
    ) -> None:
        art = generator.generate(
            parse_rules("carrier:Car => factory:Vehicle")
        )
        assert art.ontology.has_term("Vehicle")

    def test_three_bridge_edges(self, generator: ArticulationGenerator) -> None:
        art = generator.generate(
            parse_rules("carrier:Car => factory:Vehicle")
        )
        assert bridges_as_triples(art) == {
            ("carrier:Car", "SIBridge", "transport:Vehicle"),
            ("factory:Vehicle", "SIBridge", "transport:Vehicle"),
            ("transport:Vehicle", "SIBridge", "factory:Vehicle"),
        }

    def test_unknown_source_term_raises(
        self, generator: ArticulationGenerator
    ) -> None:
        with pytest.raises(TermNotFoundError):
            generator.generate(parse_rules("carrier:Spaceship => factory:Vehicle"))

    def test_unknown_ontology_raises(
        self, generator: ArticulationGenerator
    ) -> None:
        with pytest.raises(ArticulationError):
            generator.generate(parse_rules("nowhere:X => factory:Vehicle"))


class TestCascadeRule:
    """carrier:Car => transport:PassengerCar => factory:Vehicle (§4.1)."""

    def test_intermediate_node_created(
        self, generator: ArticulationGenerator
    ) -> None:
        art = generator.generate(
            parse_rules(
                "carrier:Car => transport:PassengerCar => factory:Vehicle"
            )
        )
        assert art.ontology.has_term("PassengerCar")

    def test_two_directed_bridges_only(
        self, generator: ArticulationGenerator
    ) -> None:
        art = generator.generate(
            parse_rules(
                "carrier:Car => transport:PassengerCar => factory:Vehicle"
            )
        )
        assert bridges_as_triples(art) == {
            ("carrier:Car", "SIBridge", "transport:PassengerCar"),
            ("transport:PassengerCar", "SIBridge", "factory:Vehicle"),
        }


class TestInternalRule:
    """transport:Owner => transport:Person adds a SubclassOf edge (§4.1)."""

    def test_subclass_edge_inside_articulation(
        self, generator: ArticulationGenerator
    ) -> None:
        art = generator.generate(
            parse_rules("transport:Owner => transport:Person")
        )
        assert art.ontology.graph.has_edge("Owner", "S", "Person")
        assert art.bridges == set()

    def test_unqualified_terms_resolve_to_articulation(
        self, generator: ArticulationGenerator
    ) -> None:
        art = generator.generate(parse_rules("Owner => Person"))
        assert art.ontology.graph.has_edge("Owner", "S", "Person")


class TestConjunction:
    """(factory:CargoCarrier ^ factory:Vehicle) => carrier:Trucks (§4.1)."""

    RULE = (
        "(factory:CargoCarrier ^ factory:Vehicle) => carrier:Trucks "
        "AS CargoCarrierVehicle"
    )

    def test_synthesized_class(self, generator: ArticulationGenerator) -> None:
        art = generator.generate(parse_rules(self.RULE))
        assert art.ontology.has_term("CargoCarrierVehicle")

    def test_bridges_to_conjuncts_and_consequence(
        self, generator: ArticulationGenerator
    ) -> None:
        art = generator.generate(parse_rules(self.RULE))
        triples = bridges_as_triples(art)
        node = "transport:CargoCarrierVehicle"
        assert (node, "SIBridge", "factory:CargoCarrier") in triples
        assert (node, "SIBridge", "factory:Vehicle") in triples
        assert (node, "SIBridge", "carrier:Trucks") in triples

    def test_common_subclasses_bridged_in(
        self, generator: ArticulationGenerator
    ) -> None:
        """'all subclasses of Vehicle that are also subclasses of
        CargoCarrier, e.g., Truck, are made subclasses' — including the
        transitive common subclass Truck."""
        art = generator.generate(parse_rules(self.RULE))
        triples = bridges_as_triples(art)
        node = "transport:CargoCarrierVehicle"
        assert ("factory:GoodsVehicle", "SIBridge", node) in triples
        assert ("factory:Truck", "SIBridge", node) in triples

    def test_default_label_is_concatenation(
        self, generator: ArticulationGenerator
    ) -> None:
        art = generator.generate(
            parse_rules(
                "(factory:CargoCarrier ^ factory:Vehicle) => carrier:Trucks"
            )
        )
        assert art.ontology.has_term("CargoCarrierVehicle")

    def test_cross_ontology_conjunction_has_no_common_subclasses(
        self, generator: ArticulationGenerator
    ) -> None:
        art = generator.generate(
            parse_rules("(factory:Vehicle ^ carrier:Cars) => carrier:Trucks")
        )
        node = "transport:VehicleCars"
        incoming = {
            t for t in bridges_as_triples(art) if t[2] == node
        }
        assert incoming == set()  # only outgoing subclass bridges


class TestDisjunction:
    """factory:Vehicle => (carrier:Cars | carrier:Trucks) (§4.1)."""

    RULE = "factory:Vehicle => (carrier:Cars | carrier:Trucks)"

    def test_synthesized_class(self, generator: ArticulationGenerator) -> None:
        art = generator.generate(parse_rules(self.RULE))
        assert art.ontology.has_term("CarsTrucks")

    def test_everyone_bridges_into_the_disjunction(
        self, generator: ArticulationGenerator
    ) -> None:
        art = generator.generate(parse_rules(self.RULE))
        node = "transport:CarsTrucks"
        assert bridges_as_triples(art) == {
            ("carrier:Cars", "SIBridge", node),
            ("carrier:Trucks", "SIBridge", node),
            ("factory:Vehicle", "SIBridge", node),
        }


class TestFunctionalRules:
    def test_conversion_edge_and_registration(
        self, generator: ArticulationGenerator, rules: ArticulationRuleSet
    ) -> None:
        art = generator.generate(rules)
        triples = bridges_as_triples(art)
        assert (
            "carrier:PoundSterling",
            "PSToEuroFn()",
            "transport:Euro",
        ) in triples
        assert "PSToEuroFn()" in art.functions

    def test_inverse_edge_generated(
        self, generator: ArticulationGenerator, rules: ArticulationRuleSet
    ) -> None:
        art = generator.generate(rules)
        triples = bridges_as_triples(art)
        assert (
            "transport:Euro",
            "EuroToPSFn()",
            "carrier:PoundSterling",
        ) in triples
        inverse = art.functions["EuroToPSFn()"]
        assert inverse.apply(100.0) == pytest.approx(71.11)

    def test_conversion_between(self, transport: Articulation) -> None:
        rule = transport.conversion_between(
            "carrier:PoundSterling", "transport:Euro"
        )
        assert rule is not None
        assert rule.apply(71.11) == pytest.approx(100.0)

    def test_conversion_between_missing(self, transport: Articulation) -> None:
        assert (
            transport.conversion_between("carrier:Car", "transport:Vehicle")
            is None
        )


class TestIncrementalExtend:
    def test_extend_is_idempotent(
        self, generator: ArticulationGenerator
    ) -> None:
        art = generator.generate(parse_rules("carrier:Car => factory:Vehicle"))
        before = bridges_as_triples(art)
        applied = generator.extend(
            art, parse_rules("carrier:Car => factory:Vehicle")
        )
        assert applied == 0
        assert bridges_as_triples(art) == before

    def test_extend_adds_new_rules(
        self, generator: ArticulationGenerator
    ) -> None:
        art = generator.generate(parse_rules("carrier:Car => factory:Vehicle"))
        applied = generator.extend(art, parse_rules("Owner => Person"))
        assert applied == 1
        assert art.ontology.has_term("Owner")

    def test_cost_accumulates(self, generator: ArticulationGenerator) -> None:
        art = generator.generate(parse_rules("carrier:Car => factory:Vehicle"))
        cost_before = art.cost()
        generator.extend(art, parse_rules("Owner => Person"))
        assert art.cost() > cost_before

    def test_generated_mark_survives_extend_and_source_edits(
        self, generator: ArticulationGenerator
    ) -> None:
        """Generation marks the articulation as exactly rule-generated;
        extend and source edits keep the mark, edits made outside the
        generator void it."""
        art = generator.generate(parse_rules("carrier:Car => factory:Vehicle"))
        assert art.is_generated()
        generator.extend(art, parse_rules("carrier:Cars => transport:Fleet"))
        art.sources["carrier"].ensure_term("Scooter")
        assert art.is_generated()
        assert generator.inherit_structure(art, "carrier") > 0
        assert not art.is_generated()
        # once void, extend does not restore the mark
        generator.extend(art, parse_rules("Owner => Person"))
        assert not art.is_generated()


class TestArticulationQueries:
    def test_source_terms_implying(self, transport: Articulation) -> None:
        assert transport.source_terms_implying("Vehicle") == {
            "carrier:Car",
            "factory:Vehicle",
        }

    def test_articulation_terms_for(self, transport: Articulation) -> None:
        assert transport.articulation_terms_for("carrier:Car") == {
            "Vehicle",
            "PassengerCar",
        }

    def test_covered_source_terms(self, transport: Articulation) -> None:
        covered = transport.covered_source_terms()
        assert "carrier:Car" in covered
        assert "factory:Truck" in covered
        assert "carrier:SUV" not in covered  # untouched by any rule

    def test_unified_graph_union_semantics(
        self, transport: Articulation, carrier: Ontology, factory: Ontology
    ) -> None:
        unified = transport.unified_graph()
        expected_nodes = (
            carrier.term_count()
            + factory.term_count()
            + transport.ontology.term_count()
        )
        assert unified.node_count() == expected_nodes
        expected_edges = (
            carrier.graph.edge_count()
            + factory.graph.edge_count()
            + transport.ontology.graph.edge_count()
            + len(transport.bridges)
        )
        assert unified.edge_count() == expected_edges

    def test_dangling_bridges_after_source_change(
        self, transport: Articulation
    ) -> None:
        transport.sources["carrier"].remove_term("Car")
        dangling = transport.dangling_bridges()
        assert all("carrier:Car" in (e.source, e.target) for e in dangling)
        dropped = transport.drop_dangling_bridges()
        assert dropped == len(dangling) > 0
        assert transport.dangling_bridges() == []

    def test_unified_graph_skips_dangling_bridges(
        self, transport: Articulation
    ) -> None:
        transport.sources["carrier"].remove_term("Car")
        unified = transport.unified_graph()  # must not raise
        assert not unified.has_node("carrier:Car")


class TestStructureInheritance:
    def test_inherit_structure_copies_source_edges(
        self, carrier: Ontology, factory: Ontology
    ) -> None:
        generator = ArticulationGenerator([carrier, factory], name="transport")
        art = generator.generate(
            parse_rules(
                """
                carrier:Cars => factory:Vehicle
                carrier:Carrier => factory:Transportation
                """
            )
        )
        # carrier has Cars -S-> Carrier; the articulation copies of the
        # two concepts should inherit that edge.
        added = generator.inherit_structure(art, "carrier")
        assert added >= 1
        assert art.ontology.graph.has_edge("Vehicle", "S", "Transportation")

    def test_inherit_structure_transitive(
        self, carrier: Ontology, factory: Ontology
    ) -> None:
        generator = ArticulationGenerator([carrier, factory], name="transport")
        art = generator.generate(
            parse_rules(
                """
                carrier:Car => factory:Vehicle
                carrier:Transportation => factory:Transportation
                """
            )
        )
        added = generator.inherit_structure(art, "carrier", transitive=True)
        # Car -S-> ... -S-> Transportation is a path, not an edge; only
        # the transitive mode materializes it.
        assert art.ontology.graph.has_edge("Vehicle", "S", "Transportation")
        assert added >= 1

    def test_inherit_structure_unknown_source(
        self, carrier: Ontology, factory: Ontology
    ) -> None:
        generator = ArticulationGenerator([carrier, factory], name="transport")
        art = generator.generate(ArticulationRuleSet())
        with pytest.raises(ArticulationError):
            generator.inherit_structure(art, "nowhere")


class TestVersionStampCaching:
    """The version-stamped unified-graph / covered-term caches."""

    def test_unified_graph_cached_until_change(
        self, transport: Articulation
    ) -> None:
        first = transport.unified_graph()
        second = transport.unified_graph()
        assert second is first
        assert transport.cache_stats["unified_hits"] >= 1
        assert transport.cache_stats["unified_misses"] == 1

    def test_extend_invalidates_unified_cache(
        self, transport: Articulation
    ) -> None:
        before = transport.unified_graph()
        generator = ArticulationGenerator(
            transport.sources.values(), name=transport.name
        )
        extra = ArticulationRuleSet()
        extra.add(parse_rule("carrier:SUV => factory:Vehicle"))
        generator.extend(transport, extra)
        after = transport.unified_graph()
        assert after is not before
        assert after.has_edge(
            "carrier:SUV", "SIBridge", "transport:Vehicle"
        ) or after.edge_count() > before.edge_count()
        # and the new graph is itself cached
        assert transport.unified_graph() is after

    def test_source_mutation_invalidates_unified_cache(
        self, transport: Articulation
    ) -> None:
        before = transport.unified_graph()
        transport.sources["carrier"].ensure_term("Hovercraft")
        after = transport.unified_graph()
        assert after is not before
        assert after.has_node("carrier:Hovercraft")

    def test_drop_dangling_bridges_bumps_version(
        self, transport: Articulation
    ) -> None:
        transport.unified_graph()
        version = transport.version
        transport.sources["carrier"].remove_term("Car")
        dropped = transport.drop_dangling_bridges()
        assert dropped > 0
        assert transport.version > version
        assert not transport.unified_graph().has_node("carrier:Car")

    def test_covered_source_terms_cached(
        self, transport: Articulation
    ) -> None:
        first = transport.covered_source_terms()
        second = transport.covered_source_terms()
        assert second == first
        assert transport.cache_stats["covered_hits"] >= 1
        # The cache hands out copies: mutating one must not leak.
        second.add("carrier:Bogus")
        assert "carrier:Bogus" not in transport.covered_source_terms()

    def test_fingerprint_moves_with_each_layer(
        self, transport: Articulation
    ) -> None:
        fp0 = transport.fingerprint()
        transport.bump_version()
        fp1 = transport.fingerprint()
        assert fp1 != fp0
        transport.sources["factory"].ensure_term("Depot")
        fp2 = transport.fingerprint()
        assert fp2 != fp1
        transport.ontology.ensure_term("Extra")
        assert transport.fingerprint() != fp2

    def test_repeated_algebra_ops_share_cached_graph(
        self, transport: Articulation
    ) -> None:
        from repro.core.algebra import difference

        carrier = transport.sources["carrier"]
        factory = transport.sources["factory"]
        transport.cache_stats.clear()
        difference(carrier, factory, transport)
        difference(factory, carrier, transport)
        difference(carrier, factory, transport)
        assert transport.cache_stats.get("unified_misses", 0) == 1
        assert transport.cache_stats.get("unified_hits", 0) >= 2

    def test_equal_count_bridge_swap_invalidates_cache(
        self, transport: Articulation
    ) -> None:
        """Swapping one bridge for another (same count) must not serve
        a stale unified graph — the fingerprint hashes bridge content."""
        before = transport.unified_graph()
        old = next(iter(transport.bridges))
        new = Edge("carrier:SUV", "SIBridge", "transport:Vehicle")
        assert new not in transport.bridges
        transport.bridges.discard(old)
        transport.bridges.add(new)
        after = transport.unified_graph()
        assert after is not before
        assert after.has_edge(new.source, new.label, new.target)
        assert not after.has_edge(old.source, old.label, old.target)

    # Each edit swaps ``old`` out and/or ``new`` in through one
    # BridgeSet mutator (or by reassigning the field to a plain set).
    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda art, old, new: art.bridges.add(new), id="add"),
            pytest.param(
                lambda art, old, new: art.bridges.discard(old), id="discard"
            ),
            pytest.param(
                lambda art, old, new: art.bridges.remove(old), id="remove"
            ),
            pytest.param(lambda art, old, new: art.bridges.pop(), id="pop"),
            pytest.param(lambda art, old, new: art.bridges.clear(), id="clear"),
            pytest.param(
                lambda art, old, new: art.bridges.update([new]), id="update"
            ),
            pytest.param(
                lambda art, old, new: art.bridges.difference_update([old]),
                id="difference_update",
            ),
            pytest.param(
                lambda art, old, new: art.bridges.intersection_update(
                    set(art.bridges) - {old}
                ),
                id="intersection_update",
            ),
            pytest.param(
                lambda art, old, new: art.bridges.symmetric_difference_update(
                    {old, new}
                ),
                id="symmetric_difference_update",
            ),
            pytest.param(
                lambda art, old, new: art.bridges.__ior__({new}), id="ior"
            ),
            pytest.param(
                lambda art, old, new: art.bridges.__iand__(
                    set(art.bridges) - {old}
                ),
                id="iand",
            ),
            pytest.param(
                lambda art, old, new: art.bridges.__isub__({old}), id="isub"
            ),
            pytest.param(
                lambda art, old, new: art.bridges.__ixor__({old, new}),
                id="ixor",
            ),
            pytest.param(
                lambda art, old, new: setattr(
                    art, "bridges", (set(art.bridges) - {old}) | {new}
                ),
                id="reassign",
            ),
        ],
    )
    def test_bridge_edit_invalidates_cache(
        self, transport: Articulation, edit
    ) -> None:
        """Every in-place bridge mutator, and reassigning the field,
        moves the fingerprint: the unified graph is rebuilt with
        exactly the edited bridge set."""
        before = transport.unified_graph()
        fingerprint = transport.fingerprint()
        old = min(transport.bridges, key=_triple)
        new = Edge("carrier:SUV", "SIBridge", "transport:Vehicle")
        candidates = set(transport.bridges) | {new}
        edit(transport, old, new)
        assert isinstance(transport.bridges, BridgeSet)
        assert transport.fingerprint() != fingerprint
        after = transport.unified_graph()
        assert after is not before
        for edge in candidates:
            assert after.has_edge(edge.source, edge.label, edge.target) == (
                edge in transport.bridges
            )
        # the (possibly coerced) set keeps tracking later edits
        fingerprint = transport.fingerprint()
        transport.bridges.add(old)
        assert transport.fingerprint() != fingerprint

    def test_untouched_articulation_keeps_fingerprint(
        self, transport: Articulation
    ) -> None:
        """Reads never move the fingerprint, so the caches keyed on it
        keep hitting."""
        fingerprint = transport.fingerprint()
        graph = transport.unified_graph()
        transport.covered_source_terms()
        bridge = min(transport.bridges, key=_triple)
        assert bridge in transport.bridges
        transport.bridges_from(bridge.source)
        transport.bridges_to(bridge.target)
        union = transport.bridges | {Edge("a:X", "SIBridge", "b:Y")}
        assert len(union) == len(transport.bridges) + 1
        assert transport.bridges.copy() == transport.bridges
        assert transport.fingerprint() == fingerprint
        assert transport.fingerprint() == transport.fingerprint()
        transport.cache_stats.clear()
        assert transport.unified_graph() is graph
        transport.covered_source_terms()
        assert transport.cache_stats == {"unified_hits": 1, "covered_hits": 1}

    def test_bridge_set_copies_take_fresh_stamps(
        self, transport: Articulation
    ) -> None:
        import copy
        import pickle

        bridges = transport.bridges
        for clone in (
            copy.copy(bridges),
            copy.deepcopy(bridges),
            pickle.loads(pickle.dumps(bridges)),
        ):
            assert isinstance(clone, BridgeSet)
            assert clone == bridges
            assert clone.stamp != bridges.stamp
