"""The expert loop's saturated engine becomes the served engine.

``articulate_with_expert`` leaves its inference engine on the
articulation; ``ArticulationService.install`` adopts it when it would
build the same engine (memory storage, no journal on either side), so
an expert session followed by an install saturates once.  Every other
install builds its own engine, and no two services ever share one.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core.articulation import ArticulationGenerator
from repro.core.rules import ArticulationRuleSet, parse_rule
from repro.inference.engine import IMPLIES, OntologyInferenceEngine
from repro.lexicon.expert import GroundTruthPolicy
from repro.lexicon.skat import SkatEngine, articulate_with_expert
from repro.serving import ArticulationService
from repro.workloads.generator import WorkloadConfig, generate_workload

TERMS = 350  # the end-to-end benchmark's articulate size


def expert_session(terms: int = TERMS):
    workload = generate_workload(
        WorkloadConfig(
            universe_size=3 * terms,
            terms_per_source=terms,
            overlap=0.4,
            seed=1,
        )
    )
    o1, o2 = workload.sources
    articulation, _ = articulate_with_expert(
        o1,
        o2,
        GroundTruthPolicy.from_rules(workload.truth_rules(0, 1)),
        skat=SkatEngine.default(workload.lexicon(noise=0.2, seed=1)),
        name="art",
    )
    return articulation


def implies_closure(engine) -> set:
    return set(engine.engine.iter_facts(IMPLIES))


def assert_serves_fresh_closure(service, articulation) -> None:
    fresh = OntologyInferenceEngine.from_articulation(articulation)
    assert implies_closure(service._inference) == implies_closure(fresh)
    assert service._inference.fact_count() == fresh.fact_count()


@pytest.fixture(scope="module")
def session_articulation():
    """One expert session, installed once into a memory service."""
    articulation = expert_session()
    loop_engine = articulation._engine
    service = ArticulationService()
    report = service.install(articulation, stores={})
    return articulation, loop_engine, service, report


class TestAdopt:
    def test_loop_leaves_its_engine_on_the_articulation(self) -> None:
        articulation = expert_session(60)
        assert isinstance(articulation._engine, OntologyInferenceEngine)
        assert articulation._engine.is_current(articulation)

    def test_install_serves_the_loop_engine(
        self, session_articulation
    ) -> None:
        articulation, loop_engine, service, report = session_articulation
        assert report["refresh"]["mode"] == "noop"
        assert service._inference is loop_engine
        assert articulation._engine is None

    def test_adopted_closure_equals_a_fresh_build(
        self, session_articulation
    ) -> None:
        articulation, _, service, _ = session_articulation
        assert_serves_fresh_closure(service, articulation)
        term = sorted(articulation.sources["src0"].terms())[0]
        answer = service.infer({"op": "generalizations", "term": f"src0:{term}"})
        expected = OntologyInferenceEngine.from_articulation(
            articulation
        ).generalizations(f"src0:{term}")
        assert answer["terms"] == sorted(expected)

    def test_extended_articulation_refreshes_incrementally(self) -> None:
        articulation = expert_session()
        loop_engine = articulation._engine
        src0, src1 = (articulation.sources[n] for n in ("src0", "src1"))
        rule = parse_rule(
            f"src0:{sorted(src0.terms())[0]} => src1:{sorted(src1.terms())[-1]}"
        )
        assert rule not in articulation.rules
        generator = ArticulationGenerator([src0, src1], name="art")
        assert generator.extend(articulation, ArticulationRuleSet([rule])) == 1

        service = ArticulationService()
        report = service.install(articulation, stores={})
        assert report["refresh"]["mode"] == "incremental"
        assert service._inference is loop_engine
        assert_serves_fresh_closure(service, articulation)

    def test_source_edit_refreshes_incrementally(self) -> None:
        articulation = expert_session()
        loop_engine = articulation._engine
        src0 = articulation.sources["src0"]
        parent = sorted(src0.terms())[0]
        src0.add_term("HandoffProbe")
        src0.add_subclass("HandoffProbe", parent)

        service = ArticulationService()
        report = service.install(articulation, stores={})
        assert report["refresh"]["mode"] == "incremental"
        assert service._inference is loop_engine
        assert_serves_fresh_closure(service, articulation)
        assert service.infer(
            {
                "op": "implies",
                "term": "src0:HandoffProbe",
                "general": f"src0:{parent}",
            }
        )["holds"]


class TestBuildOwn:
    @pytest.mark.parametrize("kind", ["paged", "journaled"])
    def test_other_services_build_their_own_engine(
        self, kind: str, tmp_path
    ) -> None:
        articulation = expert_session()
        loop_engine = articulation._engine
        if kind == "paged":
            service = ArticulationService(storage="paged")
        else:
            service = ArticulationService(
                journal_path=str(tmp_path / "serve.journal")
            )
        report = service.install(articulation, stores={})
        assert report["refresh"]["mode"] == "initial"
        assert service._inference is not loop_engine
        assert articulation._engine is None
        assert_serves_fresh_closure(service, articulation)

    def test_second_install_builds_its_own_engine(
        self, session_articulation
    ) -> None:
        articulation, loop_engine, first, _ = session_articulation
        second = ArticulationService()
        report = second.install(articulation, stores={})
        assert report["refresh"]["mode"] == "initial"
        assert second._inference is not first._inference
        assert first._inference is loop_engine
        assert articulation._engine is None
        assert_serves_fresh_closure(second, articulation)


class TestNotPartOfTheValue:
    def test_copies_and_pickles_carry_no_engine(self) -> None:
        articulation = expert_session(60)
        assert articulation._engine is not None
        for clone in (
            copy.copy(articulation),
            copy.deepcopy(articulation),
            pickle.loads(pickle.dumps(articulation)),
        ):
            assert clone._engine is None
            assert clone.take_engine() is None
        assert articulation._engine is not None

    def test_equality_ignores_the_engine(self) -> None:
        """Equality is identity, so it never reads the engine: a copy
        is not ``==`` its original, and ``repr`` leaves the engine
        out."""
        articulation = expert_session(60)
        clone = copy.copy(articulation)
        assert clone._engine is None and articulation._engine is not None
        assert clone != articulation
        assert articulation == articulation
        assert "engine" not in repr(articulation).lower()
