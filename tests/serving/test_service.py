"""The service core: install, reads, caching, churn invalidation."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError, ServingError
from repro.formats import adjacency
from repro.serving import ArticulationService, load_paper_workload
from repro.workloads.paper_example import (
    carrier_ontology,
    factory_ontology,
)

RULES_TEXT = """
carrier:Car => factory:Vehicle
carrier:Car => transport:PassengerCar => factory:Vehicle
"""


@pytest.fixture
def service() -> ArticulationService:
    svc = ArticulationService()
    load_paper_workload(svc)
    return svc


class TestInstall:
    def test_paper_workload_installs(self, service) -> None:
        health = service.health()
        assert health["status"] == "ok"
        assert health["articulation"] == "transport"
        assert health["facts"] > 0

    def test_empty_service_rejects_reads(self) -> None:
        svc = ArticulationService()
        assert svc.health()["status"] == "empty"
        with pytest.raises(ServingError, match="no articulation"):
            svc.infer({"op": "generalizations", "term": "x"})
        with pytest.raises(ServingError, match="no articulation"):
            svc.query("SELECT price FROM transport:Vehicle")

    def test_register_and_articulate_from_texts(self) -> None:
        svc = ArticulationService()
        for onto in (carrier_ontology(), factory_ontology()):
            report = svc.register_ontology(onto.name, adjacency.dumps(onto))
            assert report["terms"] > 0
        result = svc.articulate(
            "transport", ["carrier", "factory"], RULES_TEXT
        )
        assert result["articulation"] == "transport"
        answer = svc.infer(
            {"op": "generalizations", "term": "carrier:Car"}
        )
        assert "factory:Vehicle" in answer["terms"]

    def test_articulate_unknown_source_rejected(self) -> None:
        svc = ArticulationService()
        with pytest.raises(ServingError, match="unregistered"):
            svc.articulate("a", ["missing"], "")


class TestInfer:
    def test_generalizations_match_engine(self, service) -> None:
        answer = service.infer(
            {"op": "generalizations", "term": "carrier:Car"}
        )
        assert answer["terms"] == sorted(
            service._inference.generalizations("carrier:Car")
        )

    def test_implies_true_false_and_reflexive(self, service) -> None:
        assert service.infer(
            {"op": "implies", "term": "carrier:Car", "general": "transport:Vehicle"}
        )["holds"]
        assert service.infer(
            {"op": "implies", "term": "carrier:Car", "general": "carrier:Car"}
        )["holds"]
        assert not service.infer(
            {"op": "implies", "term": "transport:Vehicle", "general": "carrier:Car"}
        )["holds"]

    def test_pattern_ground_and_open(self, service) -> None:
        ground = service.infer(
            {
                "op": "pattern",
                "atom": ["implies", "carrier:Car", "transport:Vehicle"],
            }
        )
        assert ground["holds"] is True
        open_ = service.infer(
            {"op": "pattern", "atom": ["implies", "?x", "transport:Vehicle"]}
        )
        assert {"?x": "carrier:Car"} in open_["bindings"]

    def test_unknown_op_rejected(self, service) -> None:
        with pytest.raises(ProtocolError, match="unknown op"):
            service.infer({"op": "foo"})


class TestResultCache:
    def test_infer_caches(self, service) -> None:
        first = service.infer({"op": "generalizations", "term": "carrier:Car"})
        second = service.infer({"op": "generalizations", "term": "carrier:Car"})
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["terms"] == second["terms"]

    def test_query_caches(self, service) -> None:
        _, meta1 = service.query("SELECT price FROM transport:Vehicle")
        rows, meta2 = service.query("SELECT price FROM transport:Vehicle")
        assert meta1["cached"] is False
        assert meta2["cached"] is True
        assert meta2["rows"] == len(rows)

    def test_churn_invalidates_results(self, service) -> None:
        service.query("SELECT price FROM transport:Vehicle")
        version = service.engine_version
        report = service.churn("carrier", mutations=3, seed=11)
        assert report["engine_version"] > version
        _, meta = service.query("SELECT price FROM transport:Vehicle")
        assert meta["cached"] is False  # new publication, fresh key

    def test_fact_diff_invalidates_infer(self, service) -> None:
        before = service.infer(
            {"op": "generalizations", "term": "carrier:SUV"}
        )
        service.apply_facts(
            [("implies", "carrier:SUV", "transport:Vehicle")], []
        )
        after = service.infer(
            {"op": "generalizations", "term": "carrier:SUV"}
        )
        assert after["cached"] is False
        assert "transport:Vehicle" in after["terms"]
        assert "transport:Vehicle" not in before["terms"]


class TestWriteValidation:
    def test_churn_unknown_source(self, service) -> None:
        with pytest.raises(ServingError, match="unknown source"):
            service.churn("nope", mutations=1)

    def test_churn_bad_mutation_count(self, service) -> None:
        with pytest.raises(ServingError, match="mutations"):
            service.churn("carrier", mutations=0)

    def test_apply_facts_requires_ground_atoms(self, service) -> None:
        with pytest.raises(ProtocolError, match="ground"):
            service.apply_facts([("implies", "?x", "b")], [])

    def test_apply_facts_retract(self, service) -> None:
        service.apply_facts([("implies", "aa:X", "aa:Y")], [])
        assert service.infer(
            {"op": "pattern", "atom": ["implies", "aa:X", "aa:Y"]}
        )["holds"]
        service.apply_facts([], [("implies", "aa:X", "aa:Y")])
        assert not service.infer(
            {"op": "pattern", "atom": ["implies", "aa:X", "aa:Y"]}
        )["holds"]

    def test_add_instances(self, service) -> None:
        rows_before, _ = service.query("SELECT price FROM carrier:Cars")
        report = service.add_instances(
            "carrier",
            [{"id": "NewCar9", "cls": "Car", "values": {"price": 4100}}],
        )
        assert report["added"] == 1
        rows_after, meta = service.query("SELECT price FROM carrier:Cars")
        assert meta["cached"] is False
        assert len(rows_after) == len(rows_before) + 1

    def test_add_instances_unknown_source(self, service) -> None:
        with pytest.raises(ServingError, match="no instance store"):
            service.add_instances("nope", [])


class TestStats:
    def test_stats_shape(self, service) -> None:
        service.query("SELECT price FROM transport:Vehicle")
        service.infer({"op": "generalizations", "term": "carrier:Car"})
        stats = service.stats()
        assert stats["counts"]["queries"] == 1
        assert stats["counts"]["infers"] == 1
        assert stats["cache"]["misses"] >= 2
        assert "plan_cache" not in stats  # the result cache is the only one
        assert stats["sessions"]["active"] == 0

    def test_refresh_noop_keeps_version(self, service) -> None:
        version = service.engine_version
        report = service.refresh()
        assert report["refresh"]["mode"] == "noop"
        assert service.engine_version == version
