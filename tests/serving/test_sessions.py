"""Session snapshot isolation: the old closure survives concurrent
churn until the session explicitly refreshes."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ServingError
from repro.inference.horn import FactStore, query_store
from repro.serving import ArticulationService, load_paper_workload
from repro.serving.session import SessionManager


@pytest.fixture
def storage() -> str:
    """The engine storage; ``TestPagedIsolation`` overrides it."""
    return "memory"


@pytest.fixture
def service(storage: str) -> ArticulationService:
    svc = ArticulationService(storage=storage)
    load_paper_workload(svc)
    return svc


def _session_terms(service: ArticulationService, sid: str, term: str):
    return service.infer(
        {"op": "generalizations", "term": term, "session": sid}
    )["terms"]


class TestIsolation:
    def test_session_pins_old_closure_across_fact_diff(self, service) -> None:
        sid = service.create_session()["session"]
        before = _session_terms(service, sid, "carrier:SUV")
        service.apply_facts(
            [("implies", "carrier:SUV", "factory:Vehicle")], []
        )
        # live engine sees the new implication...
        live = service.infer(
            {"op": "generalizations", "term": "carrier:SUV"}
        )["terms"]
        assert "factory:Vehicle" in live
        # ...the session still answers the frozen fixpoint
        assert _session_terms(service, sid, "carrier:SUV") == before
        assert "factory:Vehicle" not in before
        # explicit refresh re-pins onto the published state
        service.refresh_session(sid)
        assert "factory:Vehicle" in _session_terms(service, sid, "carrier:SUV")

    def test_session_pins_across_churn_batches(self, service) -> None:
        sid = service.create_session()["session"]
        baseline = _session_terms(service, sid, "carrier:Car")
        for batch in range(4):
            service.churn("carrier", mutations=4, seed=100 + batch)
            assert _session_terms(service, sid, "carrier:Car") == baseline

    def test_concurrent_session_reads_during_writes(self, service) -> None:
        """Readers hammer a session while a writer churns; every answer
        must equal the pinned baseline (the acceptance invariant)."""
        sid = service.create_session()["session"]
        baseline = _session_terms(service, sid, "carrier:Car")
        violations: list[tuple] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                answer = _session_terms(service, sid, "carrier:Car")
                if answer != baseline:
                    violations.append((baseline, answer))

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for batch in range(5):
                service.apply_facts(
                    [("implies", f"t:New{batch}", "transport:Vehicle")], []
                )
                service.churn("factory", mutations=3, seed=500 + batch)
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert violations == []

    def test_detach_counted_only_when_pinned(self, service) -> None:
        service.apply_facts([("implies", "x:A", "x:B")], [])
        assert service.stats()["counts"]["detaches"] == 0
        sid = service.create_session()["session"]
        session = service.sessions.get(sid)
        published = service._horn().store
        # the session pins the published store object itself
        assert session.store is published
        service.apply_facts([("implies", "x:B", "x:C")], [])
        assert service.stats()["counts"]["detaches"] == 1
        live = service._horn().store
        assert session.store is published  # still the frozen snapshot
        assert live is not published  # the engine moved onto a copy
        assert not service.sessions.pins(live)

    def test_reinstall_replaces_engine_without_detach(self, service) -> None:
        """Installing replaces the pinned engine rather than mutating
        it, so there is nothing to copy."""
        sid = service.create_session()["session"]
        baseline = _session_terms(service, sid, "carrier:SUV")
        load_paper_workload(service)
        service.apply_facts(
            [("implies", "carrier:SUV", "factory:Vehicle")], []
        )
        assert service.stats()["counts"]["detaches"] == 0
        assert "factory:Vehicle" in service.infer(
            {"op": "generalizations", "term": "carrier:SUV"}
        )["terms"]
        assert _session_terms(service, sid, "carrier:SUV") == baseline

    def test_noop_refresh_skips_detach(self, service) -> None:
        sid = service.create_session()["session"]
        baseline = _session_terms(service, sid, "carrier:Car")
        assert service.refresh()["refresh"]["mode"] == "noop"
        assert service.stats()["counts"]["detaches"] == 0
        assert _session_terms(service, sid, "carrier:Car") == baseline
        # a refresh that does move the engine still detaches first
        service._articulation.sources["carrier"].add_subclass(
            "Car", "SUV"
        )
        assert service.refresh()["refresh"]["mode"] != "noop"
        assert service.stats()["counts"]["detaches"] == 1
        assert "carrier:SUV" in service.infer(
            {"op": "generalizations", "term": "carrier:Car"}
        )["terms"]
        assert _session_terms(service, sid, "carrier:Car") == baseline


@pytest.mark.parametrize("storage", ["paged"])
class TestPagedIsolation(TestIsolation):
    """The isolation suite again, over sessions pinning paged stores:
    every detach is a page-level SQLite copy."""


class TestSessionLifecycle:
    def test_unknown_session_rejected(self, service) -> None:
        with pytest.raises(ServingError, match="unknown session"):
            service.refresh_session("deadbeef")
        with pytest.raises(ServingError, match="unknown session"):
            service.infer(
                {"op": "generalizations", "term": "x", "session": "deadbeef"}
            )

    def test_close_session(self, service) -> None:
        sid = service.create_session()["session"]
        assert service.close_session(sid)["closed"] is True
        assert service.close_session(sid)["closed"] is False

    def test_session_limit_evicts_oldest(self) -> None:
        manager = SessionManager(limit=2)
        store = FactStore()
        first = manager.create(store, 1)
        second = manager.create(store, 1)
        third = manager.create(store, 1)
        assert manager.stats()["evicted"] == 1
        with pytest.raises(ServingError):
            manager.get(first.session_id)
        assert manager.get(second.session_id) is second
        assert manager.get(third.session_id) is third

    def test_snapshot_query_probe_selection(self) -> None:
        store = FactStore()
        store.add(("p", "a", "b"))
        store.add(("p", "a", "c"))
        store.add(("p", "x", "b"))
        assert query_store(store, ("p", "a", "?y")) == [
            {"?y": "b"},
            {"?y": "c"},
        ] or sorted(
            b["?y"] for b in query_store(store, ("p", "a", "?y"))
        ) == ["b", "c"]
        assert len(query_store(store, ("p", "?x", "?y"))) == 3
        assert query_store(store, ("q", "?x", "?y")) == []
