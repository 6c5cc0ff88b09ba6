"""Thread-safety regressions for the shared hot-path caches the
serving tier hammers from concurrent request threads: the planner's
plan LRU, the per-graph MatchIndex cache, the articulation's memoized
unified graph, and the service itself under reads + churn."""

from __future__ import annotations

import threading

import pytest

from repro.core.articulation import Articulation
from repro.core.graph import LabeledGraph
from repro.core.patterns import MatchConfig, MatchIndex
from repro.query.ast import Query
from repro.query.planner import Planner
from repro.serving import ArticulationService, load_paper_workload
from repro.workloads.paper_example import generate_transport_articulation

THREADS = 8


def _hammer(worker, threads: int = THREADS) -> list[BaseException]:
    errors: list[BaseException] = []
    barrier = threading.Barrier(threads)

    def run(index: int) -> None:
        try:
            barrier.wait()
            worker(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(t,)) for t in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return errors


class TestPlannerCache:
    def test_concurrent_plan_calls_share_one_cache(self) -> None:
        planner = Planner(generate_transport_articulation())
        planner.cache_size = 4
        queries = [
            Query.over("transport:Vehicle", select=[attr])
            for attr in ("price", "model", "owner")
        ]

        def worker(index: int) -> None:
            for i in range(60):
                plan = planner.plan(queries[(index + i) % len(queries)])
                assert plan.pipelines
                if i % 25 == 0:
                    planner.cache_clear()

        assert _hammer(worker) == []
        info = planner.cache_info()
        assert info.hits + info.misses == THREADS * 60
        assert info.size <= 4

    def test_same_query_from_all_threads_mostly_hits(self) -> None:
        planner = Planner(generate_transport_articulation())
        query = Query.over("transport:Vehicle", select=["price"])

        def worker(index: int) -> None:
            for _ in range(50):
                planner.plan(query)

        assert _hammer(worker) == []
        info = planner.cache_info()
        # A concurrent double-build is tolerated, a per-call rebuild is
        # not: misses must stay a sliver of the traffic.
        assert info.misses <= THREADS
        assert info.hits >= THREADS * 50 - info.misses


class TestMatchIndexCache:
    def test_for_graph_under_concurrent_mutation(self) -> None:
        graph = LabeledGraph()
        for i in range(20):
            graph.add_node(f"n{i}", label=f"Label{i}")
        config = MatchConfig(case_insensitive=True)
        lock = threading.Lock()
        counter = iter(range(10_000))

        def worker(index: int) -> None:
            for i in range(80):
                if index == 0 and i % 7 == 0:
                    with lock:
                        n = next(counter)
                    graph.add_node(f"extra{n}", label=f"Extra{n}")
                idx = MatchIndex.for_graph(graph, config)
                assert idx.graph is graph

        assert _hammer(worker) == []
        # The cache converged on one fresh entry for this config.
        final = MatchIndex.for_graph(graph, config)
        assert final.version == graph.version

    def test_distinct_configs_evict_within_limit(self) -> None:
        graph = LabeledGraph()
        graph.add_node("a", label="A")

        def worker(index: int) -> None:
            for i in range(40):
                config = MatchConfig(
                    case_insensitive=bool(i % 2),
                    synonyms={f"s{index}": (f"t{i % 12}",)},
                )
                MatchIndex.for_graph(graph, config)

        assert _hammer(worker) == []
        assert len(graph._match_indexes) <= MatchIndex._CACHE_LIMIT


class TestArticulationMemos:
    def test_unified_graph_built_once_across_threads(self) -> None:
        art = generate_transport_articulation()
        results: list[object] = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            graph = art.unified_graph()
            covered = art.covered_source_terms()
            with lock:
                results.append((graph, frozenset(covered)))

        assert _hammer(worker) == []
        graphs = {id(graph) for graph, _ in results}
        assert len(graphs) == 1, "threads must share ONE memoized graph"
        assert len({covered for _, covered in results}) == 1


class TestInferCacheKeying:
    def test_session_answer_cached_under_pinned_version_only(self) -> None:
        """Regression: a publication landing between a session infer's
        version-read and its cache insert must not file the pinned-
        snapshot (now stale) answer where a live read at the new
        version can hit it.  The fix keys session answers by the
        session's *pinned* engine_version, read from the session
        state itself."""
        service = ArticulationService()
        load_paper_workload(service)
        sid = service.create_session()["session"]
        payload = {
            "op": "generalizations",
            "term": "carrier:Car",
            "session": sid,
        }

        original = service._infer_against
        in_session_eval = threading.Event()
        publish_done = threading.Event()

        def interleaved(body, op, session):
            if session is not None:
                # pause the session evaluation mid-flight, exactly
                # between the cache-key mint and the cache insert
                in_session_eval.set()
                assert publish_done.wait(5), "writer never published"
            return original(body, op, session)

        service._infer_against = interleaved
        answers: dict[str, dict] = {}
        errors: list[BaseException] = []

        def session_reader() -> None:
            try:
                answers["session"] = service.infer(payload)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def writer() -> None:
            try:
                assert in_session_eval.wait(5), "session never started"
                service.apply_facts(
                    [("implies", "transport:Vehicle", "stress:Everything")],
                    [],
                )
                publish_done.set()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
                publish_done.set()

        threads = [
            threading.Thread(target=session_reader),
            threading.Thread(target=writer),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service._infer_against = original
        assert errors == []

        # the session answered from its pinned fixpoint...
        assert "stress:Everything" not in answers["session"]["terms"]
        # ...and that stale answer is NOT served to a live read at the
        # post-publication version
        live = service.infer({"op": "generalizations", "term": "carrier:Car"})
        assert "stress:Everything" in live["terms"]
        # while the session's own cache entry keeps its isolation
        again = service.infer(payload)
        assert again["cached"] is True
        assert again["terms"] == answers["session"]["terms"]

    def test_live_entry_not_served_to_sessions(self) -> None:
        """The reverse direction: live answers must never hit for a
        session pinned at an older fixpoint."""
        service = ArticulationService()
        load_paper_workload(service)
        sid = service.create_session()["session"]
        service.apply_facts(
            [("implies", "transport:Vehicle", "stress:Later")], []
        )
        live = service.infer({"op": "generalizations", "term": "carrier:Car"})
        assert "stress:Later" in live["terms"]
        pinned = service.infer(
            {"op": "generalizations", "term": "carrier:Car", "session": sid}
        )
        assert "stress:Later" not in pinned["terms"]


class TestServiceStress:
    def test_reads_survive_concurrent_churn(self) -> None:
        service = ArticulationService()
        load_paper_workload(service)
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader(index: int) -> None:
            try:
                while not stop.is_set():
                    if index % 2:
                        answer = service.infer(
                            {"op": "generalizations", "term": "carrier:Car"}
                        )
                        assert "transport:Vehicle" in answer["terms"]
                    else:
                        rows, meta = service.query(
                            "SELECT price FROM transport:Vehicle"
                        )
                        assert meta["rows"] == len(rows)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        readers = [
            threading.Thread(target=reader, args=(t,)) for t in range(6)
        ]
        for thread in readers:
            thread.start()
        try:
            for batch in range(6):
                service.churn(
                    "factory", mutations=3, seed=batch, delete_weight=0.0
                )
                service.apply_facts(
                    [("implies", f"s:Stress{batch}", "transport:Vehicle")], []
                )
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert errors == []
        assert service.stats()["counts"]["churn_batches"] == 6
