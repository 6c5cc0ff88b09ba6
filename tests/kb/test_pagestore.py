"""The out-of-core fact store: FactStore-contract parity, the buffer
pool, bulk ETL ingest, and the storage={memory,paged} x
buffer_facts={1,2} churn-script parity matrix (DRed retraction and
apply_batch crossover included)."""

from __future__ import annotations

import os
import sqlite3
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings

from repro.core.rules import HornClause
from repro.inference.horn import FactStore, HornEngine
from repro.kb.ingest import ingest_facts, iter_fact_file
from repro.kb.pagestore import PagedFactStore
from tests.support.churn_scripts import (
    CLAUSE_POOL,
    churn_scripts,
    oracle_states,
    replay_incremental,
)

TRANS = HornClause(
    ("S", "?x", "?z"), (("S", "?x", "?y"), ("S", "?y", "?z"))
)


@pytest.fixture
def store():
    paged = PagedFactStore(":memory:", buffer_facts=256)
    yield paged
    paged.close()


def _chain(n: int, pred: str = "S") -> list[tuple[str, str, str]]:
    return [(pred, f"n{i}", f"n{i + 1}") for i in range(n)]


class TestFactStoreContract:
    """Same observable behavior as the in-memory store, operation by
    operation — the duck-typing contract the engine relies on."""

    def test_add_contains_remove_roundtrip(self, store) -> None:
        atom = ("S", "a", "b")
        assert store.add(atom) is True
        assert store.add(atom) is False  # duplicate
        assert atom in store
        assert len(store) == 1
        assert store.remove(atom) is True
        assert store.remove(atom) is False
        assert atom not in store
        assert len(store) == 0

    def test_mirrors_in_memory_store_over_mixed_ops(self, store) -> None:
        memory = FactStore()
        ops = _chain(12) + [("T", "x", "y"), ("S", "n3", "n4")]
        for atom in ops:
            assert store.add(atom) == memory.add(atom)
        for atom in [("S", "n0", "n1"), ("T", "x", "y"), ("Z", "q", "r")]:
            assert store.remove(atom) == memory.remove(atom)
        assert set(store.iter_facts()) == set(memory.iter_facts())
        assert len(store) == len(memory)
        assert store.predicates() == memory.predicates()
        for pred in ("S", "T", "Z"):
            assert store.pool_size(pred) == memory.pool_size(pred)
            assert set(store.pool(pred)) == set(memory.pool(pred))
        for pos in (1, 2):
            for value in ("n3", "n4", "x", "nope"):
                assert set(store.probe("S", pos, value)) == set(
                    memory.probe("S", pos, value)
                )
                assert store.probe_size("S", pos, value) == memory.probe_size(
                    "S", pos, value
                )

    def test_probe_snapshot_survives_concurrent_add(self, store) -> None:
        for atom in _chain(10):
            store.add(atom)
        probe = store.probe("S", 1, "n3")
        store.add(("S", "n3", "zz"))  # patches the cached bucket
        assert list(probe) == [("S", "n3", "n4")]  # iterator unaffected
        assert set(store.probe("S", 1, "n3")) == {
            ("S", "n3", "n4"),
            ("S", "n3", "zz"),
        }

    def test_persistence_across_reopen(self, tmp_path) -> None:
        path = tmp_path / "facts.sqlite"
        first = PagedFactStore(path)
        for atom in _chain(8):
            first.add(atom)
        first.close()
        second = PagedFactStore(path)
        try:
            assert len(second) == 8
            assert ("S", "n2", "n3") in second
            assert second.pool_size("S") == 8
        finally:
            second.close()

    def test_close_removes_owned_temp_file(self) -> None:
        import os

        paged = PagedFactStore()  # temp-file flavor
        paged.add(("S", "a", "b"))
        path = paged.path
        assert os.path.exists(path)
        paged.close()
        assert not os.path.exists(path)
        with pytest.raises(sqlite3.ProgrammingError):
            paged._conn.execute("SELECT 1")

    def test_failed_copy_removes_its_temp_file(
        self, tmp_path, monkeypatch
    ) -> None:
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        paged = PagedFactStore(":memory:")
        paged.add(("S", "a", "b"))
        paged.flush()
        paged._conn.close()  # the backup step now raises
        with pytest.raises(sqlite3.ProgrammingError) as raised:
            paged.copy()
        # ``raised`` keeps the traceback, and with it the half-built
        # copy, alive: its files must be gone anyway, not left for
        # garbage collection
        assert raised.type is sqlite3.ProgrammingError
        assert list(tmp_path.iterdir()) == []

    def test_copy_under_concurrent_readers(self) -> None:
        """Sessions keep scanning the pinned store while the writer
        copies it (COMMIT plus backup on the shared connection): every
        scan stays complete and every copy equals the source."""
        source = PagedFactStore(":memory:", buffer_facts=64, commit_every=10**6)
        pools = {
            "S": set(_chain(300)),
            "T": {("T", f"x{i}", "y") for i in range(300)},
        }
        for pool in pools.values():
            for atom in pool:
                source.add(atom)
        errors: list[str] = []
        stop = threading.Event()

        def reader() -> None:
            try:
                while not stop.is_set():
                    if set(source.pool("S")) != pools["S"]:
                        errors.append("incomplete pool scan")
                    if set(source.probe("T", 2, "y")) != pools["T"]:
                        errors.append("incomplete probe")
            except Exception as exc:  # surfaced by the assert below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for round_ in range(10):
                # reopen the group-commit transaction without touching
                # the pools the readers check
                source.add(("U", "tick", str(round_)))
                copy = source.copy()
                try:
                    assert set(copy.iter_facts()) == set(source.iter_facts())
                finally:
                    copy.close()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
            source.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestBufferPool:
    def test_capacity_is_enforced_in_facts(self) -> None:
        paged = PagedFactStore(":memory:", buffer_facts=32)
        try:
            # 16 distinct buckets of 4 facts each = 64 cached facts max
            for b in range(16):
                for i in range(4):
                    paged.add(("P", f"k{b}", f"v{b}_{i}"))
            for b in range(16):
                list(paged.probe("P", 1, f"k{b}"))
            stats = paged.buffer_stats()
            assert stats["buffered_facts"] <= 32
            assert stats["evictions"] > 0
        finally:
            paged.close()

    def test_hot_bucket_hits_and_oversize_streams(self) -> None:
        paged = PagedFactStore(":memory:", buffer_facts=64)
        try:
            for i in range(100):
                paged.add(("P", "hot", f"v{i}"))  # one bucket of 100 > 32
            paged.add(("P", "cold", "w"))
            list(paged.probe("P", 1, "hot"))
            list(paged.probe("P", 1, "hot"))
            stats = paged.buffer_stats()
            assert stats["oversize"] >= 2  # too big to pin, streamed
            list(paged.probe("P", 1, "cold"))
            list(paged.probe("P", 1, "cold"))
            assert paged.buffer_stats()["hits"] >= 1
            assert 0.0 <= paged.buffer_stats()["hit_rate"] <= 1.0
        finally:
            paged.close()

    def test_cached_buckets_patched_by_add_and_remove(self) -> None:
        paged = PagedFactStore(":memory:", buffer_facts=256)
        try:
            paged.add(("S", "a", "b"))
            assert set(paged.probe("S", 1, "a")) == {("S", "a", "b")}
            paged.add(("S", "a", "c"))
            paged.remove(("S", "a", "b"))
            assert set(paged.probe("S", 1, "a")) == {("S", "a", "c")}
            assert paged.probe_size("S", 1, "a") == 1
        finally:
            paged.close()


class TestBulkLoad:
    def test_dedupes_within_batch_and_against_existing(self, store) -> None:
        store.add(("P", "pre", "existing"))
        report = store.bulk_load(
            [("P", "a", "b"), ("P", "a", "b"), ("P", "pre", "existing")],
            batch_size=2,
        )
        assert report["staged"] == 3
        assert report["added"] == 1
        assert report["deduplicated"] == 2
        assert len(store) == 2

    def test_cold_load_rebuilds_indexes_post_load(self, tmp_path) -> None:
        path = tmp_path / "facts.sqlite"
        paged = PagedFactStore(path)
        try:
            report = paged.bulk_load(_chain(1000), batch_size=128)
            assert report["reindexed"] == 1
            assert report["batches"] == 8
            # the covering index exists and answers probes
            assert set(paged.probe("S", 1, "n500")) == {("S", "n500", "n501")}
            names = {
                row[0]
                for row in paged._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index'"
                )
            }
            assert "idx_args_cover" in names
        finally:
            paged.close()

    def test_loaded_base_saturates_identically(self, tmp_path) -> None:
        """ingest-then-saturate equals add_facts-then-saturate."""
        path = tmp_path / "facts.sqlite"
        ingest_facts(path, _chain(40))
        paged_engine = HornEngine(storage="paged", storage_path=str(path))
        for atom in list(paged_engine.store.iter_facts()):
            paged_engine.add_fact(atom)  # register as base facts
        paged_engine.add_clause(TRANS)
        paged_engine.saturate()
        oracle = HornEngine()
        oracle.add_clause(TRANS)
        oracle.add_facts(_chain(40))
        oracle.saturate()
        assert paged_engine.facts() == oracle.facts()


class TestIngestFile:
    def test_jsonl_and_tsv_roundtrip(self, tmp_path) -> None:
        jsonl = tmp_path / "facts.jsonl"
        jsonl.write_text(
            '["S", "a", "b"]\n\n# comment\n["S", "b", "c"]\n',
            encoding="utf-8",
        )
        tsv = tmp_path / "facts.tsv"
        tsv.write_text("S\ta\tb\nS\tb\tc\n", encoding="utf-8")
        assert list(iter_fact_file(jsonl)) == list(iter_fact_file(tsv))

    def test_ingest_journal_snapshot_recovers(self, tmp_path) -> None:
        from repro.reliability.journal import ChurnJournal

        db = tmp_path / "facts.sqlite"
        journal_path = tmp_path / "journal.jsonl"
        report = ingest_facts(
            db, _chain(25), journal_path=journal_path
        )
        assert report["journaled"] == 25
        recovered, rec_report = ChurnJournal(journal_path).recover()
        assert rec_report["facts"] == 25
        assert recovered.base_facts() == set(_chain(25))

    def test_bad_jsonl_line_reports_location(self, tmp_path) -> None:
        from repro.errors import KnowledgeBaseError

        bad = tmp_path / "facts.jsonl"
        bad.write_text('["S", "a", "b"]\n["S", 42]\n', encoding="utf-8")
        with pytest.raises(KnowledgeBaseError, match="facts.jsonl:2"):
            list(iter_fact_file(bad))


class TestChurnParityMatrix:
    """The tentpole's equivalence claim: the paged store is
    observationally identical to the in-memory store under every
    churn path the engine has — delta additions, DRed retractions,
    clause churn."""

    @pytest.mark.parametrize("buffer_facts", [1, 2])
    @settings(max_examples=30, deadline=None)
    @given(script=churn_scripts())
    def test_paged_matches_memory_and_oracle(
        self, buffer_facts, script
    ) -> None:
        """A one- or two-fact buffer pool caches almost nothing, so
        every index probe and every eviction goes through SQLite."""
        expected = oracle_states(script, saturate_every=3)
        _, memory_states = replay_incremental(
            script, saturate_every=3, storage="memory"
        )
        engine, paged_states = replay_incremental(
            script,
            saturate_every=3,
            storage="paged",
            buffer_facts=buffer_facts,
        )
        assert memory_states == expected
        assert paged_states == expected
        stats = engine.store.buffer_stats()
        assert stats["buffer_facts"] == buffer_facts
        assert stats["buffered_facts"] <= buffer_facts
        engine.store.close()

    @settings(max_examples=15, deadline=None)
    @given(script=churn_scripts(max_ops=10))
    def test_apply_batch_crossover_parity_on_paged(self, script) -> None:
        """Batch the script's fact diffs through apply_batch on a
        paged engine, forcing both sides of the rebuild crossover."""
        for crossover in (0, 10_000):  # always-rebuild / always-DRed
            oracle = oracle_states(script, saturate_every=len(script) or 1)
            engine = HornEngine(storage="paged", storage_path=":memory:")
            engine.rebuild_crossover = crossover
            adds: dict = {}
            for op in script:
                if op.kind in ("add_fact", "retract_fact"):
                    adds[op.fact] = op.kind
                elif op.kind == "add_clause":
                    engine.add_clause(CLAUSE_POOL[op.clause_index])
                else:
                    engine.retract_clause(CLAUSE_POOL[op.clause_index])
            engine.apply_batch(
                [f for f, k in adds.items() if k == "add_fact"],
                [f for f, k in adds.items() if k == "retract_fact"],
            )
            assert engine.facts() == oracle[-1]
            engine.store.close()

    def test_dred_retraction_parity_on_paged(self) -> None:
        """A deep retraction through a transitive closure exercises
        the DRed overdelete/rederive pass against the paged indexes."""
        engines = {}
        for storage in ("memory", "paged"):
            engine = HornEngine(
                storage=storage,
                storage_path=":memory:" if storage == "paged" else None,
            )
            engine.add_clause(TRANS)
            engine.add_facts(_chain(20))
            engine.saturate()
            engine.retract_fact(("S", "n10", "n11"))  # split the chain
            engines[storage] = engine.facts()
        assert engines["paged"] == engines["memory"]

    def test_detach_store_returns_frozen_paged_snapshot(self, tmp_path) -> None:
        """The engine moves onto ``store.copy()``: a page-level backup
        into a private temp file that answers every accessor like the
        source — including facts still inside the source's open
        group-commit transaction — and then evolves independently."""
        for path in (":memory:", str(tmp_path / "source.sqlite")):
            source = PagedFactStore(path, buffer_facts=64, commit_every=10**6)
            engine = HornEngine(store=source)
            engine.add_clause(TRANS)
            engine.add_facts(_chain(6))
            engine.saturate()
            before = engine.facts()
            assert source._in_tx  # nothing committed yet
            frozen = engine.detach_store()
            copy = engine.store
            assert frozen is source and copy is not frozen
            assert isinstance(copy, PagedFactStore)
            assert copy.buffer_facts == 64
            assert set(copy.iter_facts()) == set(frozen.iter_facts()) == before
            assert len(copy) == len(frozen) == len(before)
            assert copy.pool_size("S") == frozen.pool_size("S")
            for pos in (1, 2):
                for value in ("n0", "n3", "n6", "nope"):
                    assert sorted(copy.probe("S", pos, value)) == sorted(
                        frozen.probe("S", pos, value)
                    )
            # mutations on either side stay on that side
            engine.add_fact(("S", "zz", "n0"))
            engine.saturate()
            frozen.add(("S", "only", "frozen"))
            assert set(frozen.iter_facts()) == before | {("S", "only", "frozen")}
            assert engine.facts() > before
            assert ("S", "only", "frozen") not in copy
            assert ("S", "zz", "n0") not in frozen
            if path != ":memory:":
                mode = frozen._conn.execute("PRAGMA journal_mode").fetchone()
                assert mode == ("wal",)
            copy.flush()
            files = [copy.path + suffix for suffix in ("", "-wal", "-shm")]
            assert all(os.path.exists(name) for name in files)
            copy.close()
            frozen.close()
            assert not any(os.path.exists(name) for name in files)
