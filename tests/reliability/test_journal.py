"""The churn write-ahead journal: durability, recovery, compaction."""

from __future__ import annotations

import json

import pytest

from repro.core.rules import HornClause
from repro.errors import InferenceError
from repro.inference.horn import HornEngine
from repro.reliability import ChurnJournal, FaultInjected, FaultPlan

TRANS = HornClause(
    ("S", "?x", "?z"), (("S", "?x", "?y"), ("S", "?y", "?z"))
)


def _engine(journal: ChurnJournal | None = None) -> HornEngine:
    engine = HornEngine(journal=journal)
    engine.add_clause(TRANS)
    engine.add_facts([("S", "a", "b"), ("S", "b", "c")])
    engine.saturate()
    return engine


class TestJournalRecords:
    def test_begin_then_commit_round_trip(self, tmp_path) -> None:
        journal = ChurnJournal(tmp_path / "j.jsonl")
        seq = journal.begin([("S", "c", "d")], [("S", "a", "b")])
        assert journal.pending() == [seq]
        journal.commit(seq)
        assert journal.pending() == []

    def test_sequence_numbers_survive_reopen(self, tmp_path) -> None:
        path = tmp_path / "j.jsonl"
        first = ChurnJournal(path).begin([("S", "a", "b")], [])
        second = ChurnJournal(path).begin([("S", "b", "c")], [])
        assert second > first

    def test_torn_tail_is_discarded(self, tmp_path) -> None:
        path = tmp_path / "j.jsonl"
        journal = ChurnJournal(path)
        seq = journal.begin([("S", "a", "b")], [])
        journal.commit(seq)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "begin", "seq": 99, "ad')  # torn
        reopened = ChurnJournal(path)
        assert reopened.pending() == []
        assert reopened.truncated_records == 0  # a tail is not a hole
        # ...and the next append does not merge into the torn line
        seq2 = reopened.begin([("S", "x", "y")], [])
        records = reopened.records()
        assert any(
            r.get("type") == "begin" and r.get("seq") == seq2
            for r in records
        )

    def test_append_heals_rather_than_seals_a_torn_tail(
        self, tmp_path
    ) -> None:
        """The torn line must vanish from the file, not be newline-
        terminated into permanent mid-file garbage (which would make
        every later record look like it sat beyond corruption)."""
        path = tmp_path / "j.jsonl"
        journal = ChurnJournal(path)
        seq = journal.begin([("S", "a", "b")], [])
        journal.commit(seq)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "begin", "seq": 99, "ad')
        reopened = ChurnJournal(path)
        reopened.begin([("S", "x", "y")], [])
        raw_lines = path.read_text(encoding="utf-8").splitlines()
        for line in raw_lines:
            json.loads(line)  # every surviving line parses
        # and a third open sees the full, uncorrupted history
        third = ChurnJournal(path)
        assert third.truncated_records == 0
        assert len(third.records()) == 3


def _corrupt_line(path, index: int, *, keep_bytes: int = 12) -> None:
    """Byte-level harness: tear line ``index`` mid-record, keeping the
    rest of the file (the compaction-crash-plus-append shape)."""
    raw = path.read_bytes().split(b"\n")
    raw[index] = raw[index][:keep_bytes]
    path.write_bytes(b"\n".join(raw))


class TestMidFileCorruption:
    def _journal_with_history(self, path, batches: int = 4) -> list[int]:
        journal = ChurnJournal(path)
        seqs = []
        for i in range(batches):
            seq = journal.begin([("S", f"n{i}", f"n{i + 1}")], [])
            journal.commit(seq)
            seqs.append(seq)
        return seqs

    def test_recovery_stops_at_last_contiguous_prefix(self, tmp_path) -> None:
        path = tmp_path / "j.jsonl"
        self._journal_with_history(path, batches=4)
        # 8 lines (begin/commit x4); tear the 5th (begin of batch 2,
        # 0-indexed line 4) — records after it are durable but sit
        # beyond a hole
        _corrupt_line(path, 4)
        journal = ChurnJournal(path)
        assert journal.truncated_records == 3
        recovered, report = journal.recover()
        assert report["truncated_records"] == 3
        assert report["batches"] == 2  # the prefix: batches 0 and 1
        assert recovered.base_facts() == {
            ("S", "n0", "n1"),
            ("S", "n1", "n2"),
        }

    def test_corruption_detected_at_recover_time_too(self, tmp_path) -> None:
        """recover() on an already-open journal must notice bytes that
        rotted after the open."""
        path = tmp_path / "j.jsonl"
        self._journal_with_history(path, batches=3)
        journal = ChurnJournal(path)
        assert journal.truncated_records == 0
        _corrupt_line(path, 2)  # begin of batch 1
        recovered, report = journal.recover()
        assert report["truncated_records"] == 3
        assert recovered.base_facts() == {("S", "n0", "n1")}

    def test_file_healed_so_later_appends_are_readable(self, tmp_path) -> None:
        path = tmp_path / "j.jsonl"
        self._journal_with_history(path, batches=4)
        _corrupt_line(path, 4)
        journal = ChurnJournal(path)
        seq = journal.begin([("S", "x", "y")], [])
        journal.commit(seq)
        # a fresh open reads prefix + the new batch, with no losses
        fresh = ChurnJournal(path)
        assert fresh.truncated_records == 0
        assert fresh.pending() == []
        recovered, report = fresh.recover()
        assert report["truncated_records"] == 0
        assert ("S", "x", "y") in recovered.base_facts()
        assert recovered.base_facts() == {
            ("S", "n0", "n1"),
            ("S", "n1", "n2"),
            ("S", "x", "y"),
        }

    def test_new_seqs_do_not_collide_with_truncated_region(
        self, tmp_path
    ) -> None:
        """After truncation the journal may re-issue sequence numbers
        the dropped region used — the heal rewrote the file, so the
        stale commit records that could falsely mark a new begin as
        committed are gone."""
        path = tmp_path / "j.jsonl"
        self._journal_with_history(path, batches=4)
        _corrupt_line(path, 4)
        journal = ChurnJournal(path)
        seq = journal.begin([("S", "x", "y")], [])
        assert journal.pending() == [seq]  # no phantom commit


class TestApplyBatchJournaling:
    def test_batch_journals_and_commits(self, tmp_path) -> None:
        journal = ChurnJournal(tmp_path / "j.jsonl")
        engine = _engine(journal)
        journal.snapshot(engine)
        report = engine.apply_batch(
            adds=[("S", "c", "d")], retracts=[("S", "a", "b")]
        )
        assert "journal_seq" in report
        assert journal.pending() == []

    def test_without_journal_no_file(self, tmp_path) -> None:
        engine = _engine(None)
        engine.apply_batch(adds=[("S", "c", "d")])
        assert list(tmp_path.iterdir()) == []

    def test_non_ground_batch_leaves_no_trace(self, tmp_path) -> None:
        """A batch with one non-ground atom is rejected whole: no fact
        lands, no record is written, and the journal still recovers
        the pre-batch fixpoint."""
        journal = ChurnJournal(tmp_path / "j.jsonl")
        engine = _engine(journal)
        journal.snapshot(engine)
        before_facts = engine.facts()
        before_records = journal.records()
        with pytest.raises(InferenceError):
            engine.apply_batch([("S", "c", "d"), ("S", "?x", "e")], [])
        assert engine.facts() == before_facts
        assert journal.records() == before_records
        assert journal.pending() == []
        recovered, report = journal.recover()
        assert report["batches"] == 0
        assert recovered.facts() == before_facts


class TestRecovery:
    def test_recover_replays_uncommitted_batch(self, tmp_path) -> None:
        """The crash contract: diff journaled, engine dead — recovery
        lands on the fixpoint the batch was driving toward."""
        journal = ChurnJournal(tmp_path / "j.jsonl")
        plan = FaultPlan.scripted({"batch_crash": [0]})
        engine = HornEngine(journal=journal, fault_plan=plan)
        engine.add_clause(TRANS)
        engine.add_facts([("S", "a", "b"), ("S", "b", "c")])
        engine.saturate()
        journal.snapshot(engine)

        with pytest.raises(FaultInjected):
            engine.apply_batch(
                adds=[("S", "c", "d")], retracts=[("S", "a", "b")]
            )
        # the in-memory engine never mutated
        assert ("S", "c", "d") not in engine.facts()

        recovered, report = journal.recover()
        assert report["replayed_pending"] == 1
        oracle = HornEngine()
        oracle.add_clause(TRANS)
        oracle.add_facts([("S", "b", "c"), ("S", "c", "d")])
        oracle.saturate()
        assert recovered.facts() == oracle.facts()
        # second recovery is a no-op: the replay was committed
        assert journal.pending() == []
        again, report2 = journal.recover()
        assert report2["replayed_pending"] == 0
        assert again.facts() == oracle.facts()

    def test_recover_from_snapshot_plus_committed_history(
        self, tmp_path
    ) -> None:
        journal = ChurnJournal(tmp_path / "j.jsonl")
        engine = _engine(journal)
        journal.snapshot(engine)
        engine.apply_batch(adds=[("S", "c", "d")])
        engine.apply_batch(retracts=[("S", "a", "b")])
        recovered, report = journal.recover()
        assert report["batches"] == 2
        assert recovered.facts() == engine.facts()

    def test_snapshot_compacts_the_log(self, tmp_path) -> None:
        path = tmp_path / "j.jsonl"
        journal = ChurnJournal(path)
        engine = _engine(journal)
        journal.snapshot(engine)
        for i in range(5):
            engine.apply_batch(adds=[("S", f"n{i}", f"n{i + 1}")])
        journal.snapshot(engine)
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert len(lines) == 1
        assert lines[0]["type"] == "snapshot"
        recovered, _ = journal.recover()
        assert recovered.facts() == engine.facts()

    def test_recover_without_snapshot_is_facts_only(self, tmp_path) -> None:
        """Begins alone carry no clauses — recovery still folds the
        fact diffs (the documented contract: snapshot carries the
        program)."""
        journal = ChurnJournal(tmp_path / "j.jsonl")
        seq = journal.begin([("S", "a", "b")], [])
        recovered, report = journal.recover()
        assert report["batches"] == 1
        assert recovered.base_facts() == {("S", "a", "b")}
        assert journal.pending() == []
