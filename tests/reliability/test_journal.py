"""The churn write-ahead journal: durability, recovery, compaction.

Crash tests kill a real child process (SIGKILL) at the point under
test and recover in this process from the file it left behind.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.rules import HornClause
from repro.errors import InferenceError
from repro.inference.horn import HornEngine
from repro.reliability import ChurnJournal, JournalError
from tests.support.kill import KILL, run_killed

TRANS = HornClause(
    ("S", "?x", "?z"), (("S", "?x", "?y"), ("S", "?y", "?z"))
)

# Child prelude: the journal at argv[1] holds a snapshot of _engine().
_CHILD_ENGINE = """
from repro.core.rules import HornClause
from repro.inference.horn import HornEngine
from repro.reliability import ChurnJournal

journal = ChurnJournal(sys.argv[1])
engine = HornEngine(journal=journal)
engine.add_clause(
    HornClause(("S", "?x", "?z"), (("S", "?x", "?y"), ("S", "?y", "?z")))
)
engine.add_facts([("S", "a", "b"), ("S", "b", "c")])
engine.saturate()
journal.snapshot(engine)


def die_on(prefix):
    # SIGKILL as the journal's connection starts a statement
    def trace(sql):
        if sql.startswith(prefix):
            {kill}
    journal._conn.set_trace_callback(trace)
""".format(kill=KILL)

# One committed batch, then a SIGKILL inside the next begin transaction.
_KILL_IN_BEGIN = _CHILD_ENGINE + """
engine.apply_batch(adds=[("S", "c", "d")])
die_on("INSERT INTO batch")
engine.apply_batch(adds=[("S", "x", "y")])
"""


def _engine(journal: ChurnJournal | None = None) -> HornEngine:
    engine = HornEngine(journal=journal)
    engine.add_clause(TRANS)
    engine.add_facts([("S", "a", "b"), ("S", "b", "c")])
    engine.saturate()
    return engine


def _oracle(facts) -> set:
    engine = HornEngine()
    engine.add_clause(TRANS)
    engine.add_facts(facts)
    engine.saturate()
    return engine.facts()


class TestJournalRecords:
    def test_begin_then_commit_round_trip(self, tmp_path) -> None:
        journal = ChurnJournal(tmp_path / "j.journal")
        seq = journal.begin([("S", "c", "d")], [("S", "a", "b")])
        assert journal.pending() == [seq]
        journal.commit(seq)
        assert journal.pending() == []

    def test_sequence_numbers_survive_reopen(self, tmp_path) -> None:
        path = tmp_path / "j.journal"
        first = ChurnJournal(path).begin([("S", "a", "b")], [])
        second = ChurnJournal(path).begin([("S", "b", "c")], [])
        assert second > first

    def test_torn_tail_is_discarded(self, tmp_path) -> None:
        """A process killed inside the begin transaction leaves no
        batch behind, and the history before it is intact."""
        path = tmp_path / "j.journal"
        run_killed(_KILL_IN_BEGIN, str(path))
        reopened = ChurnJournal(path)
        assert reopened.pending() == []
        recovered, report = reopened.recover()
        assert report["batches"] == 1
        assert recovered.base_facts() == {
            ("S", "a", "b"),
            ("S", "b", "c"),
            ("S", "c", "d"),
        }

    def test_append_heals_rather_than_seals_a_torn_tail(
        self, tmp_path
    ) -> None:
        """After a kill inside a begin, the next begin lands on clean
        ground: a third open reads back the whole history."""
        path = tmp_path / "j.journal"
        run_killed(_KILL_IN_BEGIN, str(path))
        reopened = ChurnJournal(path)
        seq = reopened.begin([("S", "p", "q")], [])
        third = ChurnJournal(path)
        assert third.pending() == [seq]
        recovered, report = third.recover()
        assert report["batches"] == 2
        assert ("S", "p", "q") in recovered.base_facts()
        assert ("S", "x", "y") not in recovered.base_facts()

    def test_json_lines_journal_is_refused_unchanged(self, tmp_path) -> None:
        """A journal in the JSON-lines format of earlier releases is
        not a SQLite database: opening it fails and leaves it as it
        was, with no side files."""
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"clauses": [], "facts": [["S", "a", "b"]], '
            '"type": "snapshot"}\n'
            '{"adds": [["S", "b", "c"]], "retracts": [], "seq": 1, '
            '"type": "begin"}\n'
        )
        before = path.read_bytes()
        with pytest.raises(JournalError, match="as a churn journal"):
            ChurnJournal(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["j.jsonl"]

    def test_foreign_sqlite_database_is_refused_unchanged(
        self, tmp_path
    ) -> None:
        path = tmp_path / "facts.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE facts (atom TEXT)")
        conn.commit()
        conn.close()
        before = path.read_bytes()
        with pytest.raises(JournalError, match="as a churn journal"):
            ChurnJournal(path)
        assert path.read_bytes() == before

    def test_unopenable_path_raises_journal_error(self, tmp_path) -> None:
        with pytest.raises(JournalError, match="cannot open"):
            ChurnJournal(tmp_path / "missing" / "j.journal")


class TestApplyBatchJournaling:
    def test_batch_journals_and_commits(self, tmp_path) -> None:
        journal = ChurnJournal(tmp_path / "j.journal")
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
        journal = ChurnJournal(tmp_path / "j.journal")
        engine = _engine(journal)
        journal.snapshot(engine)
        before_facts = engine.facts()
        with pytest.raises(InferenceError):
            engine.apply_batch([("S", "c", "d"), ("S", "?x", "e")], [])
        assert engine.facts() == before_facts
        assert journal.pending() == []
        recovered, report = journal.recover()
        assert report["batches"] == 0
        assert recovered.facts() == before_facts


class TestRecovery:
    def test_recover_replays_uncommitted_batch(self, tmp_path) -> None:
        """The crash contract: a process killed after the durable begin,
        before the engine mutates — recovery lands on the fixpoint the
        batch was driving toward, and a second recovery is a no-op."""
        path = tmp_path / "j.journal"
        run_killed(
            _CHILD_ENGINE
            + f"""
begin = journal.begin


def begin_then_die(adds, retracts):
    begin(adds, retracts)
    {KILL}


journal.begin = begin_then_die
engine.apply_batch(adds=[("S", "c", "d")], retracts=[("S", "a", "b")])
""",
            str(path),
        )
        journal = ChurnJournal(path)
        assert journal.pending() == [1]
        recovered, report = journal.recover()
        assert report["replayed_pending"] == 1
        oracle = _oracle([("S", "b", "c"), ("S", "c", "d")])
        assert recovered.facts() == oracle
        # second recovery is a no-op: the replay was committed
        assert journal.pending() == []
        again, report2 = ChurnJournal(path).recover()
        assert report2["replayed_pending"] == 0
        assert again.facts() == oracle

    def test_kill_inside_snapshot_keeps_previous_snapshot(
        self, tmp_path
    ) -> None:
        """A process killed inside the snapshot transaction (the new
        snapshot row written, the batch rows not yet deleted) leaves
        the previous snapshot and its batches to recover from.  The
        un-journaled fact only the new snapshot holds — what a service
        snapshots after a rebuild — must not surface."""
        path = tmp_path / "j.journal"
        run_killed(
            _CHILD_ENGINE
            + """
engine.apply_batch(adds=[("S", "c", "d")])
engine.apply_batch(retracts=[("S", "a", "b")])
engine.add_facts([("S", "z", "z")])
die_on("DELETE FROM batch")
journal.snapshot(engine)
""",
            str(path),
        )
        recovered, report = ChurnJournal(path).recover()
        assert report["batches"] == 2
        assert ("S", "z", "z") not in recovered.base_facts()
        assert recovered.facts() == _oracle(
            [("S", "b", "c"), ("S", "c", "d")]
        )

    def test_recover_into_existing_paged_file_drops_retracted_facts(
        self, tmp_path
    ) -> None:
        """The paged database keeps its last committed state: here the
        saturated fixpoint before a retraction the journal committed.
        Recovering into that file must not bring the retracted fact,
        or what it derived, back."""
        path, db = tmp_path / "j.journal", tmp_path / "facts.db"
        run_killed(
            f"""
from repro.core.rules import HornClause
from repro.inference.horn import HornEngine
from repro.reliability import ChurnJournal

journal = ChurnJournal(sys.argv[1])
engine = HornEngine(storage="paged", storage_path=sys.argv[2], journal=journal)
engine.add_clause(
    HornClause(("S", "?x", "?z"), (("S", "?x", "?y"), ("S", "?y", "?z")))
)
engine.add_facts([("S", "a", "b"), ("S", "b", "c"), ("S", "c", "d")])
engine.saturate()
journal.snapshot(engine)
engine.store.flush()
engine.apply_batch(retracts=[("S", "b", "c")])
{KILL}
""",
            str(path),
            str(db),
        )
        recovered, _ = ChurnJournal(path).recover(
            storage="paged", storage_path=str(db)
        )
        oracle = _oracle([("S", "a", "b"), ("S", "c", "d")])
        assert recovered.facts() == oracle
        recovered.store.close()

    def test_recover_from_snapshot_plus_committed_history(
        self, tmp_path
    ) -> None:
        journal = ChurnJournal(tmp_path / "j.journal")
        engine = _engine(journal)
        journal.snapshot(engine)
        engine.apply_batch(adds=[("S", "c", "d")])
        engine.apply_batch(retracts=[("S", "a", "b")])
        recovered, report = journal.recover()
        assert report["batches"] == 2
        assert recovered.facts() == engine.facts()

    def test_snapshot_compacts_the_log(self, tmp_path) -> None:
        journal = ChurnJournal(tmp_path / "j.journal")
        engine = _engine(journal)
        journal.snapshot(engine)
        for i in range(5):
            engine.apply_batch(adds=[("S", f"n{i}", f"n{i + 1}")])
        journal.snapshot(engine)
        recovered, report = journal.recover()
        assert report["batches"] == 0
        assert recovered.facts() == engine.facts()

    def test_recover_without_snapshot_is_facts_only(self, tmp_path) -> None:
        """Begins alone carry no clauses — recovery still folds the
        fact diffs (the documented contract: snapshot carries the
        program)."""
        journal = ChurnJournal(tmp_path / "j.journal")
        journal.begin([("S", "a", "b")], [])
        recovered, report = journal.recover()
        assert report["batches"] == 1
        assert recovered.base_facts() == {("S", "a", "b")}
        assert journal.pending() == []
