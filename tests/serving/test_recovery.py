"""Kill-and-restart: a crashed server recovers its pre-crash fixpoint
from the churn journal."""

from __future__ import annotations

from repro.kb.ingest import ingest_facts
from repro.serving import ArticulationService, load_paper_workload
from tests.support.kill import KILL, run_killed

ADDS = [
    ("implies", "crash:A", "crash:B"),
    ("implies", "crash:B", "transport:Vehicle"),
]


def _closure_probe(service: ArticulationService) -> dict:
    return {
        term: service.infer({"op": "generalizations", "term": term})["terms"]
        for term in ("crash:A", "crash:B", "carrier:Car")
    }


class TestJournalRecovery:
    def test_crash_during_apply_facts_recovers_to_committed_state(
        self, tmp_path
    ) -> None:
        journal = str(tmp_path / "serve.journal")
        late = [("implies", "crash:C", "crash:D")]

        # Oracle: same workload, same writes, no crash, no journal.
        oracle = ArticulationService()
        load_paper_workload(oracle)
        oracle.apply_facts(ADDS, [])
        oracle.apply_facts(late, [])

        # Service A, in a child process, journals everything, then is
        # SIGKILLed mid-batch on the write that *follows* the durable
        # ones: its begin record is on disk, its engine never moved.
        run_killed(
            f"""
from repro.reliability import ChurnJournal
from repro.serving import ArticulationService, load_paper_workload

service = ArticulationService(journal_path=sys.argv[1])
load_paper_workload(service)
service.apply_facts({ADDS!r}, [])
begin = ChurnJournal.begin


def begin_then_die(self, adds, retracts):
    begin(self, adds, retracts)
    {KILL}


ChurnJournal.begin = begin_then_die
service.apply_facts({late!r}, [])
""",
            journal,
        )

        # Service B boots over the same journal with no installer.
        recovered = ArticulationService(journal_path=journal)
        health = recovered.health()
        assert health["status"] == "ok"
        assert health["recovered"] is True
        assert recovered.recovery is not None

        # The durable batch (and the journaled-but-uncommitted one, which
        # recovery replays since it was logged before the crash) is back.
        assert recovered.recovery["replayed_pending"] == 1
        probe = _closure_probe(recovered)
        assert probe == _closure_probe(oracle)
        assert "transport:Vehicle" in probe["crash:A"]
        assert "transport:Vehicle" in probe["crash:B"]
        assert recovered.infer(
            {"op": "pattern", "atom": ["implies", "crash:C", "crash:D"]}
        )["holds"]

    def test_recovered_service_accepts_new_writes(self, tmp_path) -> None:
        journal = str(tmp_path / "serve.journal")
        first = ArticulationService(journal_path=journal)
        load_paper_workload(first)
        first.apply_facts(ADDS, [])

        second = ArticulationService(journal_path=journal)
        second.apply_facts([("implies", "crash:B", "crash:E")], [])
        assert second.infer(
            {"op": "pattern", "atom": ["implies", "crash:A", "crash:E"]}
        )["holds"]

        # A third boot sees writes from both prior lifetimes.
        third = ArticulationService(journal_path=journal)
        assert third.infer(
            {"op": "pattern", "atom": ["implies", "crash:A", "crash:E"]}
        )["holds"]

    def test_empty_journal_means_empty_service(self, tmp_path) -> None:
        service = ArticulationService(
            journal_path=str(tmp_path / "fresh.journal")
        )
        assert service.health()["status"] == "empty"

    def test_stats_expose_journal(self, tmp_path) -> None:
        journal = str(tmp_path / "serve.journal")
        service = ArticulationService(journal_path=journal)
        load_paper_workload(service)
        stats = service.stats()
        assert stats["journal"]["path"] == journal


class TestIngestHandoff:
    """``onion ingest FILE --db X --journal J``, then ``onion serve
    --journal J --storage paged --storage-db X``: the service recovers
    onto the ingested database itself."""

    CHAIN = [("implies", f"t:{i}", f"t:{i + 1}") for i in range(5)]

    def _ingest(self, tmp_path) -> tuple[str, str]:
        db, journal = str(tmp_path / "facts.db"), str(tmp_path / "j.journal")
        report = ingest_facts(db, self.CHAIN, journal_path=journal)
        assert report["journaled"] == len(self.CHAIN)
        return db, journal

    def test_service_answers_the_ingested_base(self, tmp_path) -> None:
        db, journal = self._ingest(tmp_path)
        service = ArticulationService(
            journal_path=journal, storage="paged", storage_path=db
        )
        assert service.recovery["facts"] == len(self.CHAIN)
        for _, term, general in self.CHAIN:
            assert general in service.infer(
                {"op": "generalizations", "term": term}
            )["terms"]

    def test_retraction_before_a_kill_stays_retracted(self, tmp_path) -> None:
        """A retraction the journal committed, but the paged file never
        did, must not come back on the restart."""
        db, journal = self._ingest(tmp_path)
        run_killed(
            f"""
from repro.serving import ArticulationService

service = ArticulationService(
    journal_path=sys.argv[1], storage="paged", storage_path=sys.argv[2]
)
service.apply_facts([], [("implies", "t:1", "t:2")])
{KILL}
""",
            journal,
            db,
        )
        restarted = ArticulationService(
            journal_path=journal, storage="paged", storage_path=db
        )
        assert restarted.recovery["facts"] == len(self.CHAIN) - 1
        assert not restarted.infer(
            {"op": "pattern", "atom": ["implies", "t:1", "t:2"]}
        )["holds"]
