"""End-to-end chaos: campaigns and hypothesis chaos-parity.

The bit-for-bit contract under test: any set of mid-batch process
crashes (a batch's begin record durable, its engine abandoned, the
state recovered through the churn journal) must leave the engine in
exactly the state a crash-free run reaches over the same surviving
inputs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.support.chaos import run_chaos_campaign
from tests.support.kill import KILL, run_killed


class TestChaosCampaign:
    def test_fault_free_campaign_has_parity(self, tmp_path) -> None:
        result = run_chaos_campaign(tmp_path / "journal.db", seed=1)
        assert result.parity
        assert result.recoveries == 0

    def test_campaign_under_full_chaos(self, tmp_path) -> None:
        crash_at = {0, 1, 3, 4, 6, 7}
        result = run_chaos_campaign(
            tmp_path / "journal.db", seed=3, crash_at=crash_at
        )
        assert result.parity
        assert result.facts == result.oracle_facts
        # the campaign actually hit trouble — otherwise it proves nothing
        assert result.recoveries == len(crash_at)

    def test_batch_crashes_force_journal_recoveries(self, tmp_path) -> None:
        result = run_chaos_campaign(
            tmp_path / "journal.db", seed=5, crash_at={0, 2}
        )
        assert result.parity
        assert result.recoveries == 2

    def test_campaign_is_seed_deterministic(self, tmp_path) -> None:
        def run(tag: str):
            return run_chaos_campaign(
                tmp_path / f"{tag}.db", seed=11, crash_at={2, 5}
            )

        a, b = run("a"), run("b")
        assert a.parity and b.parity
        assert a.recoveries == b.recoveries == 2
        assert a.facts == b.facts

    def test_campaign_survives_a_real_kill(self, tmp_path) -> None:
        """The crash is a SIGKILL of the process running the campaign,
        right after batch 5's begin record; a fresh process recovers
        and finishes the campaign at parity with the oracle."""
        path = tmp_path / "journal.db"
        run_killed(
            f"""
from tests.support.chaos import run_chaos_campaign

run_chaos_campaign(
    sys.argv[1], seed=7, crash_at={{5}}, on_crash=lambda: {KILL}
)
""",
            str(path),
        )
        result = run_chaos_campaign(path, seed=7, resume_after=5)
        assert result.parity
        assert result.facts == result.oracle_facts
        assert result.recoveries == 1


class TestChaosParity:
    """Campaigns crashing at hypothesis-drawn batch indexes converge
    to the crash-free oracle, recovering once per crash."""

    @given(data=st.data(), campaign_seed=st.integers(0, 2**16))
    @settings(max_examples=12, deadline=None)
    def test_faulty_replay_matches_oracle(
        self, tmp_path_factory, data, campaign_seed
    ) -> None:
        batches = data.draw(st.integers(4, 10), label="batches")
        crash_at = data.draw(
            st.sets(st.integers(0, batches - 1), min_size=1),
            label="crash_at",
        )
        result = run_chaos_campaign(
            tmp_path_factory.mktemp("chaos") / "journal.db",
            seed=campaign_seed,
            batches=batches,
            crash_at=crash_at,
        )
        assert result.parity
        assert result.facts == result.oracle_facts
        assert result.recoveries == len(crash_at)
