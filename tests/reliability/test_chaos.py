"""End-to-end chaos: campaigns and hypothesis chaos-parity.

The bit-for-bit contract under test: any seeded schedule of mid-batch
process crashes (the ``batch_crash`` site, recovered through the churn
journal) must leave the engine in exactly the state a fault-free run
reaches over the same surviving inputs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability import FaultPlan
from repro.workloads import run_chaos_campaign


def _crash_plan(seed: int, rate: float = 0.3) -> FaultPlan:
    return FaultPlan(seed=seed, rates={"batch_crash": rate})


class TestChaosCampaign:
    def test_fault_free_campaign_has_parity(self, tmp_path) -> None:
        result = run_chaos_campaign(tmp_path / "journal.jsonl", seed=1)
        assert result.parity
        assert result.recoveries == 0
        assert result.fault_summary == {}

    def test_campaign_under_full_chaos(self, tmp_path) -> None:
        plan = _crash_plan(7)
        result = run_chaos_campaign(
            tmp_path / "journal.jsonl", seed=3, fault_plan=plan
        )
        assert result.parity
        assert result.facts == result.oracle_facts
        # the campaign actually hit trouble — otherwise it proves nothing
        assert result.recoveries > 0
        assert result.recoveries == plan.fired["batch_crash"]

    def test_batch_crashes_force_journal_recoveries(self, tmp_path) -> None:
        plan = FaultPlan.scripted({"batch_crash": [0, 2]})
        result = run_chaos_campaign(
            tmp_path / "journal.jsonl", seed=5, fault_plan=plan
        )
        assert result.parity
        assert result.recoveries == 2

    def test_campaign_is_seed_deterministic(self, tmp_path) -> None:
        def run(tag: str):
            return run_chaos_campaign(
                tmp_path / f"{tag}.jsonl", seed=11, fault_plan=_crash_plan(2)
            )

        a, b = run("a"), run("b")
        assert a.parity and b.parity
        assert a.recoveries == b.recoveries > 0
        assert a.facts == b.facts
        assert a.fault_summary == b.fault_summary


class TestChaosParity:
    """Campaigns under randomized seeded crash plans converge to the
    fault-free oracle, recovering once per injected crash."""

    @given(
        campaign_seed=st.integers(0, 2**16),
        fault_seed=st.integers(0, 2**16),
        batches=st.integers(4, 10),
    )
    @settings(max_examples=12, deadline=None)
    def test_faulty_replay_matches_oracle(
        self, tmp_path_factory, campaign_seed, fault_seed, batches
    ) -> None:
        plan = _crash_plan(fault_seed, rate=0.5)
        result = run_chaos_campaign(
            tmp_path_factory.mktemp("chaos") / "journal.jsonl",
            seed=campaign_seed,
            batches=batches,
            fault_plan=plan,
        )
        assert result.parity
        assert result.facts == result.oracle_facts
        assert result.recoveries == plan.fired["batch_crash"]
        assert plan.draws["batch_crash"] == batches
