"""Unit tests for FaultPlan / RetryPolicy determinism and validation."""

from __future__ import annotations

import pytest

from repro.errors import OnionError
from repro.reliability import (
    FAULT_SITES,
    SQLITE_RETRY_POLICY,
    FaultInjected,
    FaultPlan,
    RetryPolicy,
)


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self) -> None:
        policy = RetryPolicy(backoff_base=0.01, backoff_cap=0.05)
        assert policy.delay(0) == pytest.approx(0.01)
        assert policy.delay(1) == pytest.approx(0.02)
        assert policy.delay(2) == pytest.approx(0.04)
        assert policy.delay(3) == pytest.approx(0.05)  # capped
        assert policy.delay(10) == pytest.approx(0.05)

    def test_validation(self) -> None:
        with pytest.raises(OnionError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(OnionError):
            RetryPolicy(backoff_base=-0.01)
        with pytest.raises(OnionError):
            RetryPolicy(backoff_cap=-0.01)

    def test_default_is_frozen(self) -> None:
        with pytest.raises(AttributeError):
            SQLITE_RETRY_POLICY.max_retries = 9  # type: ignore[misc]


class TestFaultPlanDeterminism:
    def test_same_seed_same_firing_sequence(self) -> None:
        draws = [
            [
                FaultPlan(seed=42, rates={"batch_crash": 0.5}).fire(
                    "batch_crash"
                )
            ]
            for _ in range(2)
        ]
        plan_a = FaultPlan(seed=42, rates={"batch_crash": 0.5})
        plan_b = FaultPlan(seed=42, rates={"batch_crash": 0.5})
        seq_a = [plan_a.fire("batch_crash") for _ in range(50)]
        seq_b = [plan_b.fire("batch_crash") for _ in range(50)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)
        assert draws[0] == draws[1]

    def test_sites_have_independent_streams(self) -> None:
        """Drawing one site never perturbs another: a plan that also
        draws sqlite_lock fires batch_crash identically."""
        plan_a = FaultPlan(
            seed=7, rates={"batch_crash": 0.3, "sqlite_lock": 0.9}
        )
        plan_b = FaultPlan(seed=7, rates={"batch_crash": 0.3})
        seq_a = []
        for _ in range(40):
            plan_a.fire("sqlite_lock")
            seq_a.append(plan_a.fire("batch_crash"))
        seq_b = [plan_b.fire("batch_crash") for _ in range(40)]
        assert seq_a == seq_b

    def test_unknown_site_rejected(self) -> None:
        with pytest.raises(OnionError):
            FaultPlan(rates={"cosmic_ray": 1.0})
        plan = FaultPlan()
        with pytest.raises(OnionError):
            plan.fire("cosmic_ray")

    def test_max_fires_caps_total(self) -> None:
        plan = FaultPlan(seed=1, rates={"batch_crash": 1.0}, max_fires=3)
        fired = sum(plan.fire("batch_crash") for _ in range(10))
        assert fired == 3

    def test_scripted_plan_fires_exact_draws(self) -> None:
        plan = FaultPlan.scripted({"batch_crash": [0, 2]})
        assert plan.fire("batch_crash") is True
        assert plan.fire("batch_crash") is False
        assert plan.fire("batch_crash") is True
        assert plan.fire("batch_crash") is False

    def test_summary_counts_draws_and_fires(self) -> None:
        plan = FaultPlan(seed=0, rates={"sqlite_lock": 1.0})
        for _ in range(4):
            assert plan.sqlite_fault()
        summary = plan.summary()
        assert summary["draws"]["sqlite_lock"] == 4
        assert summary["fired"]["sqlite_lock"] == 4

    def test_all_sites_listed(self) -> None:
        assert FAULT_SITES == ("sqlite_lock", "batch_crash")


class TestTaskFaultSelection:
    def test_fault_injected_is_onion_error(self) -> None:
        assert issubclass(FaultInjected, OnionError)
