"""Batched churn: apply_batch parity, crossover routing, calibration.

``apply_batch`` must be a pure coalescing of per-op edits: for every
script, applying each checkpoint window's net fact diff as one batch
lands on exactly the state of (a) applying the ops one by one and
(b) saturating a fresh engine from scratch — whichever side of the
rebuild crossover the batch falls on.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.core.rules import HornClause
from repro.errors import InferenceError
from repro.inference.goal import GoalDirectedEngine
from repro.inference.horn import (
    DEFAULT_REBUILD_CROSSOVER,
    Atom,
    HornEngine,
    seed_rebuild_crossover,
)
from tests.support.churn_scripts import (
    CLAUSE_POOL,
    churn_scripts,
    oracle_states,
    replay_incremental,
)

TRANS = HornClause(
    ("S", "?x", "?z"), (("S", "?x", "?y"), ("S", "?y", "?z"))
)


def replay_batched(
    script, *, batch: int = 4, crossover: int | None = None
) -> list[set[Atom]]:
    """Replay a churn script through apply_batch, one call per window.

    Fact ops coalesce last-op-wins per fact (the net diff of the
    window — exactly what a shrink+grow refresh hands the engine);
    clause ops apply immediately, as refresh_from_articulation does.
    """
    engine = HornEngine()
    if crossover is not None:
        engine.rebuild_crossover = crossover
    snapshots: list[set[Atom]] = []
    pending: dict[Atom, str] = {}

    def flush() -> None:
        adds = [f for f, k in pending.items() if k == "add_fact"]
        retracts = [f for f, k in pending.items() if k == "retract_fact"]
        pending.clear()
        engine.apply_batch(adds, retracts)
        snapshots.append(engine.facts())

    for index, op in enumerate(script):
        if op.kind in ("add_fact", "retract_fact"):
            pending[op.fact] = op.kind
        elif op.kind == "add_clause":
            engine.add_clause(CLAUSE_POOL[op.clause_index])
        else:
            engine.retract_clause(CLAUSE_POOL[op.clause_index])
        if (index + 1) % batch == 0:
            flush()
    flush()
    return snapshots


class TestBatchParity:
    @settings(max_examples=50, deadline=None)
    @given(script=churn_scripts())
    def test_batched_equals_stepwise_equals_oracle(self, script) -> None:
        expected = oracle_states(script, saturate_every=4)
        _, stepwise = replay_incremental(script, saturate_every=4)
        assert stepwise == expected
        assert replay_batched(script, batch=4) == expected

    @settings(max_examples=30, deadline=None)
    @given(script=churn_scripts())
    def test_parity_holds_on_both_sides_of_the_crossover(
        self, script
    ) -> None:
        """Forcing every batch through DRed (huge crossover) and
        forcing every retracting batch through a rebuild (crossover 1)
        must both land on the oracle — the switch is perf-only."""
        expected = oracle_states(script, saturate_every=4)
        assert replay_batched(script, crossover=10_000) == expected
        assert replay_batched(script, crossover=1) == expected

    def test_retract_then_add_same_fact_ends_asserted(self) -> None:
        engine = HornEngine()
        engine.add_clause(TRANS)
        engine.add_facts([("S", "a", "b"), ("S", "b", "c")])
        engine.saturate()
        report = engine.apply_batch(
            adds=[("S", "a", "b")], retracts=[("S", "a", "b")]
        )
        assert report["retracted"] == 1
        # The re-add is a store-level no-op (the fact never left the
        # store), but it restores base status: the fact must survive.
        assert engine.holds(("S", "a", "b"))
        assert engine.holds(("S", "a", "c"))


class TestBatchDecisions:
    def _saturated(self, crossover: int = 8) -> HornEngine:
        engine = HornEngine(rebuild_crossover=crossover)
        engine.add_clause(TRANS)
        engine.add_facts(
            ("S", f"n{i}", f"n{i + 1}") for i in range(12)
        )
        engine.saturate()
        return engine

    def test_empty_batch_is_a_noop(self) -> None:
        engine = self._saturated()
        report = engine.apply_batch()
        assert report["decision"] == "noop"
        assert report["derived"] == 0

    def test_adds_on_fresh_engine_decide_full(self) -> None:
        engine = HornEngine()
        engine.add_clause(TRANS)
        report = engine.apply_batch(
            adds=[("S", "a", "b"), ("S", "b", "c")]
        )
        assert report["decision"] == "full"
        assert engine.holds(("S", "a", "c"))

    def test_adds_on_saturated_engine_decide_delta(self) -> None:
        engine = self._saturated()
        report = engine.apply_batch(adds=[("S", "n12", "n13")])
        assert report["decision"] == "delta"
        assert report["mode"] == "incremental"

    def test_small_retraction_decides_dred(self) -> None:
        engine = self._saturated()
        report = engine.apply_batch(retracts=[("S", "n0", "n1")])
        assert report["decision"] == "dred"
        assert report["mode"] == "retract"
        oracle = HornEngine()
        oracle.add_clause(TRANS)
        oracle.add_facts(
            ("S", f"n{i}", f"n{i + 1}") for i in range(1, 12)
        )
        oracle.saturate()
        assert engine.facts() == oracle.facts()

    def test_crossover_reroutes_to_rebuild(self) -> None:
        engine = self._saturated(crossover=3)
        victims = [("S", f"n{i}", f"n{i + 1}") for i in range(3)]
        report = engine.apply_batch(retracts=victims)
        assert report["decision"] == "rebuild"
        oracle = HornEngine()
        oracle.add_clause(TRANS)
        oracle.add_facts(
            ("S", f"n{i}", f"n{i + 1}") for i in range(3, 12)
        )
        oracle.saturate()
        assert engine.facts() == oracle.facts()

    def test_none_crossover_disables_the_switch(self) -> None:
        engine = self._saturated()
        engine.rebuild_crossover = None
        victims = [("S", f"n{i}", f"n{i + 1}") for i in range(12)]
        report = engine.apply_batch(retracts=victims)
        assert report["decision"] == "dred"
        assert engine.facts() == set()

    def test_pre_fixpoint_retraction_decides_inplace(self) -> None:
        # Before the first fixpoint nothing was ever derived, so the
        # retraction is a plain store unlink — no DRed queue to drain.
        engine = HornEngine()
        engine.add_facts([("S", "a", "b"), ("S", "b", "c")])
        report = engine.apply_batch(retracts=[("S", "a", "b")])
        assert report["decision"] == "inplace"
        assert engine.facts() == {("S", "b", "c")}

    def test_saturate_false_defers_evaluation(self) -> None:
        engine = self._saturated()
        report = engine.apply_batch(
            adds=[("S", "n12", "n13")], saturate=False
        )
        assert "derived" not in report
        assert "mode" not in report
        assert engine.saturate() > 0  # the deferred delta pass
        assert engine.holds(("S", "n0", "n13"))


class TestCalibration:
    def test_calibration_measures_and_stores(self) -> None:
        engine = HornEngine()
        crossover = engine.calibrate_rebuild_crossover(
            chain=24, ks=(1, 4, 8)
        )
        assert crossover >= 2
        assert engine.rebuild_crossover == crossover
        assert [row["k"] for row in engine.last_calibration]
        for row in engine.last_calibration:
            assert row["dred_ms"] >= 0.0
            assert row["rebuild_ms"] >= 0.0


class TestSeededCrossover:
    def _record(self, series: dict) -> dict:
        return {"workloads": {"retract_vs_rebuild": series}}

    def test_smallest_winning_k(self, tmp_path: Path) -> None:
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(
                self._record(
                    {
                        "1": {"retract_ms": 1.0, "rebuild_ms": 5.0},
                        "8": {"retract_ms": 9.0, "rebuild_ms": 2.0},
                        "40": {"retract_ms": 9.0, "rebuild_ms": 1.0},
                    }
                )
            )
        )
        assert seed_rebuild_crossover(path) == 8

    def test_floors_at_two(self, tmp_path: Path) -> None:
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(
                self._record({"1": {"retract_ms": 9.0, "rebuild_ms": 1.0}})
            )
        )
        assert seed_rebuild_crossover(path) == 2

    def test_rebuild_never_wins_moves_past_the_range(
        self, tmp_path: Path
    ) -> None:
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(
                self._record(
                    {
                        "1": {"retract_ms": 1.0, "rebuild_ms": 9.0},
                        "40": {"retract_ms": 1.0, "rebuild_ms": 9.0},
                    }
                )
            )
        )
        assert seed_rebuild_crossover(path) == 41

    def test_missing_or_malformed_falls_back(self, tmp_path: Path) -> None:
        assert (
            seed_rebuild_crossover(tmp_path / "absent.json")
            == DEFAULT_REBUILD_CROSSOVER
        )
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert seed_rebuild_crossover(bad) == DEFAULT_REBUILD_CROSSOVER

    def test_default_engine_uses_the_checked_in_seed(self) -> None:
        assert HornEngine().rebuild_crossover == seed_rebuild_crossover()


class TestGoalEngineBatch:
    def _engine(self) -> GoalDirectedEngine:
        engine = GoalDirectedEngine()
        engine.add_clause(TRANS)
        engine.add_facts([("S", "a", "b"), ("S", "b", "c")])
        return engine

    def test_batch_updates_answers(self) -> None:
        engine = self._engine()
        assert engine.holds(("S", "a", "c"))
        report = engine.apply_batch(
            adds=[("S", "c", "d")], retracts=[("S", "a", "b")]
        )
        assert report == {"added": 1, "retracted": 1}
        assert not engine.holds(("S", "a", "c"))
        assert engine.holds(("S", "b", "d"))

    def test_noop_batch_keeps_memoized_slices(self) -> None:
        engine = self._engine()
        engine.holds(("S", "a", "c"))  # build + memoize the slice
        assert engine._slices
        report = engine.apply_batch(
            adds=[("S", "a", "b")],  # already present
            retracts=[("S", "zz", "zz")],  # never asserted
        )
        assert report == {"added": 0, "retracted": 0}
        assert engine._slices  # untouched: no invalidation paid

    def test_batch_rejects_non_ground_atoms(self) -> None:
        engine = self._engine()
        with pytest.raises(InferenceError):
            engine.apply_batch(adds=[("S", "?x", "b")])
        with pytest.raises(InferenceError):
            engine.apply_batch(retracts=[("S", "?x", "b")])
        # a valid retract next to a non-ground add: the whole batch is
        # rejected before the master store or the memoized slices move
        assert engine.holds(("S", "a", "c"))  # memoize the slice
        base = set(engine._store.iter_facts())
        with pytest.raises(InferenceError):
            engine.apply_batch(
                adds=[("S", "?x", "b")], retracts=[("S", "a", "b")]
            )
        assert set(engine._store.iter_facts()) == base
        assert engine.holds(("S", "a", "c"))
        assert engine.facts("S") == {
            ("S", "a", "b"),
            ("S", "b", "c"),
            ("S", "a", "c"),
        }
