"""Batched churn: apply_batch parity and crossover routing.

``apply_batch`` must be a pure coalescing of per-op edits: for every
script, applying each checkpoint window's net fact diff as one batch
lands on exactly the state of (a) applying the ops one by one and
(b) saturating a fresh engine from scratch — whichever side of the
rebuild crossover the batch falls on.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.core.articulation import ArticulationGenerator
from repro.core.rules import HornClause
from repro.inference.engine import OntologyInferenceEngine
from repro.inference.horn import Atom, HornEngine
from repro.workloads.generator import WorkloadConfig, generate_workload
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
        engine = HornEngine()
        engine.rebuild_crossover = crossover
        engine.add_clause(TRANS)
        engine.add_facts(
            ("S", f"n{i}", f"n{i + 1}") for i in range(12)
        )
        engine.saturate()
        return engine

    def test_default_crossover_follows_the_base(self) -> None:
        """A twentieth of the asserted facts, rounded up, until a
        caller pins it."""
        engine = HornEngine()
        assert engine.rebuild_crossover == 0
        engine.add_facts(("S", f"n{i}", f"n{i + 1}") for i in range(41))
        assert engine.rebuild_crossover == 3
        engine.rebuild_crossover = None
        assert engine.rebuild_crossover is None

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


class TestCrossoverOnArticulationProgram:
    """On a 350-term-per-source articulation program (about 1,570 base
    facts), a handful of retractions rides DRed and a twentieth of the
    base rebuilds; both end on the from-scratch oracle."""

    @pytest.fixture(scope="class")
    def program(self) -> tuple[tuple[HornClause, ...], list[Atom]]:
        workload = generate_workload(
            WorkloadConfig(
                universe_size=1050,
                n_sources=2,
                terms_per_source=350,
                overlap=0.4,
                seed=7,
            )
        )
        articulation = ArticulationGenerator(
            workload.sources, name="art"
        ).generate(workload.truth_rules(0, 1))
        horn = OntologyInferenceEngine.from_articulation(articulation).engine
        return horn.clauses(), sorted(horn.base_facts())

    @staticmethod
    def _saturated(clauses, facts) -> HornEngine:
        engine = HornEngine()
        engine.add_clauses(clauses)
        engine.add_facts(facts)
        engine.saturate()
        return engine

    @pytest.mark.parametrize(
        "share, decision", [("eight", "dred"), ("twentieth", "rebuild")]
    )
    def test_batch_routes_by_share_of_base(
        self, program, share: str, decision: str
    ) -> None:
        clauses, base = program
        assert len(base) >= 1500
        k = 8 if share == "eight" else -(-len(base) // 20)
        victims = random.Random(1).sample(base, k)
        engine = self._saturated(clauses, base)
        report = engine.apply_batch(retracts=victims)
        assert report["decision"] == decision
        assert report["crossover"] == -(-len(base) // 20)
        oracle = self._saturated(clauses, set(base) - set(victims))
        assert engine.facts() == oracle.facts()
