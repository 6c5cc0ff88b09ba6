"""Incremental retraction (DRed): overdelete, rederive, and parity.

The contract under test: after any interleaving of fact/clause
additions and retractions, a long-lived engine answers exactly like a
fresh engine saturated from scratch over the surviving base facts and
clauses.  The hypothesis suites drive that with the reusable churn
script generator in :mod:`tests.support.churn_scripts`; the unit tests
nail the DRed-specific behaviors — alternate-proof survival, base
facts shielding their cone, clause retraction after fixpoint, index
maintenance in the store, and work proportional to the cone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.rules import HornClause
from repro.errors import InferenceError
from repro.inference.goal import GoalDirectedEngine
from repro.inference.horn import FactStore, HornEngine

from tests.support.baselines import FlatHornEngine, NaiveHornEngine
from tests.support.churn_scripts import (
    CLAUSE_POOL,
    TRANS,
    LIFT,
    IMPL_TRANS,
    INSTANCE,
    churn_scripts,
    oracle_engine,
    oracle_states,
    replay_incremental,
)

PROGRAM = (TRANS, LIFT, IMPL_TRANS, INSTANCE)


def chain(n: int, skip: int | None = None) -> list[tuple[str, str, str]]:
    return [
        ("S", f"n{i}", f"n{i+1}") for i in range(n) if i != skip
    ]


def saturated(facts, clauses=PROGRAM) -> HornEngine:
    engine = HornEngine()
    engine.add_clauses(clauses)
    engine.add_facts(facts)
    engine.saturate()
    return engine


# ----------------------------------------------------------------------
# FactStore.remove and the deletion-delta overlay
# ----------------------------------------------------------------------
class TestFactStoreRemove:
    def test_local_remove_maintains_every_index(self) -> None:
        store = FactStore()
        store.add(("S", "a", "b"))
        store.add(("S", "a", "c"))
        assert store.remove(("S", "a", "b"))
        assert ("S", "a", "b") not in store
        assert list(store.pool("S")) == [("S", "a", "c")]
        assert store.pool_size("S") == 1
        assert list(store.probe("S", 1, "a")) == [("S", "a", "c")]
        assert store.probe_size("S", 2, "b") == 0
        assert list(store.probe("S", 2, "b")) == []
        assert len(store) == 1

    def test_remove_absent_is_false(self) -> None:
        store = FactStore()
        assert not store.remove(("S", "a", "b"))
        store.add(("S", "a", "b"))
        assert store.remove(("S", "a", "b"))
        assert not store.remove(("S", "a", "b"))

    def test_removing_last_fact_of_predicate_drops_pools(self) -> None:
        store = FactStore()
        store.add(("S", "a", "b"))
        store.remove(("S", "a", "b"))
        assert store.predicates() == set()
        assert list(store.iter_facts()) == []

    def test_overlay_remove_is_a_tombstone(self) -> None:
        base = FactStore()
        base.add(("S", "a", "b"))
        base.add(("S", "b", "c"))
        overlay = FactStore(base=base)
        assert overlay.remove(("S", "a", "b"))
        # the overlay no longer sees the fact anywhere...
        assert ("S", "a", "b") not in overlay
        assert list(overlay.pool("S")) == [("S", "b", "c")]
        assert overlay.pool_size("S") == 1
        assert list(overlay.probe("S", 1, "a")) == []
        assert overlay.probe_size("S", 1, "a") == 0
        assert len(overlay) == 1
        assert set(overlay.iter_facts()) == {("S", "b", "c")}
        # ...but the base store is untouched.
        assert ("S", "a", "b") in base
        assert base.pool_size("S") == 2

    def test_overlay_add_lifts_the_tombstone(self) -> None:
        base = FactStore()
        base.add(("S", "a", "b"))
        overlay = FactStore(base=base)
        overlay.remove(("S", "a", "b"))
        assert overlay.add(("S", "a", "b"))
        assert ("S", "a", "b") in overlay
        assert overlay.pool_size("S") == 1
        assert overlay.probe_size("S", 2, "b") == 1
        assert len(overlay) == 1
        # lifting is not a local copy: nothing to unlink locally
        assert not overlay._facts

    def test_overlay_respects_visibility(self) -> None:
        base = FactStore()
        base.add(("S", "a", "b"))
        base.add(("T", "a", "b"))
        overlay = FactStore(base=base, visible=frozenset({"S"}))
        assert not overlay.remove(("T", "a", "b"))  # never visible
        assert overlay.remove(("S", "a", "b"))
        assert len(overlay) == 0


# ----------------------------------------------------------------------
# DRed unit behavior
# ----------------------------------------------------------------------
class TestRetractFact:
    def test_alternate_proof_survives(self) -> None:
        """The diamond: (a,d) keeps its second derivation."""
        engine = saturated(
            [
                ("S", "a", "b"),
                ("S", "b", "d"),
                ("S", "a", "c"),
                ("S", "c", "d"),
            ],
            clauses=(TRANS,),
        )
        assert engine.retract_fact(("S", "a", "b"))
        assert not engine.holds(("S", "a", "b"))
        assert engine.holds(("S", "a", "d"))
        assert engine.last_stats["mode"] == "retract"
        assert engine.last_stats["rederived"] >= 1

    def test_chain_retraction_matches_scratch(self) -> None:
        engine = saturated(chain(10), clauses=(TRANS,))
        engine.retract_fact(("S", "n4", "n5"))
        assert engine.facts() == saturated(
            chain(10, skip=4), clauses=(TRANS,)
        ).facts()

    def test_asserted_fact_shields_its_cone(self) -> None:
        """A fact asserted as base survives losing its derivation, and
        so does everything downstream of it."""
        engine = saturated(
            [("S", "a", "b"), ("S", "b", "c"), ("S", "c", "d")],
            clauses=(TRANS,),
        )
        engine.add_fact(("S", "a", "c"))  # already derived; now base too
        engine.retract_fact(("S", "a", "b"))
        assert engine.holds(("S", "a", "c"))
        assert engine.holds(("S", "a", "d"))
        assert not engine.holds(("S", "a", "b"))

    def test_retracting_derived_fact_is_refused(self) -> None:
        engine = saturated(chain(3), clauses=(TRANS,))
        assert engine.holds(("S", "n0", "n2"))
        assert not engine.retract_fact(("S", "n0", "n2"))  # never asserted
        assert engine.holds(("S", "n0", "n2"))

    def test_retract_then_readd_before_saturation(self) -> None:
        engine = saturated(chain(5), clauses=(TRANS,))
        engine.retract_fact(("S", "n2", "n3"))
        engine.add_fact(("S", "n2", "n3"))
        assert engine.facts() == saturated(chain(5), clauses=(TRANS,)).facts()

    def test_retract_and_add_in_one_batch(self) -> None:
        engine = saturated(chain(5), clauses=(TRANS,))
        engine.retract_fact(("S", "n2", "n3"))
        engine.add_fact(("S", "n2", "x"))
        expected = saturated(
            chain(5, skip=2) + [("S", "n2", "x")], clauses=(TRANS,)
        )
        assert engine.facts() == expected.facts()
        assert engine.last_stats["mode"] == "retract"

    def test_base_overlay_facts_are_shielded_from_overdeletion(
        self,
    ) -> None:
        """Facts supplied through a FactStore base overlay are
        extensional input too: the DRed cone must never swallow them
        (DRed must agree with the naive engine's replay from base)."""
        for engine_cls in (HornEngine, NaiveHornEngine):
            base = FactStore()
            base.add(("S", "a", "c"))
            engine = engine_cls(store=FactStore(base=base))
            engine.add_clause(TRANS)
            engine.add_fact(("S", "a", "b"))
            engine.add_fact(("S", "b", "c"))
            engine.saturate()
            engine.retract_fact(("S", "b", "c"))
            assert engine.holds(("S", "a", "c")), engine_cls
            assert not engine.holds(("S", "b", "c")), engine_cls

    def test_non_ground_retraction_raises(self) -> None:
        engine = HornEngine()
        with pytest.raises(InferenceError):
            engine.retract_fact(("S", "?x", "b"))

    def test_shielded_base_fact_explains_itself(self) -> None:
        """A base-asserted fact whose recorded proof cites a retracted
        premise must fall back to self-explanation, never cite a fact
        that no longer holds."""
        engine = saturated(
            [("S", "a", "b"), ("S", "b", "c")], clauses=(TRANS,)
        )
        engine.add_fact(("S", "a", "c"))  # derived earlier, now base too
        engine.retract_fact(("S", "a", "b"))
        engine.saturate()
        assert engine.explain(("S", "a", "c")) == [("S", "a", "c")]

    def test_explanations_stay_grounded_in_surviving_base(self) -> None:
        engine = saturated(
            [
                ("S", "a", "b"),
                ("S", "b", "d"),
                ("S", "a", "c"),
                ("S", "c", "d"),
            ]
        )
        engine.retract_fact(("S", "a", "b"))
        for atom in engine.facts():
            explanation = engine.explain(atom)
            assert explanation
            assert set(explanation) <= engine.base_facts()


class TestRetractClause:
    def test_clause_retraction_after_fixpoint(self) -> None:
        engine = saturated(chain(4), clauses=(TRANS, LIFT))
        assert engine.holds(("implies", "n0", "n3"))
        assert engine.retract_clause(LIFT)
        assert engine.facts("implies") == set()
        assert engine.facts() == saturated(
            chain(4), clauses=(TRANS,)
        ).facts()
        assert engine.last_stats["mode"] == "retract"

    def test_unknown_clause_is_refused(self) -> None:
        engine = saturated(chain(3), clauses=(TRANS,))
        assert not engine.retract_clause(LIFT)
        assert engine.retract_clause(TRANS)
        assert not engine.retract_clause(TRANS)

    def test_pending_clause_is_dequeued(self) -> None:
        """Retracting a clause that was queued but never propagated
        must not cost an overdeletion pass."""
        engine = saturated(chain(4), clauses=(TRANS,))
        engine.add_clause(LIFT)
        assert engine.retract_clause(LIFT)
        assert engine.saturate() == 0  # nothing pending anymore
        assert engine.facts("implies") == set()

    def test_bodiless_clause_retracts_its_fact(self) -> None:
        engine = HornEngine()
        engine.add_clause(HornClause(("S", "a", "b"), ()))
        engine.saturate()
        assert engine.retract_clause(HornClause(("S", "a", "b"), ()))
        assert engine.facts() == set()

    def test_interleaved_clause_and_fact_churn(self) -> None:
        engine = saturated(chain(4), clauses=(TRANS, LIFT, IMPL_TRANS))
        engine.retract_clause(IMPL_TRANS)
        engine.retract_fact(("S", "n1", "n2"))
        engine.add_fact(("instance_of", "o1", "n0"))
        engine.add_clause(INSTANCE)
        expected = oracle_engine(
            set(chain(4, skip=1)) | {("instance_of", "o1", "n0")},
            [TRANS, LIFT, INSTANCE],
        )
        assert engine.facts() == expected.facts()


class _FailingStore(FactStore):
    """A store whose ``add`` raises once an armed insert budget is
    spent — a disk filling up in the middle of a saturation."""

    def __init__(self) -> None:
        super().__init__()
        self.budget: int | None = None

    def add(self, atom):
        if self.budget is not None:
            if self.budget == 0:
                raise OSError("no space left on device")
            self.budget -= 1
        return super().add(atom)


class TestFallbackPaths:
    def test_partial_saturation_retraction_replays_from_base(self) -> None:
        """A saturation that raised part-way leaves derived facts in an
        unsaturated engine.  Retracting a base fact must then schedule
        a replay from base: unlinking it in place would keep the
        derived facts that cite it."""
        store = _FailingStore()
        engine = HornEngine(store=store)
        engine.add_clause(TRANS)
        engine.add_facts(chain(6))
        store.budget = 5  # round one's five spans land, round two fails
        with pytest.raises(OSError):
            engine.saturate()
        store.budget = None
        assert not engine.is_saturated
        assert ("S", "n1", "n3") in store  # derived through (n2, n3)
        assert engine.retract_fact(("S", "n2", "n3"))
        assert engine._needs_rebuild
        expected = oracle_engine(set(chain(6, skip=2)), [TRANS]).facts()
        assert len(expected) == 9
        assert engine.facts() == expected
        assert engine.store is store

    def test_unsaturated_engine_retracts_exactly(self) -> None:
        engine = HornEngine()
        engine.add_clause(TRANS)
        engine.add_facts(chain(6))
        engine.retract_fact(("S", "n2", "n3"))  # before first fixpoint
        # Nothing was ever derived, so the fact is unlinked in place —
        # no store replay is queued.
        assert not engine._needs_rebuild
        assert ("S", "n2", "n3") not in engine.store
        assert engine.facts() == saturated(
            chain(6, skip=2), clauses=(TRANS,)
        ).facts()

    def test_replay_preserves_external_tombstones_and_store(self) -> None:
        """The replay fallback must not resurrect facts an external
        overlay owner tombstoned, nor detach the caller's store."""
        base = FactStore()
        base.add(("S", "a", "b"))
        overlay = FactStore(base=base)
        overlay.remove(("S", "a", "b"))  # owner's deletion delta
        engine = HornEngine(store=overlay, rebuild_crossover=1)
        engine.add_clause(TRANS)
        engine.add_facts([("S", "b", "c"), ("S", "x", "y")])
        engine.saturate()
        assert not engine.holds(("S", "a", "c"))
        report = engine.apply_batch(retracts=[("S", "x", "y")])
        assert report["decision"] == "rebuild"  # replay from base
        assert not engine.holds(("S", "a", "c"))  # tombstone survived
        assert not engine.holds(("S", "a", "b"))
        assert engine.store is overlay  # same object the caller owns

    def test_goal_directed_engine_forgets_removed_facts(self) -> None:
        engine = GoalDirectedEngine()
        engine.add_clauses([TRANS, LIFT])
        engine.add_facts(chain(5))
        assert engine.holds(("implies", "n0", "n4"))
        assert engine.remove_fact(("S", "n2", "n3"))
        assert not engine.holds(("implies", "n0", "n4"))
        assert engine.holds(("implies", "n0", "n2"))
        assert not engine.remove_fact(("S", "n2", "n3"))

    def test_goal_directed_engine_retracts_clauses(self) -> None:
        engine = GoalDirectedEngine()
        engine.add_clauses([TRANS, LIFT])
        engine.add_facts(chain(4))
        assert engine.holds(("implies", "n0", "n3"))
        assert engine.retract_clause(TRANS)
        assert not engine.holds(("implies", "n0", "n3"))
        assert engine.holds(("implies", "n0", "n1"))
        assert not engine.retract_clause(TRANS)

    def test_goal_directed_duplicate_adds_retract_fully(self) -> None:
        """add_clause dedups (HornEngine parity), so one retraction
        removes the clause no matter how often it was added."""
        engine = GoalDirectedEngine()
        engine.add_clause(TRANS)
        engine.add_clause(TRANS)
        engine.add_facts(chain(3))
        assert engine.holds(("S", "n0", "n2"))
        assert engine.retract_clause(TRANS)
        assert not engine.holds(("S", "n0", "n2"))


# ----------------------------------------------------------------------
# retraction must do work proportional to the cone, not the database
# ----------------------------------------------------------------------
class TestRetractionWork:
    def test_single_retraction_beats_rebuild_asymptotically(self) -> None:
        """Retracting one base fact from the saturated 80-node closure
        must examine a small fraction of a rebuild's join candidates
        (the acceptance-criteria counter check; the benchmark records
        the same numbers in BENCH_retraction.json)."""
        n = 80
        engine = saturated(chain(n), clauses=(TRANS,))
        engine.retract_fact(("S", f"n{n-1}", f"n{n}"))
        engine.saturate()
        retract_stats = dict(engine.last_stats)

        rebuild = saturated(chain(n, skip=n - 1), clauses=(TRANS,))
        rebuild_stats = dict(rebuild.last_stats)

        assert engine.facts() == rebuild.facts()
        assert retract_stats["mode"] == "retract"
        # the cone: the retracted edge plus every derived (i, n) span
        assert retract_stats["overdeleted"] == n
        assert retract_stats["rederived"] == 0
        assert (
            retract_stats["candidates"] * 5 < rebuild_stats["candidates"]
        )

    def test_middle_retraction_still_tracks_cone(self) -> None:
        n = 40
        engine = saturated(chain(n), clauses=(TRANS,))
        engine.retract_fact(("S", "n20", "n21"))
        engine.saturate()
        stats = dict(engine.last_stats)
        # spans crossing the cut: (i <= 20) x (j >= 21)
        assert stats["overdeleted"] == 21 * 20
        rebuild = saturated(chain(n, skip=20), clauses=(TRANS,))
        assert engine.facts() == rebuild.facts()


# ----------------------------------------------------------------------
# hypothesis churn parity: incremental == from-scratch, every step
# ----------------------------------------------------------------------
class TestChurnScriptParity:
    @given(churn_scripts())
    @settings(max_examples=50, deadline=None)
    def test_stepwise_parity_stratified(self, script) -> None:
        _, snapshots = replay_incremental(script, seed_clauses=(TRANS,))
        assert snapshots == oracle_states(script, seed_clauses=(TRANS,))

    @given(churn_scripts())
    @settings(max_examples=30, deadline=None)
    def test_stepwise_parity_flat(self, script) -> None:
        _, snapshots = replay_incremental(
            script, engine_cls=FlatHornEngine, seed_clauses=(TRANS,)
        )
        assert snapshots == oracle_states(script, seed_clauses=(TRANS,))

    @given(churn_scripts(max_ops=20))
    @settings(max_examples=30, deadline=None)
    def test_batched_saturation_parity(self, script) -> None:
        """Saturating every third op exercises mixed pending queues —
        additions and retractions outstanding at once."""
        _, snapshots = replay_incremental(
            script, saturate_every=3, seed_clauses=CLAUSE_POOL
        )
        assert snapshots == oracle_states(
            script, saturate_every=3, seed_clauses=CLAUSE_POOL
        )

    @given(churn_scripts())
    @settings(max_examples=25, deadline=None)
    def test_holds_and_explain_after_churn(self, script) -> None:
        engine, _ = replay_incremental(script, seed_clauses=(TRANS, LIFT))
        base = engine.base_facts()
        for atom in sorted(engine.facts())[:10]:
            assert engine.holds(atom)
            assert set(engine.explain(atom)) <= base
