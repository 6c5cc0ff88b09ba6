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
from repro.inference.horn import FactStore, HornEngine

from tests.support.baselines import FlatHornEngine
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
# FactStore.remove
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

    def test_crossover_rebuild_keeps_caller_store(self) -> None:
        """A batch past the crossover replays from base in place: the
        engine keeps working on the store object the caller supplied."""
        store = FactStore()
        engine = HornEngine(store=store)
        engine.rebuild_crossover = 1
        engine.add_clause(TRANS)
        engine.add_facts(chain(4))
        engine.saturate()
        report = engine.apply_batch(retracts=[("S", "n1", "n2")])
        assert report["decision"] == "rebuild"  # replay from base
        assert engine.facts() == oracle_engine(
            set(chain(4, skip=1)), [TRANS]
        ).facts()
        assert engine.store is store  # same object the caller owns


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
