"""Chaos campaigns: churn under seeded fault injection, oracle-checked.

The maintenance experiments (paper §5.3, §6) assume the inference
runtime survives its environment: the process can crash between
journaling a churn batch and reaching its fixpoint.
:func:`run_chaos_campaign` drives a deterministic batched churn
workload through an engine configured with a
:class:`~repro.reliability.faults.FaultPlan` and proves the robustness
contract end to end: after every injected crash and journal recovery,
the final fact set is **bit-for-bit equal** to a fault-free
from-scratch oracle over the same surviving base facts.

Everything is seeded — the batches, the fault plan's per-site RNG
streams — so a failing campaign replays exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.core.rules import HornClause
from repro.inference.horn import Atom, HornEngine
from repro.reliability import ChurnJournal, FaultInjected, FaultPlan

__all__ = [
    "CHAOS_CLAUSES",
    "ChaosResult",
    "chaos_batches",
    "run_chaos_campaign",
]

# A recursive program small enough to saturate per batch but deep
# enough to span several strata: subclass transitivity, the lift into
# implication, implication transitivity, and instance inheritance.
CHAOS_CLAUSES: tuple[HornClause, ...] = (
    HornClause(("S", "?x", "?z"), (("S", "?x", "?y"), ("S", "?y", "?z"))),
    HornClause(("implies", "?x", "?y"), (("S", "?x", "?y"),)),
    HornClause(
        ("implies", "?x", "?z"),
        (("implies", "?x", "?y"), ("implies", "?y", "?z")),
    ),
    HornClause(
        ("instance_of", "?o", "?c2"),
        (("instance_of", "?o", "?c1"), ("implies", "?c1", "?c2")),
    ),
)


def chaos_batches(
    *,
    batches: int = 8,
    ops_per_batch: int = 10,
    seed: int = 0,
    n_nodes: int = 8,
) -> list[tuple[list[Atom], list[Atom]]]:
    """Deterministic ``(adds, retracts)`` diffs for a churn campaign.

    Retracts are drawn from the same atom distribution as adds, so
    batches naturally mix genuine deletions with no-op retractions —
    the oracle's plain-set semantics define what each one means.
    """
    rng = random.Random(seed)

    def atom() -> Atom:
        if rng.random() < 0.25:
            return (
                "instance_of",
                f"o{rng.randrange(3)}",
                f"v{rng.randrange(n_nodes)}",
            )
        return (
            "S",
            f"v{rng.randrange(n_nodes)}",
            f"v{rng.randrange(n_nodes)}",
        )

    out: list[tuple[list[Atom], list[Atom]]] = []
    for _ in range(batches):
        n_adds = rng.randint(1, ops_per_batch)
        n_retracts = rng.randint(0, max(1, ops_per_batch // 2))
        out.append(
            ([atom() for _ in range(n_adds)], [atom() for _ in range(n_retracts)])
        )
    return out


@dataclass
class ChaosResult:
    """What one chaos campaign survived — and whether parity held."""

    parity: bool
    batches: int
    recoveries: int
    facts: int
    oracle_facts: int
    elapsed_ms: float
    fault_summary: dict[str, dict[str, int]] = field(default_factory=dict)


def _oracle_facts(
    batch_list: list[tuple[list[Atom], list[Atom]]],
    clauses: tuple[HornClause, ...],
) -> set[Atom]:
    """Fault-free ground truth: fold the diffs with plain set
    semantics (retract-then-add, matching ``apply_batch``) and
    saturate a fresh engine from scratch."""
    base: set[Atom] = set()
    for adds, retracts in batch_list:
        for fact in retracts:
            base.discard(fact)
        for fact in adds:
            base.add(fact)
    engine = HornEngine()
    engine.add_clauses(clauses)
    engine.add_facts(sorted(base))
    engine.saturate()
    return engine.facts()


def run_chaos_campaign(
    journal_path: str | Path,
    *,
    batches: int = 8,
    ops_per_batch: int = 10,
    seed: int = 0,
    fault_plan: FaultPlan | None = None,
    clauses: tuple[HornClause, ...] = CHAOS_CLAUSES,
    snapshot_every: int = 4,
) -> ChaosResult:
    """Run a batched churn campaign under injected faults; verify the
    final state against the fault-free oracle.

    Each batch rides crash-safe :meth:`HornEngine.apply_batch`.  An
    injected ``batch_crash`` surfaces as
    :class:`~repro.reliability.faults.FaultInjected` after the diff is
    journaled but before the engine mutates — the campaign then does
    what a restarted process would: discards the engine and calls
    :meth:`ChurnJournal.recover`, which replays the crashed batch as
    durable history.
    """
    batch_list = chaos_batches(
        batches=batches, ops_per_batch=ops_per_batch, seed=seed
    )
    oracle = _oracle_facts(batch_list, clauses)

    started = perf_counter()
    journal = ChurnJournal(journal_path)
    engine = HornEngine(fault_plan=fault_plan, journal=journal)
    engine.add_clauses(clauses)
    engine.saturate()
    # the snapshot carries the program: recovery needs the clauses
    journal.snapshot(engine)

    result = ChaosResult(
        parity=False,
        batches=len(batch_list),
        recoveries=0,
        facts=0,
        oracle_facts=len(oracle),
        elapsed_ms=0.0,
    )
    for index, (adds, retracts) in enumerate(batch_list):
        try:
            engine.apply_batch(adds, retracts)
        except FaultInjected:
            # the diff is durable, the engine state is not: recover
            # exactly as a restarted process would.  The crashed batch
            # is replayed by recovery — do not re-apply it.
            result.recoveries += 1
            engine, _report = journal.recover(fault_plan=fault_plan)
        if snapshot_every and (index + 1) % snapshot_every == 0:
            journal.snapshot(engine)

    final = engine.facts()
    result.elapsed_ms = (perf_counter() - started) * 1000.0
    result.facts = len(final)
    result.parity = final == oracle
    if fault_plan is not None:
        result.fault_summary = fault_plan.summary()
    return result
