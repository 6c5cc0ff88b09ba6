"""Chaos campaigns: churn with process crashes, oracle-checked.

The maintenance experiments (paper §5.3, §6) assume the inference
runtime survives its environment: the process can die between
journaling a churn batch and reaching its fixpoint.
:func:`run_chaos_campaign` drives a deterministic batched churn
workload through a journaled engine, crashes it at the batch indexes
in ``crash_at``, and proves the robustness contract end to end: after
every crash and journal recovery, the final fact set is **bit-for-bit
equal** to a crash-free from-scratch oracle over the same surviving
base facts.

A crash at batch ``i`` writes that batch's begin record with
:meth:`ChurnJournal.begin`, then abandons the engine and recovers from
a fresh :class:`ChurnJournal` on the same path — the on-disk state a
process killed after the durable begin leaves behind.  ``on_crash``
runs between the two; a child process passes one that SIGKILLs itself,
and its parent finishes the campaign with ``resume_after``.

Everything is seeded, so a failing campaign replays exactly.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Collection
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.core.rules import HornClause
from repro.inference.horn import Atom, HornEngine
from repro.reliability import ChurnJournal

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


def _oracle_facts(
    batch_list: list[tuple[list[Atom], list[Atom]]],
    clauses: tuple[HornClause, ...],
) -> set[Atom]:
    """Crash-free ground truth: fold the diffs with plain set
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
    crash_at: Collection[int] = (),
    clauses: tuple[HornClause, ...] = CHAOS_CLAUSES,
    snapshot_every: int = 4,
    on_crash: Callable[[], None] | None = None,
    resume_after: int | None = None,
) -> ChaosResult:
    """Run a batched churn campaign that crashes at the batch indexes
    in ``crash_at``; verify the final state against the oracle.

    ``resume_after`` finishes a campaign whose process was killed at
    that batch index instead: it recovers the journal the dead process
    left and runs the later batches.
    """
    batch_list = chaos_batches(
        batches=batches, ops_per_batch=ops_per_batch, seed=seed
    )
    oracle = _oracle_facts(batch_list, clauses)

    started = perf_counter()
    journal = ChurnJournal(journal_path)
    recoveries = 0
    if resume_after is not None:
        engine, _report = journal.recover()
        recoveries += 1
    else:
        engine = HornEngine(journal=journal)
        engine.add_clauses(clauses)
        engine.saturate()
        # the snapshot carries the program: recovery needs the clauses
        journal.snapshot(engine)
    first = 0 if resume_after is None else resume_after + 1
    for index in range(first, len(batch_list)):
        adds, retracts = batch_list[index]
        if index in crash_at:
            # the diff is durable, the engine state is not: recover
            # exactly as a restarted process would.  The crashed batch
            # is replayed by recovery — do not re-apply it.
            journal.begin(adds, retracts)
            if on_crash is not None:
                on_crash()
            recoveries += 1
            journal = ChurnJournal(journal_path)
            engine, _report = journal.recover()
        else:
            engine.apply_batch(adds, retracts)
        if snapshot_every and (index + 1) % snapshot_every == 0:
            journal.snapshot(engine)

    final = engine.facts()
    return ChaosResult(
        parity=final == oracle,
        batches=len(batch_list),
        recoveries=recoveries,
        facts=len(final),
        oracle_facts=len(oracle),
        elapsed_ms=(perf_counter() - started) * 1000.0,
    )
