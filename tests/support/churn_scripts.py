"""A hypothesis generator for churn scripts, plus replay harnesses.

A *churn script* is a random interleaving of the four mutations the
incremental Horn engine supports after a fixpoint — ``add_fact``,
``retract_fact``, ``add_clause``, ``retract_clause`` — over a small
universe of closure/lift/instance clauses and chain-ish facts.  The
harness replays a script two ways:

* :func:`replay_incremental` feeds every operation into one long-lived
  :class:`~repro.inference.horn.HornEngine`, saturating at the chosen
  checkpoints, so additions ride delta propagation and retractions
  ride the DRed overdelete/rederive pass;
* :func:`oracle_states` folds the same script into plain sets (the
  surviving base facts and clauses after each step) and saturates a
  **fresh** engine from scratch per checkpoint — the ground truth the
  incremental engine must match exactly.

Scripts deliberately include no-op edits (retracting facts that were
never asserted, re-adding live facts, retracting clauses twice): the
oracle defines their semantics, and the parity suites assert the
incremental engine agrees after *every* step, not just at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import strategies as st

from repro.core.rules import HornClause
from repro.inference.horn import Atom, HornEngine

__all__ = [
    "CLAUSE_POOL",
    "ChurnOp",
    "churn_scripts",
    "oracle_engine",
    "oracle_states",
    "replay_incremental",
]

TRANS = HornClause(
    ("S", "?x", "?z"), (("S", "?x", "?y"), ("S", "?y", "?z"))
)
LIFT = HornClause(("implies", "?x", "?y"), (("S", "?x", "?y"),))
IMPL_TRANS = HornClause(
    ("implies", "?x", "?z"),
    (("implies", "?x", "?y"), ("implies", "?y", "?z")),
)
INSTANCE = HornClause(
    ("instance_of", "?o", "?c2"),
    (("instance_of", "?o", "?c1"), ("implies", "?c1", "?c2")),
)
SYM = HornClause(("E", "?y", "?x"), (("E", "?x", "?y"),))
E_LIFT = HornClause(("S", "?x", "?y"), (("E", "?x", "?y"),))

CLAUSE_POOL: tuple[HornClause, ...] = (
    TRANS,
    LIFT,
    IMPL_TRANS,
    INSTANCE,
    SYM,
    E_LIFT,
)


@dataclass(frozen=True)
class ChurnOp:
    """One scripted edit: kind plus its fact or clause-pool payload."""

    kind: str  # add_fact | retract_fact | add_clause | retract_clause
    fact: Atom | None = None
    clause_index: int | None = None


def _node(i: int) -> str:
    return f"v{i}"


_fact_atoms = st.one_of(
    st.tuples(
        st.just("S"),
        st.integers(0, 5).map(_node),
        st.integers(0, 5).map(_node),
    ),
    st.tuples(
        st.just("E"),
        st.integers(0, 5).map(_node),
        st.integers(0, 5).map(_node),
    ),
    st.tuples(
        st.just("instance_of"),
        st.integers(0, 2).map(lambda i: f"o{i}"),
        st.integers(0, 5).map(_node),
    ),
)

_ops = st.one_of(
    st.builds(ChurnOp, kind=st.just("add_fact"), fact=_fact_atoms),
    st.builds(ChurnOp, kind=st.just("retract_fact"), fact=_fact_atoms),
    st.builds(
        ChurnOp,
        kind=st.just("add_clause"),
        clause_index=st.integers(0, len(CLAUSE_POOL) - 1),
    ),
    st.builds(
        ChurnOp,
        kind=st.just("retract_clause"),
        clause_index=st.integers(0, len(CLAUSE_POOL) - 1),
    ),
)


def churn_scripts(
    *, max_ops: int = 14, min_ops: int = 1
) -> st.SearchStrategy[list[ChurnOp]]:
    """Random add/retract interleavings over the clause pool.

    Retractions are drawn from the same distributions as additions, so
    scripts naturally mix genuine deletions with no-op retractions of
    facts and clauses that are not (or no longer) present.
    """
    return st.lists(_ops, min_size=min_ops, max_size=max_ops)


def _apply(engine: HornEngine, op: ChurnOp) -> None:
    if op.kind == "add_fact":
        engine.add_fact(op.fact)
    elif op.kind == "retract_fact":
        engine.retract_fact(op.fact)
    elif op.kind == "add_clause":
        engine.add_clause(CLAUSE_POOL[op.clause_index])
    elif op.kind == "retract_clause":
        engine.retract_clause(CLAUSE_POOL[op.clause_index])
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown churn op kind {op.kind!r}")


def replay_incremental(
    script: list[ChurnOp],
    *,
    strategy: str = "seminaive",
    scheduling: str = "stratified",
    saturate_every: int = 1,
    seed_clauses: tuple[HornClause, ...] = (),
    storage: str = "memory",
    buffer_facts: int | None = None,
) -> tuple[HornEngine, list[set[Atom]]]:
    """Replay a script into one engine; snapshot facts per checkpoint.

    ``saturate_every=k`` saturates (and snapshots) after every ``k``-th
    operation and once more at the end, so parity is checked mid-flight
    — including states where additions and retractions are queued
    together — not only after the final op.  ``storage="paged"`` runs
    the whole script against the disk-backed
    :class:`~repro.kb.pagestore.PagedFactStore` (a RAM-resident SQLite
    database, so the paging machinery is exercised at test speed);
    ``buffer_facts`` sizes its buffer pool (the store default when
    ``None``).
    """
    engine = HornEngine(
        strategy=strategy,
        scheduling=scheduling,
        storage=storage,
        storage_path=":memory:" if storage == "paged" else None,
        buffer_facts=buffer_facts,
    )
    engine.add_clauses(seed_clauses)
    snapshots: list[set[Atom]] = []
    for index, op in enumerate(script):
        _apply(engine, op)
        if (index + 1) % saturate_every == 0:
            engine.saturate()
            snapshots.append(engine.facts())
    engine.saturate()
    snapshots.append(engine.facts())
    return engine, snapshots


def oracle_engine(
    base_facts: set[Atom], clauses: list[HornClause]
) -> HornEngine:
    """A fresh from-scratch saturation over exactly these inputs."""
    engine = HornEngine()
    engine.add_clauses(clauses)
    engine.add_facts(sorted(base_facts))
    engine.saturate()
    return engine


def oracle_states(
    script: list[ChurnOp],
    *,
    saturate_every: int = 1,
    seed_clauses: tuple[HornClause, ...] = (),
) -> list[set[Atom]]:
    """From-scratch ground truth at every checkpoint of the script.

    Folds the script into (base facts, clause list) with plain set
    semantics — an engine-free model of what should survive — and
    saturates a fresh engine per checkpoint.
    """
    base: set[Atom] = set()
    clauses: list[HornClause] = list(seed_clauses)
    states: list[set[Atom]] = []
    for index, op in enumerate(script):
        if op.kind == "add_fact":
            base.add(op.fact)
        elif op.kind == "retract_fact":
            base.discard(op.fact)
        elif op.kind == "add_clause":
            clause = CLAUSE_POOL[op.clause_index]
            if clause not in clauses:
                clauses.append(clause)
        elif op.kind == "retract_clause":
            clause = CLAUSE_POOL[op.clause_index]
            if clause in clauses:
                clauses.remove(clause)
        if (index + 1) % saturate_every == 0:
            states.append(oracle_engine(base, clauses).facts())
    states.append(oracle_engine(base, clauses).facts())
    return states
