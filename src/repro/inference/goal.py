"""Goal-directed Horn evaluation by relevance slicing.

The ONION architecture promises "the ability to plug in different
semantic reasoning components and inference engines" (§6).  The
forward engine in :mod:`repro.inference.horn` saturates the *whole*
program — right when many queries will follow, wasteful when the
expert asks one subsumption question over a big unified graph whose
program mixes many predicates (``S``, ``A``, ``I``, ``SI``,
``SIBridge``, ``implies``, ``instance_of``, ...).

:class:`GoalDirectedEngine` is the second pluggable engine.  To answer
a goal it:

1. computes the set of predicates *relevant* to the goal — the
   backward closure of the goal's predicate over the clause dependency
   graph (a head depends on its body predicates);
2. saturates (semi-naive) only the clauses whose head is relevant,
   over only the facts of relevant predicates;
3. memoizes that slice, so later goals over the same predicate family
   are answered from the cache.

Slices are cheap to build: base facts live in one master
:class:`~repro.inference.horn.FactStore` whose argument-position
indexes every slice shares through a copy-free overlay (the slice adds
only its *derived* facts to a private layer), and compiled clause
plans are shared process-wide through the compilation cache — so
building a slice does no per-fact copying and no re-analysis of
clauses.

Because the slice is closed under the rules that can derive goal-
predicate facts, the answers equal full saturation restricted to the
goal predicate — the agreement property the test suite checks — while
untouched predicate families cost nothing.  The INFER benchmark
quantifies the saving on articulation-scale programs.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Iterable

from repro.core.rules import HornClause
from repro.errors import InferenceError
from repro.inference.horn import (
    Atom,
    FactStore,
    HornEngine,
    is_ground,
    require_ground,
)

__all__ = ["GoalDirectedEngine"]


class GoalDirectedEngine:
    """Answers goals by saturating only the relevant program slice."""

    def __init__(
        self,
        *,
        strategy: str = "seminaive",
        storage: str = "memory",
        storage_path: str | None = None,
        buffer_facts: int | None = None,
    ) -> None:
        self.strategy = strategy
        if storage == "paged":
            from repro.kb.pagestore import PagedFactStore

            kwargs: dict[str, int] = {}
            if buffer_facts is not None:
                kwargs["buffer_facts"] = buffer_facts
            # the master base store pages through SQLite; each goal
            # slice stays a copy-free in-memory overlay on top of it,
            # so slice saturation writes never touch the disk store
            self._store: FactStore = PagedFactStore(  # type: ignore[assignment]
                storage_path, **kwargs
            )
        elif storage == "memory":
            self._store = FactStore()  # master base facts, shared indexes
        else:
            raise InferenceError(f"unknown storage backend {storage!r}")
        self._clauses: list[HornClause] = []
        self._clause_set: set[HornClause] = set()
        # predicate -> predicates its derivation may depend on (direct)
        self._depends: dict[str, set[str]] = defaultdict(set)
        # memo: frozen relevant-predicate set -> saturated sub-engine
        self._slices: dict[frozenset[str], HornEngine] = {}
        self.last_slice_stats: dict[str, int] = {}

    # ------------------------------------------------------------------
    # program construction (mirrors HornEngine's API)
    # ------------------------------------------------------------------
    def add_fact(self, atom: Atom) -> bool:
        if not is_ground(atom):
            raise InferenceError(f"facts must be ground: {atom!r}")
        if not self._store.add(atom):
            return False
        self._slices.clear()
        return True

    def add_facts(self, atoms: Iterable[Atom]) -> int:
        return sum(1 for atom in atoms if self.add_fact(atom))

    def remove_fact(self, atom: Atom) -> bool:
        """Retract a base fact from the master store.

        Every memoized slice overlays the master store, so a shrink
        invalidates them all: the next goal rebuilds its slice against
        the surviving base facts — by construction equal to
        saturating the shrunk program from scratch.
        """
        if not self._store.remove(atom):
            return False
        self._slices.clear()
        return True

    def remove_facts(self, atoms: Iterable[Atom]) -> int:
        return sum(1 for atom in atoms if self.remove_fact(atom))

    def apply_batch(
        self, adds: Iterable[Atom] = (), retracts: Iterable[Atom] = ()
    ) -> dict[str, int]:
        """Batched fact churn: retractions first, then additions.

        Per-op :meth:`add_fact` / :meth:`remove_fact` each invalidate
        the memo, so interleaved churn rebuilds slices that the next
        edit throws away again; a batch pays one invalidation for the
        whole diff — and none at all when every edit was a no-op.
        Returns ``{"added", "retracted"}`` counts.  A batch holding
        any non-ground atom raises :class:`InferenceError` before the
        master store changes.
        """
        adds = list(adds)
        retracts = list(retracts)
        require_ground(retracts + adds)
        retracted = sum(1 for atom in retracts if self._store.remove(atom))
        added = sum(1 for atom in adds if self._store.add(atom))
        if added or retracted:
            self._slices.clear()
        return {"added": added, "retracted": retracted}

    def add_clause(self, clause: HornClause) -> None:
        if not clause.body:
            self.add_fact(clause.head)
            return
        if clause in self._clause_set:
            return  # duplicates only repeat work (HornEngine parity)
        self._clause_set.add(clause)
        self._clauses.append(clause)
        for atom in clause.body:
            self._depends[clause.head[0]].add(atom[0])
        self._slices.clear()

    def add_clauses(self, clauses: Iterable[HornClause]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def retract_clause(self, clause: HornClause) -> bool:
        """Remove a clause from the program (and invalidate slices)."""
        if not clause.body:
            return self.remove_fact(clause.head)
        if clause not in self._clause_set:
            return False
        self._clause_set.discard(clause)
        self._clauses.remove(clause)
        self._depends = defaultdict(set)
        for remaining in self._clauses:
            for atom in remaining.body:
                self._depends[remaining.head[0]].add(atom[0])
        self._slices.clear()
        return True

    # ------------------------------------------------------------------
    # relevance slicing
    # ------------------------------------------------------------------
    def relevant_predicates(self, goal_predicate: str) -> frozenset[str]:
        """Backward closure of the goal predicate over clause heads."""
        seen = {goal_predicate}
        frontier: deque[str] = deque([goal_predicate])
        while frontier:
            predicate = frontier.popleft()
            for dependency in self._depends.get(predicate, ()):
                if dependency not in seen:
                    seen.add(dependency)
                    frontier.append(dependency)
        return frozenset(seen)

    def _slice_for(self, goal_predicate: str) -> HornEngine:
        relevant = self.relevant_predicates(goal_predicate)
        cached = self._slices.get(relevant)
        if cached is not None:
            return cached
        # The slice overlays the master store: base facts and their
        # argument indexes are read in place, derived facts land in
        # the slice's private layer.  Compiled clause plans come from
        # the process-wide compilation cache.
        engine = HornEngine(
            strategy=self.strategy,
            store=FactStore(base=self._store, visible=relevant),
        )
        n_clauses = 0
        for clause in self._clauses:
            if clause.head[0] in relevant:
                engine.add_clause(clause)
                n_clauses += 1
        engine.saturate()
        self._slices[relevant] = engine
        self.last_slice_stats = {
            "predicates": len(relevant),
            "facts": sum(
                self._store.pool_size(pred) for pred in relevant
            ),
            "clauses": n_clauses,
            "total_facts": len(self._store),
            "total_clauses": len(self._clauses),
        }
        return engine

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def holds(self, atom: Atom) -> bool:
        if not is_ground(atom):
            raise InferenceError(
                f"holds() needs a ground atom, got {atom!r}; use query()"
            )
        return self._slice_for(atom[0]).holds(atom)

    def query(self, pattern: Atom) -> list[dict[str, str]]:
        return self._slice_for(pattern[0]).query(pattern)

    def facts(self, predicate: str) -> set[Atom]:
        """All derivable facts of one predicate (its slice's view)."""
        return self._slice_for(predicate).facts(predicate)

    def iter_facts(self, predicate: str):
        """Non-copying iterator over one predicate's derivable facts."""
        return self._slice_for(predicate).iter_facts(predicate)

    def explain(self, atom: Atom) -> list[Atom]:
        """Base facts supporting a derivable atom (delegated)."""
        return self._slice_for(atom[0]).explain(atom)

    def fact_count(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<GoalDirectedEngine facts={self.fact_count()} "
            f"clauses={len(self._clauses)} slices={len(self._slices)}>"
        )
