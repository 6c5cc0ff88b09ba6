"""A Horn-clause forward-chaining engine.

The paper (§4.1): "Since inference engines for full first-order systems
tend not to scale up to large knowledge bases, for performance reasons,
we envisage that for a lot of applications, we will use simple Horn
Clauses to represent articulation rules.  The modular design of the
onion system implies that we can then plug in a much lighter (and
faster) inference engine."

This module is that lighter engine — rebuilt for speed around these
ideas:

* **Argument-position indexes** (:class:`FactStore`): facts are hashed
  under ``(predicate, position, value)`` so a body atom with any bound
  argument probes a hash bucket instead of scanning every fact of its
  predicate.
* **Clause compilation** (:func:`compile_clause`): each
  :class:`~repro.core.rules.HornClause` is analyzed once into join
  plans.  Variables map to fixed integer slots, body atoms are
  reordered by bound-variable connectivity, and every step knows
  statically which positions are constants, already-bound variables,
  or fresh bindings — so evaluation fills a preallocated slot array
  instead of copying a binding dict per candidate fact.
* **Stratified scheduling**: the predicate dependency graph is split
  into SCC strata evaluated in topological order, and within a round
  only the ``(clause, body-position)`` pairs whose predicate actually
  appears in the delta are visited.  Strata run serially in the
  calling process: shipping predicate partitions to worker processes
  cost more than it saved on the mediator's own programs.
* **Incremental (delta) saturation**: after a fixpoint,
  :meth:`HornEngine.add_fact` / :meth:`HornEngine.add_clause` enqueue
  deltas; the next query propagates only those deltas through the
  strata instead of re-running saturation from scratch.  The result is
  guaranteed (and property-tested) to equal from-scratch saturation.
* **Batched churn with a rebuild crossover**
  (:meth:`HornEngine.apply_batch`): a whole shrink+grow batch queues
  first and pays *one* overdelete/rederive/propagate pass instead of
  one per operation; when the batch's retraction count reaches
  :data:`DEFAULT_REBUILD_CROSSOVER`, the DRed-vs-rebuild crossover
  the retraction benchmark measured, the batch abandons the deletion
  cone and replays from base instead.
* **Incremental retraction (DRed)**: :meth:`HornEngine.retract_fact` /
  :meth:`HornEngine.retract_clause` queue deletions; the next query
  *overdeletes* the downstream cone of the retracted facts using the
  same compiled per-delta join plans, then *rederives* the survivors —
  overdeleted facts with an alternate proof among the remaining facts
  — via a head-bound support check per clause followed by semi-naive
  re-saturation restricted to the overdeleted set.  Work scales with
  the retraction's cone, not the database, and the result is
  property-tested equal to from-scratch saturation over the surviving
  base facts.

Semi-naive rounds follow the textbook *old/new* discipline: for a
clause with body atoms ``b_1 .. b_n`` and round delta ``Δ ⊆ F``, the
occurrence plan for position ``i`` joins ``b_i ∈ Δ``, ``b_j ∈ F`` for
``j < i`` and ``b_j ∈ F \\ Δ`` for ``j > i`` — each join is enumerated
exactly once even when the same delta predicate occurs at several body
positions (the transitive-closure clause).  Rounds are snapshots:
facts derived in round ``r`` become joinable in round ``r + 1``.

Derivations are recorded (optionally — disable for a faster
no-``explain`` mode) so every inferred fact can be explained back to
the expert; §2.4 requires the expert to vet what the system concluded.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.rules import HornClause
from repro.errors import InferenceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    # a runtime import would load sqlite3 into every process that
    # builds an engine, journaled or not, and raise its peak RSS
    from repro.reliability.journal import ChurnJournal

__all__ = [
    "Atom",
    "CompiledClause",
    "DEFAULT_REBUILD_CROSSOVER",
    "FactStore",
    "HornEngine",
    "compile_clause",
    "is_variable",
    "substitute",
    "unify_atom",
]

Atom = tuple[str, ...]
"""A predicate application ``(predicate, arg1, ..., argN)``."""


def is_variable(symbol: str) -> bool:
    """Variables are spelled ``?Name``."""
    return symbol.startswith("?")


def is_ground(atom: Atom) -> bool:
    return not any(is_variable(arg) for arg in atom[1:])


def require_ground(atoms: Iterable[Atom]) -> None:
    """Raise :class:`InferenceError` unless every atom is ground.

    Batch entry points call this on the whole batch before they
    journal or mutate anything, so a rejected batch leaves no trace.
    """
    for atom in atoms:
        if not is_ground(atom):
            raise InferenceError(f"facts must be ground: {atom!r}")


def substitute(atom: Atom, binding: Mapping[str, str]) -> Atom:
    """Apply a variable binding to an atom's arguments."""
    return (atom[0],) + tuple(
        binding.get(arg, arg) if is_variable(arg) else arg for arg in atom[1:]
    )


def unify_atom(
    pattern: Atom, fact: Atom, binding: Mapping[str, str] | None = None
) -> dict[str, str] | None:
    """Match a (possibly non-ground) atom against a ground fact.

    Returns the extended binding, or None on mismatch.  ``fact`` must
    be ground; repeated variables in the pattern must agree.
    """
    if pattern[0] != fact[0] or len(pattern) != len(fact):
        return None
    result = dict(binding) if binding else {}
    for pat_arg, fact_arg in zip(pattern[1:], fact[1:]):
        if is_variable(pat_arg):
            bound = result.get(pat_arg)
            if bound is None:
                result[pat_arg] = fact_arg
            elif bound != fact_arg:
                return None
        elif pat_arg != fact_arg:
            return None
    return result


def _check_safe(clause: HornClause) -> None:
    """Safe datalog: every head variable must occur in the body."""
    body_vars = {
        arg for atom in clause.body for arg in atom[1:] if is_variable(arg)
    }
    for arg in clause.head[1:]:
        if is_variable(arg) and arg not in body_vars:
            raise InferenceError(
                f"unsafe clause: head variable {arg!r} not bound by body "
                f"in {clause}"
            )


@dataclass(frozen=True, slots=True)
class Derivation:
    """Why a fact holds: the clause used and the body facts consumed."""

    clause: HornClause
    premises: tuple[Atom, ...]


# ----------------------------------------------------------------------
# fact storage: argument-position hash indexes
# ----------------------------------------------------------------------
class FactStore:
    """Ground facts indexed by ``(predicate, position, value)``.

    Pools and index buckets are insertion-ordered dicts, so
    :meth:`remove` maintains every index in O(arity) without scanning.
    """

    __slots__ = ("_facts", "_by_pred", "_index")

    def __init__(self) -> None:
        self._facts: set[Atom] = set()
        self._by_pred: dict[str, dict[Atom, None]] = {}
        self._index: dict[tuple[str, int, str], dict[Atom, None]] = {}

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def add(self, atom: Atom) -> bool:
        """Insert a ground fact; False if already present."""
        if atom in self._facts:
            return False
        self._facts.add(atom)
        predicate = atom[0]
        pool = self._by_pred.get(predicate)
        if pool is None:
            pool = self._by_pred[predicate] = {}
        pool[atom] = None
        index = self._index
        for position in range(1, len(atom)):
            key = (predicate, position, atom[position])
            bucket = index.get(key)
            if bucket is None:
                index[key] = {atom: None}
            else:
                bucket[atom] = None
        return True

    def remove(self, atom: Atom) -> bool:
        """Delete a fact, maintaining every index; False if absent."""
        if atom not in self._facts:
            return False
        self._facts.discard(atom)
        predicate = atom[0]
        pool = self._by_pred[predicate]
        del pool[atom]
        if not pool:
            del self._by_pred[predicate]
        index = self._index
        for position in range(1, len(atom)):
            key = (predicate, position, atom[position])
            bucket = index[key]
            del bucket[atom]
            if not bucket:
                del index[key]
        return True

    def pool(self, predicate: str) -> Iterator[Atom]:
        """All facts of one predicate."""
        yield from self._by_pred.get(predicate, ())

    def pool_size(self, predicate: str) -> int:
        return len(self._by_pred.get(predicate, ()))

    def probe(self, predicate: str, position: int, value: str) -> Iterator[Atom]:
        """Facts with ``value`` at ``position`` — one index bucket."""
        yield from self._index.get((predicate, position, value), ())

    def probe_size(self, predicate: str, position: int, value: str) -> int:
        return len(self._index.get((predicate, position, value), ()))

    def predicates(self) -> set[str]:
        return set(self._by_pred)

    def iter_facts(self, predicate: str | None = None) -> Iterator[Atom]:
        if predicate is not None:
            yield from self.pool(predicate)
            return
        yield from self._facts

    def copy(self) -> "FactStore":
        """An independent store holding every fact; fact by fact,
        O(closure)."""
        fresh = FactStore()
        for atom in self.iter_facts():
            fresh.add(atom)
        return fresh


# ----------------------------------------------------------------------
# clause compilation: slot-mapped, reordered join plans
# ----------------------------------------------------------------------
_POOL_ALL = 0
_POOL_DELTA = 1
_POOL_OLD = 2


@dataclass(frozen=True, slots=True)
class _Step:
    """One body atom in a join plan, fully analyzed at compile time."""

    pred: str
    arity: int  # full tuple length, predicate included
    orig: int  # position in the clause body (for old/new pools)
    pool: int  # _POOL_ALL / _POOL_DELTA / _POOL_OLD
    const_checks: tuple[tuple[int, str], ...]  # (position, constant)
    bound_checks: tuple[tuple[int, int], ...]  # (position, slot)
    same_checks: tuple[tuple[int, int], ...]  # (position, earlier position)
    binds: tuple[tuple[int, int], ...]  # (position, slot)


@dataclass(frozen=True, slots=True)
class _JoinPlan:
    steps: tuple[_Step, ...]
    delta_pred: str | None  # predicate of the delta step (None = full plan)
    body_order: tuple[int, ...]  # step index -> rank in original body order


@dataclass(frozen=True, slots=True)
class CompiledClause:
    """A clause analyzed into slot assignments and join plans.

    ``full_plan`` joins every body atom against the whole store (a new
    clause's catch-up run, and a retracted clause's conclusions).
    ``delta_plans`` has one plan per body position for semi-naive
    rounds; plan ``i`` reads position ``i`` from the delta, positions
    before it from the full store and positions after it from
    store-minus-delta, so each join is enumerated exactly once per
    round.
    """

    clause: HornClause
    head_pred: str
    head_parts: tuple[object, ...]  # str constant or int slot, per head arg
    nslots: int
    body_preds: frozenset[str]
    full_plan: _JoinPlan
    delta_plans: tuple[_JoinPlan, ...]
    # join plan with the head variables pre-bound: given a ground head,
    # checks in one backward pass whether any body instantiation still
    # supports it (the DRed rederivation probe).
    support_plan: _JoinPlan


def _analyze_atom(
    atom: Atom,
    orig: int,
    pool: int,
    slot_of: dict[str, int],
    bound_vars: set[str],
) -> _Step:
    const_checks: list[tuple[int, str]] = []
    bound_checks: list[tuple[int, int]] = []
    same_checks: list[tuple[int, int]] = []
    binds: list[tuple[int, int]] = []
    first_pos: dict[str, int] = {}
    for position in range(1, len(atom)):
        arg = atom[position]
        if not is_variable(arg):
            const_checks.append((position, arg))
        elif arg in bound_vars:
            bound_checks.append((position, slot_of[arg]))
        elif arg in first_pos:
            same_checks.append((position, first_pos[arg]))
        else:
            first_pos[arg] = position
            binds.append((position, slot_of[arg]))
    return _Step(
        atom[0],
        len(atom),
        orig,
        pool,
        tuple(const_checks),
        tuple(bound_checks),
        tuple(same_checks),
        tuple(binds),
    )


def _atom_vars(atom: Atom) -> set[str]:
    return {arg for arg in atom[1:] if is_variable(arg)}


def _order_atoms(
    body: tuple[Atom, ...],
    first: int | None,
    initial_bound: frozenset[str] = frozenset(),
) -> list[int]:
    """Greedy join order: most-bound, most-selective atom next.

    ``first`` pins the delta atom to the front (it is the small set).
    ``initial_bound`` seeds the bound-variable set (support plans start
    with the head variables bound).  Ties fall back to the original
    body order, which keeps plans deterministic.
    """
    remaining = [i for i in range(len(body)) if i != first]
    ordered = [] if first is None else [first]
    bound: set[str] = set(initial_bound)
    if first is not None:
        bound |= _atom_vars(body[first])
    while remaining:
        def score(i: int) -> tuple[int, int, int]:
            atom = body[i]
            variables = _atom_vars(atom)
            n_bound = len(variables & bound)
            n_const = sum(
                1 for arg in atom[1:] if not is_variable(arg)
            )
            n_free = len(variables - bound)
            # maximize bound connections and constants, minimize frees
            return (-(n_bound + n_const), n_free, i)

        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound |= _atom_vars(body[best])
    return ordered


def _build_plan(
    clause: HornClause,
    slot_of: dict[str, int],
    delta_index: int | None,
    initial_bound: frozenset[str] = frozenset(),
) -> _JoinPlan:
    order = _order_atoms(clause.body, delta_index, initial_bound)
    steps: list[_Step] = []
    bound: set[str] = set(initial_bound)
    for atom_index in order:
        atom = clause.body[atom_index]
        if delta_index is None:
            pool = _POOL_ALL
        elif atom_index == delta_index:
            pool = _POOL_DELTA
        elif atom_index < delta_index:
            pool = _POOL_ALL
        else:
            pool = _POOL_OLD
        steps.append(
            _analyze_atom(atom, atom_index, pool, slot_of, bound)
        )
        bound |= _atom_vars(atom)
    # ``order`` is a permutation of range(len(body)), so each step's
    # rank in body order is its body index itself.
    body_order = tuple(order)
    delta_pred = (
        clause.body[delta_index][0] if delta_index is not None else None
    )
    return _JoinPlan(tuple(steps), delta_pred, body_order)


_COMPILE_CACHE: dict[HornClause, CompiledClause] = {}


def compile_clause(clause: HornClause) -> CompiledClause:
    """Analyze a clause into join plans (cached and shared globally).

    The cache is keyed on the (frozen, hashable) clause, so every
    engine using the same clause shares one compiled form.  Programs
    hold a handful of axiom clauses, so the cache is unbounded.
    """
    cached = _COMPILE_CACHE.get(clause)
    if cached is not None:
        return cached
    _check_safe(clause)
    slot_of: dict[str, int] = {}
    for atom in clause.body:
        for arg in atom[1:]:
            if is_variable(arg) and arg not in slot_of:
                slot_of[arg] = len(slot_of)
    head_parts: list[object] = []
    for arg in clause.head[1:]:
        head_parts.append(slot_of[arg] if is_variable(arg) else arg)
    head_vars = frozenset(
        arg for arg in clause.head[1:] if is_variable(arg)
    )
    compiled = CompiledClause(
        clause=clause,
        head_pred=clause.head[0],
        head_parts=tuple(head_parts),
        nslots=len(slot_of),
        body_preds=frozenset(atom[0] for atom in clause.body),
        full_plan=_build_plan(clause, slot_of, None),
        delta_plans=tuple(
            _build_plan(clause, slot_of, i)
            for i in range(len(clause.body))
        ),
        support_plan=_build_plan(clause, slot_of, None, head_vars),
    )
    _COMPILE_CACHE[clause] = compiled
    return compiled


# ----------------------------------------------------------------------
# stratification: SCC strata of the predicate dependency graph
# ----------------------------------------------------------------------
def _stratify(compiled: list[CompiledClause]) -> list[list[CompiledClause]]:
    """Group clauses into SCC strata, dependencies first.

    Nodes are predicates; an edge ``head -> body-pred`` records that
    deriving the head needs the body predicate.  Tarjan emits SCCs
    children-first, which for this edge direction is exactly the
    evaluation order: a stratum only runs once everything it reads
    from is complete (mutually recursive predicates share a stratum).
    """
    edges: dict[str, list[str]] = defaultdict(list)
    nodes: set[str] = set()
    for cc in compiled:
        nodes.add(cc.head_pred)
        for pred in cc.body_preds:
            nodes.add(pred)
            edges[cc.head_pred].append(pred)

    scc_of: dict[str, int] = {}
    order: list[list[str]] = []
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    for root in sorted(nodes):
        if root in index_of:
            continue
        # iterative Tarjan: (node, iterator over successors)
        work = [(root, iter(edges.get(root, ())))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index_of:
                    index_of[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                for member in component:
                    scc_of[member] = len(order)
                order.append(component)

    strata: list[list[CompiledClause]] = [[] for _ in order]
    for cc in compiled:
        strata[scc_of[cc.head_pred]].append(cc)
    return [stratum for stratum in strata if stratum]


# ----------------------------------------------------------------------
# the DRed-vs-rebuild crossover
# ----------------------------------------------------------------------
DEFAULT_REBUILD_CROSSOVER = 8
"""Batch-retraction count at which :meth:`HornEngine.apply_batch`
replays from base instead of running the DRed pass.  It comes from the
``retract_vs_rebuild`` sweep in ``benchmarks/bench_retraction.py``
(k = 1, 8, 40 retractions from an 80-node chain closure): 8 is the
smallest k at which the full rebuild measured faster."""


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
def _new_stats(mode: str) -> dict[str, int | str]:
    return {
        "mode": mode,
        "rounds": 0,
        "strata": 0,
        "activations": 0,  # delta-plan runs scheduled
        "index_probes": 0,
        "candidates": 0,
        "derived": 0,
        "overdeleted": 0,  # facts removed by the DRed overdelete pass
        "rederived": 0,  # overdeleted facts restored by rederivation
    }


class HornEngine:
    """Forward-chaining evaluation of Horn clauses over ground facts.

    ``record_derivations=False`` skips provenance bookkeeping for a
    faster engine whose :meth:`explain` raises.  ``store`` lets a
    caller supply the :class:`FactStore`; absent that, ``storage``
    picks who builds it — ``"memory"`` (dict-backed
    :class:`FactStore`) or ``"paged"`` (a disk-backed
    :class:`~repro.kb.pagestore.PagedFactStore` whose index buckets
    page through a buffer pool of at most ``buffer_facts`` facts,
    living at ``storage_path`` or a private temporary file).  The
    engine never looks at which one it got: both stores answer the
    same (predicate, position, value) index contract.

    Evaluation is stratified semi-naive and serial: SCC strata run one
    after another in topological order, in the calling process, each
    to its fixpoint by delta rounds.  :attr:`rebuild_crossover` is the
    batch-retraction count at which :meth:`apply_batch` switches from
    the DRed pass to a full rebuild: :data:`DEFAULT_REBUILD_CROSSOVER`,
    or ``None`` to always run DRed.

    ``journal`` attaches a
    :class:`~repro.reliability.journal.ChurnJournal` that makes
    :meth:`apply_batch` crash-safe by write-ahead logging every diff,
    in one SQLite transaction, before it mutates the engine.
    """

    def __init__(
        self,
        *,
        record_derivations: bool = True,
        store: FactStore | None = None,
        storage: str = "memory",
        storage_path: str | None = None,
        buffer_facts: int | None = None,
        journal: ChurnJournal | None = None,
    ) -> None:
        if storage not in ("memory", "paged"):
            raise InferenceError(f"unknown storage backend {storage!r}")
        self.record_derivations = record_derivations
        self.storage = storage
        self.storage_path = storage_path
        self.buffer_facts = buffer_facts
        self.rebuild_crossover: int | None = DEFAULT_REBUILD_CROSSOVER
        self.journal = journal
        self._store = store if store is not None else self._new_store()
        self._clauses: list[HornClause] = []
        self._clause_set: set[HornClause] = set()
        self._compiled: list[CompiledClause] = []
        self._derivations: dict[Atom, Derivation] = {}
        self._saturated = False
        # the asserted (extensional) facts: retraction semantics are
        # defined against this set — the engine always answers as if
        # saturated from scratch over exactly these facts.
        self._base_facts: set[Atom] = set()
        # False until evaluation first adds a derived fact: while the
        # store holds only asserted facts, retraction is a plain
        # store.remove instead of a replay or a DRed pass.
        self._derived_ever = False
        self._pending_facts: list[Atom] = []
        self._pending_clauses: list[CompiledClause] = []
        self._pending_retractions: list[Atom] = []
        self._pending_clause_retractions: list[CompiledClause] = []
        self._needs_rebuild = False
        self._strata: list[list[CompiledClause]] | None = None
        self.last_stats: dict[str, int | str] = _new_stats("idle")

    def _new_store(self) -> FactStore:
        """The constructor's store, honoring the engine's ``storage``
        choice.  An explicit ``storage_path`` names *this* database:
        the stores :meth:`detach_store` swaps in later are
        ``store.copy()`` results, and a paged copy always lives in a
        private temporary file."""
        if self.storage == "paged":
            # local import: kb.pagestore depends on nothing in the
            # inference layer, but importing it eagerly would make the
            # in-memory fast path pay for sqlite3 at import time
            from repro.kb.pagestore import PagedFactStore

            kwargs: dict[str, int] = {}
            if self.buffer_facts is not None:
                kwargs["buffer_facts"] = self.buffer_facts
            return PagedFactStore(  # type: ignore[return-value]
                self.storage_path, **kwargs
            )
        return FactStore()

    # ------------------------------------------------------------------
    # program construction
    # ------------------------------------------------------------------
    @property
    def store(self) -> FactStore:
        return self._store

    def add_fact(self, atom: Atom) -> bool:
        """Add a ground fact; returns False if it was already known.

        After a fixpoint, new facts are queued as deltas: the next
        query propagates just them instead of re-saturating.  The atom
        is recorded as a *base* fact either way — asserting a fact
        that currently happens to be derived makes it survive the
        retraction of its premises.
        """
        if not is_ground(atom):
            raise InferenceError(f"facts must be ground: {atom!r}")
        self._base_facts.add(atom)
        if not self._store.add(atom):
            return False
        if self._saturated:
            self._pending_facts.append(atom)
        return True

    def add_facts(self, atoms: Iterable[Atom]) -> int:
        return sum(1 for atom in atoms if self.add_fact(atom))

    def retract_fact(self, atom: Atom) -> bool:
        """Retract a base fact; returns False if it was never asserted.

        Only *asserted* facts can be retracted (a derived fact holds
        exactly as long as its premises do).  On a saturated engine
        the retraction is queued and the next query runs the DRed
        overdelete/rederive pass.  An unsaturated engine that never
        derived anything unlinks the fact in place; one left holding
        derived facts by a saturation that raised part-way replays
        from its base facts on the next saturation.  A retracted fact
        that is still derivable from the surviving base facts comes
        back through rederivation.
        """
        if not is_ground(atom):
            raise InferenceError(f"facts must be ground: {atom!r}")
        if atom not in self._base_facts:
            return False
        self._base_facts.discard(atom)
        if self._saturated:
            self._pending_retractions.append(atom)
        elif not self._derived_ever:
            # Nothing has ever been derived: the store holds exactly
            # the asserted facts, so unlink in place.
            self._store.remove(atom)
        else:
            self._needs_rebuild = True
        return True

    def retract_facts(self, atoms: Iterable[Atom]) -> int:
        return sum(1 for atom in atoms if self.retract_fact(atom))

    def retract_clause(self, clause: HornClause) -> bool:
        """Remove a clause; returns False if it was never added.

        Facts only derivable through the clause are overdeleted (its
        full join plan enumerates everything it ever concluded) and
        survivors with alternate proofs are rederived, exactly like
        fact retraction.  A clause still queued from
        :meth:`add_clause` is simply dequeued — it never concluded
        anything.
        """
        if not clause.body:
            return self.retract_fact(clause.head)
        if clause not in self._clause_set:
            return False
        self._clause_set.discard(clause)
        position = self._clauses.index(clause)
        del self._clauses[position]
        compiled = self._compiled.pop(position)
        self._strata = None
        if compiled in self._pending_clauses:
            self._pending_clauses.remove(compiled)
            return True
        if self._saturated:
            self._pending_clause_retractions.append(compiled)
        elif self._derived_ever:
            self._needs_rebuild = True
        # else: the clause never concluded anything — removal suffices
        return True

    def base_facts(self) -> set[Atom]:
        """A fresh copy of the asserted (extensional) fact set."""
        return set(self._base_facts)

    def clauses(self) -> tuple[HornClause, ...]:
        """The program's clauses, in insertion order (a copy)."""
        return tuple(self._clauses)

    @property
    def is_saturated(self) -> bool:
        """At a fixpoint that incremental deltas can repair in place.

        False before the first saturation, after a saturation that
        raised part-way, and while a replay from base is scheduled
        (:meth:`apply_batch` past the rebuild crossover) — in those
        states the next query runs a full saturation, not delta
        propagation.
        """
        return self._saturated and not self._needs_rebuild

    def add_clause(self, clause: HornClause) -> None:
        if not clause.body:
            # A bodiless clause is just a fact.
            self.add_fact(clause.head)
            return
        compiled = compile_clause(clause)  # raises on unsafe clauses
        if clause in self._clause_set:
            return  # duplicate clauses only repeat work
        self._clause_set.add(clause)
        self._clauses.append(clause)
        self._compiled.append(compiled)
        self._strata = None
        if self._saturated:
            self._pending_clauses.append(compiled)

    def add_clauses(self, clauses: Iterable[HornClause]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # join-plan runtime
    # ------------------------------------------------------------------
    def _candidates(
        self,
        step: _Step,
        delta: Mapping[str, set[Atom]] | None,
        slots: list,
    ) -> Iterable[Atom]:
        """The fact pool one step scans, via the cheapest index probe."""
        if step.pool == _POOL_DELTA:
            return delta.get(step.pred, ())
        store = self._store
        stats = self.last_stats
        best_key: tuple[int, str] | None = None
        best_size = -1
        for position, value in step.const_checks:
            size = store.probe_size(step.pred, position, value)
            if best_size < 0 or size < best_size:
                best_size, best_key = size, (position, value)
        for position, slot in step.bound_checks:
            value = slots[slot]
            size = store.probe_size(step.pred, position, value)
            if best_size < 0 or size < best_size:
                best_size, best_key = size, (position, value)
        if best_key is None:
            candidates: Iterable[Atom] = store.pool(step.pred)
        else:
            stats["index_probes"] += 1
            candidates = store.probe(step.pred, best_key[0], best_key[1])
        if step.pool == _POOL_OLD and delta:
            delta_set = delta.get(step.pred)
            if delta_set:
                return (f for f in candidates if f not in delta_set)
        return candidates

    def _run_plan(
        self,
        cc: CompiledClause,
        plan: _JoinPlan,
        delta: Mapping[str, set[Atom]] | None,
        slots: list | None = None,
    ) -> Iterator[tuple[Atom, tuple[Atom, ...] | None]]:
        """Yield ``(head, premises-in-body-order)`` for every join.

        ``slots`` pre-binds variables (the support probe passes the
        head binding); the plan must have been compiled with those
        variables in its initial bound set.
        """
        steps = plan.steps
        n_steps = len(steps)
        if slots is None:
            slots = [None] * cc.nslots
        premises: list = [None] * n_steps
        record = self.record_derivations
        stats = self.last_stats
        head_pred = cc.head_pred
        head_parts = cc.head_parts
        body_order = plan.body_order

        def recurse(i: int) -> Iterator[tuple[Atom, tuple[Atom, ...] | None]]:
            if i == n_steps:
                head = (head_pred,) + tuple(
                    slots[part] if part.__class__ is int else part
                    for part in head_parts
                )
                if record:
                    ordered = [None] * n_steps
                    for step_index in range(n_steps):
                        ordered[body_order[step_index]] = premises[step_index]
                    yield head, tuple(ordered)
                else:
                    yield head, None
                return
            step = steps[i]
            arity = step.arity
            const_checks = step.const_checks
            bound_checks = step.bound_checks
            same_checks = step.same_checks
            binds = step.binds
            examined = 0
            for fact in self._candidates(step, delta, slots):
                examined += 1
                if len(fact) != arity:
                    continue
                ok = True
                for position, value in const_checks:
                    if fact[position] != value:
                        ok = False
                        break
                if ok:
                    for position, slot in bound_checks:
                        if fact[position] != slots[slot]:
                            ok = False
                            break
                if ok:
                    for position, earlier in same_checks:
                        if fact[position] != fact[earlier]:
                            ok = False
                            break
                if not ok:
                    continue
                for position, slot in binds:
                    slots[slot] = fact[position]
                premises[i] = fact
                yield from recurse(i + 1)
            stats["candidates"] += examined

        yield from recurse(0)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _schedule(self) -> list[list[CompiledClause]]:
        """The stratum schedule: :func:`_stratify` over the compiled
        program, cached until the clause set changes."""
        if self._strata is None:
            self._strata = _stratify(self._compiled)
        return self._strata

    def _record_new(
        self,
        cc: CompiledClause,
        head: Atom,
        premises: tuple[Atom, ...] | None,
    ) -> None:
        if self.record_derivations and head not in self._derivations:
            self._derivations[head] = Derivation(cc.clause, premises)

    def _eval_stratum(
        self,
        stratum: list[CompiledClause],
        delta0: dict[str, set[Atom]],
    ) -> list[Atom]:
        """Semi-naive rounds over one stratum to its fixpoint; returns
        the new facts.  Only (clause, position) pairs whose predicate
        is in the round's delta are visited; facts derived in a round
        join in the next one (snapshot semantics)."""
        store = self._store
        stats = self.last_stats
        schedule: dict[str, list[tuple[CompiledClause, _JoinPlan]]] = {}
        for cc in stratum:
            for plan in cc.delta_plans:
                schedule.setdefault(plan.delta_pred, []).append((cc, plan))
        delta = {
            pred: facts
            for pred, facts in delta0.items()
            if facts and pred in schedule
        }
        all_new: list[Atom] = []
        while delta:
            stats["rounds"] += 1
            round_new: list[Atom] = []
            round_set: set[Atom] = set()
            for pred in delta:
                for cc, plan in schedule[pred]:
                    stats["activations"] += 1
                    for head, premises in self._run_plan(cc, plan, delta):
                        if head in round_set or head in store:
                            continue
                        round_set.add(head)
                        round_new.append(head)
                        self._record_new(cc, head, premises)
            if round_new:
                self._derived_ever = True
            for fact in round_new:
                store.add(fact)
            all_new.extend(round_new)
            next_delta: dict[str, set[Atom]] = {}
            for fact in round_new:
                if fact[0] in schedule:
                    next_delta.setdefault(fact[0], set()).add(fact)
            delta = next_delta
        return all_new

    def _initial_delta(
        self, stratum: list[CompiledClause]
    ) -> dict[str, set[Atom]]:
        body_preds: set[str] = set()
        for cc in stratum:
            body_preds |= cc.body_preds
        return {
            pred: set(self._store.pool(pred))
            for pred in body_preds
            if self._store.pool_size(pred)
        }

    def _propagate_pending(self) -> int:
        """Incremental saturation: push only the queued deltas.

        Queued clauses first run their full plan once (they have never
        seen the database); their conclusions join the queued facts,
        and the combined delta flows through the strata in topological
        order.  Equivalent to — and property-tested against — a
        from-scratch saturation."""
        store = self._store
        # A pending fact can have been retracted (and overdeleted) in
        # the same batch; only facts still standing propagate.
        seeds = [f for f in self._pending_facts if f in store]
        new_clauses = self._pending_clauses
        self._pending_facts = []
        self._pending_clauses = []
        derived = 0
        for cc in new_clauses:
            # Materialize before inserting: adding heads would mutate
            # the pool/index lists the join is iterating over.
            matches = list(self._run_plan(cc, cc.full_plan, None))
            for head, premises in matches:
                if head in store:
                    continue
                store.add(head)
                self._derived_ever = True
                self._record_new(cc, head, premises)
                seeds.append(head)
                derived += 1
        by_pred: dict[str, set[Atom]] = {}
        for fact in seeds:
            by_pred.setdefault(fact[0], set()).add(fact)
        strata = self._schedule()
        self.last_stats["strata"] = len(strata)
        for stratum in strata:
            derived += self._push_stratum(stratum, by_pred)
        return derived

    def _push_stratum(
        self,
        stratum: list[CompiledClause],
        by_pred: dict[str, set[Atom]],
    ) -> int:
        """Propagate the accumulated deltas through one stratum.

        Restricts ``by_pred`` to the stratum's body predicates, runs
        the semi-naive rounds, folds the new conclusions back into
        ``by_pred`` for downstream strata, and returns how many facts
        the stratum derived.  Shared by incremental addition and the
        DRed rederive pass so the delta discipline cannot diverge.
        """
        body_preds: set[str] = set()
        for cc in stratum:
            body_preds |= cc.body_preds
        delta0 = {
            pred: by_pred[pred] for pred in body_preds if pred in by_pred
        }
        if not delta0:
            return 0
        new = self._eval_stratum(stratum, delta0)
        for fact in new:
            by_pred.setdefault(fact[0], set()).add(fact)
        return len(new)

    # ------------------------------------------------------------------
    # incremental retraction (DRed: overdelete, then rederive)
    # ------------------------------------------------------------------
    def _first_support(
        self, cc: CompiledClause, fact: Atom
    ) -> tuple[Atom, ...] | None:
        """One surviving body instantiation deriving ``fact``, or None.

        Binds the clause head against the ground fact and runs the
        compiled support plan (head variables pre-bound, so every step
        starts from an index probe) through the shared join runtime,
        stopping at the first match.  Returns the premises in body
        order (``()`` when derivation recording is off); None means no
        surviving proof.
        """
        if len(fact) != len(cc.clause.head):
            return None
        slots: list = [None] * cc.nslots
        for part, value in zip(cc.head_parts, fact[1:]):
            if part.__class__ is int:
                bound = slots[part]
                if bound is None:
                    slots[part] = value
                elif bound != value:
                    return None
            elif part != value:
                return None
        for _, premises in self._run_plan(cc, cc.support_plan, None, slots):
            return premises if premises is not None else ()
        return None

    def _retract_pending(self) -> None:
        """The DRed pass over the queued retractions.

        *Overdelete*: the downstream cone of the retracted facts (and
        every conclusion of a retracted clause), computed with the same
        compiled per-delta join plans semi-naive rounds use — each
        join enumerated once per round, against the not-yet-shrunk
        store, so derivations through other to-be-deleted facts are
        still seen.  Facts (re)asserted as base are never overdeleted.

        *Rederive*: stratum by stratum in topological order, each
        overdeleted fact with a surviving one-step proof (the
        head-bound support probe) is restored and the restored set is
        propagated semi-naive — restricted, by construction, to the
        overdeleted set, since deletion cannot make new facts
        derivable.
        """
        store = self._store
        stats = self.last_stats
        retracted = self._pending_retractions
        retracted_clauses = self._pending_clause_retractions
        self._pending_retractions = []
        self._pending_clause_retractions = []

        derivations = self._derivations

        def shield(atom: Atom) -> bool:
            """Asserted facts are never overdeleted.  Their recorded
            proof may cite facts this pass is deleting, so they fall
            back to explaining themselves."""
            if atom in self._base_facts:
                derivations.pop(atom, None)
                return True
            return False

        frontier: set[Atom] = set()
        for atom in retracted:
            if shield(atom) or atom not in store:
                continue
            frontier.add(atom)
        for cc in retracted_clauses:
            # Materialized first: _run_plan iterates live store pools.
            conclusions = list(self._run_plan(cc, cc.full_plan, None))
            for head, _ in conclusions:
                if head in store and not shield(head):
                    frontier.add(head)

        schedule: dict[str, list[tuple[CompiledClause, _JoinPlan]]] = {}
        for cc in self._compiled:
            for plan in cc.delta_plans:
                schedule.setdefault(plan.delta_pred, []).append((cc, plan))

        overdeleted: set[Atom] = set(frontier)
        while frontier:
            stats["rounds"] += 1
            delta: dict[str, set[Atom]] = {}
            for fact in frontier:
                delta.setdefault(fact[0], set()).add(fact)
            next_frontier: set[Atom] = set()
            for pred in delta:
                for cc, plan in schedule.get(pred, ()):
                    stats["activations"] += 1
                    for head, _ in self._run_plan(cc, plan, delta):
                        if (
                            head in overdeleted
                            or head in next_frontier
                            or shield(head)
                            or head not in store
                        ):
                            continue
                        next_frontier.add(head)
            overdeleted |= next_frontier
            frontier = next_frontier

        for atom in overdeleted:
            store.remove(atom)
            self._derivations.pop(atom, None)
        stats["overdeleted"] = len(overdeleted)
        if not overdeleted or not self._compiled:
            return

        remaining: dict[str, list[Atom]] = {}
        for atom in sorted(overdeleted):
            remaining.setdefault(atom[0], []).append(atom)
        by_head: dict[str, list[CompiledClause]] = {}
        for cc in self._compiled:
            by_head.setdefault(cc.head_pred, []).append(cc)

        rederived = 0
        by_pred: dict[str, set[Atom]] = {}
        strata = self._schedule()
        stats["strata"] = len(strata)
        for stratum in strata:
            seeds: list[Atom] = []
            head_preds = sorted({cc.head_pred for cc in stratum})
            for pred in head_preds:
                for fact in remaining.get(pred, ()):
                    if fact in store:
                        continue
                    for cc in by_head[pred]:
                        premises = self._first_support(cc, fact)
                        if premises is not None:
                            store.add(fact)
                            self._record_new(cc, fact, premises)
                            seeds.append(fact)
                            break
            rederived += len(seeds)
            for fact in seeds:
                by_pred.setdefault(fact[0], set()).add(fact)
            rederived += self._push_stratum(stratum, by_pred)
        stats["rederived"] = rederived

    def _reset_to_base(self) -> None:
        """Replay the store from the asserted facts: the recovery path
        after a saturation that raised part-way, and the rebuild a
        batch past the crossover schedules.

        In place: the store object (possibly caller-supplied) keeps its
        identity; only the facts that are not asserted are unlinked.
        """
        store = self._store
        stale = [f for f in store.iter_facts() if f not in self._base_facts]
        for atom in stale:
            store.remove(atom)
        for atom in self._base_facts:
            store.add(atom)
        self._derivations = {}
        self._saturated = False
        self._derived_ever = False
        self._pending_facts = []
        self._pending_clauses = []
        self._pending_retractions = []
        self._pending_clause_retractions = []
        self._needs_rebuild = False

    def saturate(self) -> int:
        """Run forward chaining to the fixpoint; return the number of
        new facts.

        Incremental when only queued deltas are outstanding: queued
        retractions run the DRed overdelete/rederive pass first
        (``mode == "retract"``), then queued additions propagate
        (``mode == "incremental"``).  Otherwise the strata are
        evaluated from the stored facts (``mode == "full"``).  Datalog
        saturation always terminates because the Herbrand base over
        the finite constants is finite.
        """
        if self._needs_rebuild:
            # No fixpoint to repair (a saturation raised part-way), or a
            # batch crossed the rebuild crossover: replay the store from
            # the asserted facts and saturate fresh.
            self._reset_to_base()
        if self._saturated:
            has_retractions = bool(
                self._pending_retractions or self._pending_clause_retractions
            )
            if not (
                has_retractions
                or self._pending_facts
                or self._pending_clauses
            ):
                return 0
            derived = 0
            if has_retractions:
                self.last_stats = _new_stats("retract")
                self._retract_pending()
                if self._pending_facts or self._pending_clauses:
                    derived = self._propagate_pending()
            else:
                self.last_stats = _new_stats("incremental")
                derived = self._propagate_pending()
        else:
            self.last_stats = _new_stats("full")
            self._pending_facts = []
            self._pending_clauses = []
            strata = self._schedule()
            self.last_stats["strata"] = len(strata)
            derived = 0
            for stratum in strata:
                new = self._eval_stratum(stratum, self._initial_delta(stratum))
                derived += len(new)
        self._saturated = True
        self.last_stats["derived"] = derived
        return derived

    # ------------------------------------------------------------------
    # batched churn
    # ------------------------------------------------------------------
    def apply_batch(
        self,
        adds: Iterable[Atom] = (),
        retracts: Iterable[Atom] = (),
        *,
        saturate: bool = True,
    ) -> dict[str, object]:
        """Apply a churn batch — retractions, then additions — as one pass.

        Instead of one DRed pass per retraction, the whole batch queues
        first and the single :meth:`saturate` that follows pays one
        overdelete/rederive pass over the union cone plus one
        semi-naive propagation of the additions.  A fact appearing in
        both lists ends up asserted (retract-then-add order — exactly
        the shrink/grow diffs ``refresh_from_articulation`` produces).
        When the queued retraction count reaches
        :attr:`rebuild_crossover`, chasing the deletion cone is a
        measured loss and the batch schedules a replay-from-base
        rebuild instead (``decision == "rebuild"``).

        Returns a report: ``added``/``retracted`` counts, the
        ``decision`` (``dred`` / ``rebuild`` / ``delta`` / ``full`` /
        ``replay`` / ``inplace`` / ``noop``), the queued retraction
        count it was based on, the crossover in force, and — unless
        ``saturate=False`` defers evaluation to the caller —
        ``derived`` plus the resulting stats ``mode``.

        With a :class:`~repro.reliability.journal.ChurnJournal`
        attached the batch is crash-safe: the coalesced diff is
        durably journaled *before* any mutation (one committed SQLite
        transaction), and committed once the batch (and its
        saturation) completed — so a process killed anywhere inside
        this method loses nothing; :meth:`ChurnJournal.recover`
        replays the journal to the fixpoint this batch was driving
        toward.  The report then carries the batch's ``journal_seq``.

        A batch holding any non-ground atom raises
        :class:`InferenceError` before anything is journaled or
        mutated.
        """
        # materialize first: the batch is read once to check it, once
        # to journal it and once to apply it
        adds = list(adds)
        retracts = list(retracts)
        require_ground(retracts + adds)
        journal = self.journal
        seq: int | None = None
        if journal is not None:
            seq = journal.begin(adds, retracts)
        retracted = self.retract_facts(retracts)
        added = self.add_facts(adds)
        queued = len(self._pending_retractions) + len(
            self._pending_clause_retractions
        )
        crossover = self.rebuild_crossover
        if queued and crossover is not None and queued >= crossover:
            # saturate() will replay from base; the queues die with it.
            self._needs_rebuild = True
            decision = "rebuild"
        elif queued:
            decision = "dred"
        elif retracted:
            decision = "replay" if self._needs_rebuild else "inplace"
        elif added:
            decision = "delta" if self._saturated else "full"
        else:
            decision = "noop"
        report: dict[str, object] = {
            "added": added,
            "retracted": retracted,
            "queued_retractions": queued,
            "crossover": crossover,
            "decision": decision,
        }
        if saturate:
            report["derived"] = self.saturate()
            report["mode"] = self.last_stats["mode"]
        if seq is not None:
            # the batch is fully folded in (and, when saturate=True, at
            # its fixpoint): a recovery from here on replays it as
            # committed history instead of a crash victim
            journal.commit(seq)
            report["journal_seq"] = seq
        return report

    def _ensure_current(self) -> None:
        if (
            not self._saturated
            or self._needs_rebuild
            or self._pending_facts
            or self._pending_clauses
            or self._pending_retractions
            or self._pending_clause_retractions
        ):
            self.saturate()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def holds(self, atom: Atom) -> bool:
        """Is this ground atom derivable?  Saturates lazily."""
        self._ensure_current()
        return atom in self._store

    def query(self, pattern: Atom) -> list[dict[str, str]]:
        """All bindings of a (possibly non-ground) atom.

        Ground argument positions probe the argument index; the most
        selective bucket is scanned.
        """
        self._ensure_current()
        predicate = pattern[0]
        store = self._store
        bound = [
            (position, arg)
            for position, arg in enumerate(pattern)
            if position and not is_variable(arg)
        ]
        if bound:
            position, value = min(
                bound,
                key=lambda pv: store.probe_size(predicate, pv[0], pv[1]),
            )
            pool: Iterable[Atom] = store.probe(predicate, position, value)
        else:
            pool = store.pool(predicate)
        results: list[dict[str, str]] = []
        for fact in pool:
            binding = unify_atom(pattern, fact)
            if binding is not None:
                results.append(binding)
        return results

    def facts(self, predicate: str | None = None) -> set[Atom]:
        """A fresh set of (all or one predicate's) derivable facts.

        Copies; use :meth:`iter_facts` / :meth:`fact_count` on hot
        paths.
        """
        self._ensure_current()
        return set(self._store.iter_facts(predicate))

    def iter_facts(self, predicate: str | None = None) -> Iterator[Atom]:
        """Iterate derivable facts without copying the fact set."""
        self._ensure_current()
        return self._store.iter_facts(predicate)

    def detach_store(self) -> FactStore:
        """Freeze the current store as a snapshot; keep working on a copy.

        Saturates first, then swaps ``store.copy()`` into the engine
        and returns the original, which this engine will never touch
        again — the caller may publish it as a consistent read-only
        snapshot (the serving tier's sessions pin it).  The store
        decides how to copy itself: an in-memory :class:`FactStore`
        copies fact by fact (O(closure) Python work); a paged store
        copies its database pages inside SQLite.  Paid by the *writer*
        at a churn boundary — readers stay copy-free.
        """
        self._ensure_current()
        old = self._store
        self._store = old.copy()
        return old

    def fact_count(self, predicate: str | None = None) -> int:
        self._ensure_current()
        if predicate is None:
            return len(self._store)
        return self._store.pool_size(predicate)

    def explain(self, atom: Atom) -> list[Atom]:
        """The base facts supporting ``atom`` (transitive premises).

        Base facts explain themselves as a singleton list.  Unknown
        atoms raise :class:`InferenceError`, as does an engine built
        with ``record_derivations=False``.
        """
        if not self.record_derivations:
            raise InferenceError(
                "derivation recording is disabled on this engine"
            )
        self._ensure_current()
        if atom not in self._store:
            raise InferenceError(f"fact does not hold: {atom!r}")
        base: list[Atom] = []
        seen: set[Atom] = set()
        stack = [atom]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            derivation = self._derivations.get(current)
            if derivation is None:
                base.append(current)
            else:
                stack.extend(derivation.premises)
        return base

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<HornEngine facts={len(self._store)} "
            f"clauses={len(self._clauses)}>"
        )
