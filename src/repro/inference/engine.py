"""Ontology-level inference (paper §2.4, §4).

"The inference engine uses the articulation rules generated by SKAT and
the rules from the individual source ontologies to derive more rules if
possible."

:class:`OntologyInferenceEngine` compiles three things into one Horn
program:

1. every graph edge, as a fact over its relation;
2. the per-relationship property axioms from the relation registries
   (transitivity, symmetry, implication between relations);
3. the articulation's atomic implications and bridges, as ``implies``
   facts, plus the subsumption axioms tying ``SubclassOf`` /
   ``SemanticImplication`` / ``SIBridge`` into ``implies``.

On top of the saturated program it answers subsumption questions,
derives *new* articulation rules not present in the input rule set, and
detects articulation errors (equivalence collapses and declared-
disjointness violations) for the expert to review.

The engine rides the incremental Horn evaluator: when an articulation
grows (the expert loop accepts more rules; a source gains edges),
:meth:`OntologyInferenceEngine.refresh_from_articulation` works out
the program delta part by part — each moved graph replays its bounded
mutation journal, bridge and rule atoms are recomputed only when their
stamps moved — and feeds only the new facts through delta propagation
instead of re-saturating from scratch.  When it *shrinks* (a repair
dropped bridges or rules, a source shed edges), the stale facts are
queued as retractions and the Horn engine's DRed overdelete/rederive
pass repairs the saturated state in place — a rebuild happens only
when the axiom set changed.

Every engine records derivations for ``explain``.  That is what lets
one engine serve both ends of the §2.4 loop: the engine
:func:`~repro.lexicon.skat.articulate_with_expert` saturates to
suggest rules is the one
:meth:`~repro.serving.service.ArticulationService.install` serves.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.core.articulation import Articulation
from repro.core.graph import Edge, LabeledGraph
from repro.core.ontology import Ontology, qualify, split_qualified
from repro.core.relations import (
    INSTANCE_OF,
    SEMANTIC_IMPLICATION,
    SI_BRIDGE,
    SUBCLASS_OF,
    RelationRegistry,
)
from repro.core.rules import (
    HornClause,
    ImplicationRule,
    TermOperand,
    TermRef,
)
from repro.errors import ContradictionError
from repro.inference.horn import Atom, HornEngine

__all__ = ["OntologyInferenceEngine", "IMPLIES", "DISJOINT"]

IMPLIES = "implies"
DISJOINT = "disjoint"
_INSTANCE = "instance_of"


def _axioms_for_registry(registry: RelationRegistry) -> Iterator[HornClause]:
    """Per-relationship property rules (paper §2.5)."""
    for relation in registry:
        pred = relation.code
        if relation.transitive:
            yield HornClause(
                (pred, "?x", "?z"),
                ((pred, "?x", "?y"), (pred, "?y", "?z")),
            )
        if relation.symmetric:
            yield HornClause((pred, "?y", "?x"), ((pred, "?x", "?y"),))
        for implied_name in relation.implies:
            implied = registry.get(implied_name)
            target = implied.code if implied is not None else implied_name
            yield HornClause((target, "?x", "?y"), ((pred, "?x", "?y"),))


def _subsumption_axioms() -> Iterator[HornClause]:
    """Tie the specialization-flavored relations into ``implies``."""
    for pred in (SUBCLASS_OF.code, SEMANTIC_IMPLICATION.code, SI_BRIDGE.code):
        yield HornClause((IMPLIES, "?x", "?y"), ((pred, "?x", "?y"),))
    yield HornClause(
        (IMPLIES, "?x", "?z"),
        ((IMPLIES, "?x", "?y"), (IMPLIES, "?y", "?z")),
    )
    # Instance membership lifts through implication: an instance of a
    # specific class is an instance of every implied class.
    yield HornClause(
        (_INSTANCE, "?o", "?c2"),
        ((_INSTANCE, "?o", "?c1"), (IMPLIES, "?c1", "?c2")),
    )


def _edge_atom(edge) -> Atom:
    if edge.label == INSTANCE_OF.code:
        return (_INSTANCE, edge.source, edge.target)
    return (edge.label, edge.source, edge.target)


def _replay_edges(
    ontology: Ontology, atoms: set[Atom], rows: list[tuple]
) -> tuple[set[Atom], set[Atom]]:
    """Apply a graph's journal rows to its qualified edge-atom set in
    place; return the net ``(added, removed)`` atoms.

    Only edge rows carry atoms (``remove_node`` journals its incident
    ``remove_edge`` rows first).  Each edge a row names ends up in the
    set exactly when the current graph still holds an edge mapping to
    its atom — two labels map to ``instance_of``.
    """
    graph = ontology.graph
    name = ontology.name
    added: set[Atom] = set()
    removed: set[Atom] = set()
    edges = {row[2:] for row in rows if row[1] in ("add_edge", "remove_edge")}
    for source, label, target in edges:
        atom = _edge_atom(
            Edge(qualify(name, source), label, qualify(name, target))
        )
        held = graph.has_edge(source, label, target) or (
            atom[0] == _INSTANCE
            and (
                graph.has_edge(source, INSTANCE_OF.code, target)
                or graph.has_edge(source, _INSTANCE, target)
            )
        )
        if held and atom not in atoms:
            atoms.add(atom)
            added.add(atom)
        elif not held and atom in atoms:
            atoms.discard(atom)
            removed.add(atom)
    return added, removed


class OntologyInferenceEngine:
    """Horn-based reasoner over one ontology or a whole articulation.

    The keyword arguments configure the
    :class:`~repro.inference.horn.HornEngine` this wrapper builds, and
    every rebuild after an axiom change: the fact store's backend and
    the churn journal.
    """

    def __init__(
        self,
        *,
        storage: str = "memory",
        buffer_facts: int | None = None,
        journal=None,
    ) -> None:
        self.storage = storage
        self.buffer_facts = buffer_facts
        # forwarded to every HornEngine this wrapper builds (including
        # rebuilds on program change): the journal makes every
        # apply_batch a refresh routes through crash-safe (the serving
        # tier's write path)
        self.journal = journal
        self.engine = self._new_horn_engine()
        self._loaded_edges: set[Atom] = set()
        self._known_rule_pairs: set[tuple[str, str]] = set()
        self._disjoint_declared = False
        self._disjoint_pairs: list[tuple[str, str]] = []
        # the (clauses, facts) program currently loaded via an
        # articulation — None when built some other way; the facts
        # are the union of the program parts below
        self._program_clauses: list[HornClause] | None = None
        self._program_facts: set[Atom] | None = None
        # per-graph part: part name -> [graph object, graph version,
        # ontology name, edge atoms].  A graph that has not moved since
        # the last refresh is never re-read; one that moved replays its
        # mutation journal into the atom set.
        self._part_cache: dict[str, list] = {}
        # the bridge part, keyed on (bridge stamp, function labels),
        # and the rule part, keyed on the memoized atomic-pairs tuple
        self._bridge_part: tuple[tuple, set[Atom]] | None = None
        self._rule_part: tuple[tuple, set[Atom]] | None = None
        self._extracted_parts: list[str] = []
        # The articulation object and its fingerprint at the last
        # refresh: an unchanged stamp lets refresh_from_articulation
        # return without re-extracting the program at all.  The object
        # reference is held (not just its id) so a recycled address of
        # a garbage-collected articulation can never false-match.
        self._stamp_articulation: Articulation | None = None
        self._stamp_fingerprint: tuple | None = None
        self.last_refresh: dict[str, object] = {}

    def _new_horn_engine(self) -> HornEngine:
        return HornEngine(
            storage=self.storage,
            buffer_facts=self.buffer_facts,
            journal=self.journal,
        )

    # ------------------------------------------------------------------
    # program loading
    # ------------------------------------------------------------------
    def load_graph(self, graph: LabeledGraph) -> int:
        """Load every edge as a fact; returns facts added."""
        added = 0
        for edge in graph.edges():
            atom = _edge_atom(edge)
            if self.engine.add_fact(atom):
                self._loaded_edges.add(atom)
                added += 1
        return added

    def load_registry(self, registry: RelationRegistry) -> None:
        self.engine.add_clauses(_axioms_for_registry(registry))

    def load_ontology(self, ontology: Ontology, *, qualified: bool = False) -> int:
        """Load one ontology's edges (optionally over qualified ids)."""
        graph = ontology.qualified_graph() if qualified else ontology.graph
        self.load_registry(ontology.registry)
        self.engine.add_clauses(_subsumption_axioms())
        return self.load_graph(graph)

    @classmethod
    def from_ontology(cls, ontology: Ontology) -> "OntologyInferenceEngine":
        engine = cls()
        engine.load_ontology(ontology)
        return engine

    def _edge_part(
        self,
        name: str,
        ontology: Ontology,
        added: list[Iterable[Atom]],
        removed: list[Iterable[Atom]],
    ) -> None:
        """Bring one graph's edge atoms up to date; record what moved.

        Unmoved graphs are skipped.  A moved graph replays the edge rows
        of its mutation journal into the cached atom set.  The graph is
        re-walked when the journal window has overrun, the graph object
        was swapped (a repair's fresh graph restarts its counter), or
        the ontology was renamed (qualified atoms embed the name).
        """
        graph = ontology.graph
        entry = self._part_cache.get(name)
        if (
            entry is not None
            and entry[0] is graph
            and entry[2] == ontology.name
        ):
            if entry[1] == graph.version:
                return
            rows = graph.journal_since(entry[1])
            if rows is not None:
                plus, minus = _replay_edges(ontology, entry[3], rows)
                entry[1] = graph.version
                added.append(plus)
                removed.append(minus)
                self._extracted_parts.append(name)
                return
        atoms = {
            _edge_atom(edge) for edge in ontology.qualified_graph().edges()
        }
        added.append(atoms)
        if entry is not None:
            removed.append(entry[3])
        self._part_cache[name] = [graph, graph.version, ontology.name, atoms]
        self._extracted_parts.append(name)

    def _articulation_program(
        self,
        articulation: Articulation,
        added: list[Iterable[Atom]],
        removed: list[Iterable[Atom]],
    ) -> None:
        """Bring every part of the articulation's Horn program up to date.

        The program is the union of its parts: each source's and the
        articulation ontology's edge atoms, the bridge atoms and the
        stated rules' ``implies`` atoms.  Each part is recomputed only
        when its own inputs moved — a graph's version, the bridge stamp
        and function labels, the rule set's memoized atomic pairs.  A
        journal replay appends its net change to ``added`` /
        ``removed``; a recomputed part appends its new atom set to
        ``added`` and its old one to ``removed``, uncopied (the caller
        keeps only atoms the program lacks, and drops only atoms no
        live part holds); a vanished part removes its whole set.
        """
        self._extracted_parts = []
        live = list(articulation.sources.items())
        live.append((f"{articulation.name}!ontology", articulation.ontology))
        for name, ontology in live:
            self._edge_part(name, ontology, added, removed)
        # Drop cache entries for parts the current articulation no
        # longer has (a vanished source, a renamed articulation): each
        # dead entry pins a whole graph plus its edge-atom set.
        names = {name for name, _ in live}
        for dead in [p for p in self._part_cache if p not in names]:
            removed.append(self._part_cache.pop(dead)[3])

        functions = articulation.functions
        key = (articulation.bridges.stamp, frozenset(functions))
        if self._bridge_part is None or self._bridge_part[0] != key:
            atoms = {
                (bridge.label, bridge.source, bridge.target)
                for bridge in articulation.bridges
                # conversion edges carry values, not subsumption
                if bridge.label not in functions
            }
            added.append(atoms)
            if self._bridge_part is not None:
                removed.append(self._bridge_part[1])
            self._bridge_part = (key, atoms)

        pairs = articulation.rules.atomic_pairs(articulation.name)
        if self._rule_part is None or self._rule_part[0] is not pairs:
            atoms = {(IMPLIES, spec, gen) for spec, gen in pairs}
            added.append(atoms)
            if self._rule_part is not None:
                removed.append(self._rule_part[1])
            self._rule_part = (pairs, atoms)
            self._known_rule_pairs = set(pairs)

    def _parts(self) -> Iterator[set[Atom]]:
        """Every live part's atom set."""
        for entry in self._part_cache.values():
            yield entry[3]
        for part in (self._bridge_part, self._rule_part):
            if part is not None:
                yield part[1]

    def _stamp_matches(
        self, articulation: Articulation, fingerprint: tuple
    ) -> bool:
        return (
            self._program_facts is not None
            and self._stamp_articulation is articulation
            and self._stamp_fingerprint == fingerprint
        )

    def is_current(self, articulation: Articulation) -> bool:
        """Would :meth:`refresh_from_articulation` be a no-op?

        The same stamp comparison, without refreshing: a caller can
        skip work it only needs before a refresh that mutates.
        """
        return self._stamp_matches(articulation, articulation.fingerprint())

    def refresh_from_articulation(
        self, articulation: Articulation
    ) -> dict[str, object]:
        """(Re)load an articulation, incrementally when possible.

        The program delta is built part by part (see
        :meth:`_articulation_program`): a moved source graph replays
        its mutation journal, bridge and rule atoms are recomputed only
        when their stamps moved, so the refresh after a small source
        edit costs the edit, not the articulation.  New atoms are
        queued as deltas for the Horn engine's incremental propagation.
        Atoms no live part still holds (a repair dropped bridges or
        rules, a source shed edges) are queued as retractions, and the
        Horn engine's DRed pass overdeletes/rederives instead of
        rebuilding (``mode == "retract"``; a shrink applied to an
        engine that never reached a fixpoint reports ``"replay"`` —
        the retraction is applied, but the next query saturates from
        the surviving base facts rather than chasing a cone).  The
        whole shrink+grow diff is applied as one
        :meth:`~repro.inference.horn.HornEngine.apply_batch`; a diff
        whose retraction count crosses the engine's measured rebuild
        crossover replays from base instead of chasing the deletion
        cone (``mode == "batch-rebuild"``).  Only an axiom change
        still falls back to a rebuild, which loads the union of the
        parts.  Returns ``{"mode", "facts", "added", "removed",
        "extracted"}`` — ``extracted`` lists the graph parts whose
        atoms were recomputed, by journal replay or by a walk
        (unchanged graphs are served from the per-part cache).

        A refresh against the *same* articulation whose version stamp
        has not moved is a no-op: the program is not even re-extracted
        (``mode == "noop"``) — the ROADMAP's "version-stamp
        Articulation" win.
        """
        fingerprint = articulation.fingerprint()
        if self._stamp_matches(articulation, fingerprint):
            self.last_refresh = {
                "mode": "noop",
                "facts": len(self._program_facts),
                "added": 0,
                "removed": 0,
                "extracted": [],
            }
            return self.last_refresh
        clauses = list(_subsumption_axioms())
        clauses.extend(
            _axioms_for_registry(articulation.ontology.registry)
        )
        same_axioms = (
            self._program_facts is not None
            and self._program_clauses == clauses
        )
        added_parts: list[Iterable[Atom]] = []
        removed_parts: list[Iterable[Atom]] = []
        try:
            self._articulation_program(
                articulation, added_parts, removed_parts
            )
            if same_axioms:
                facts = self._program_facts
                parts = list(self._parts())
                fresh = {
                    atom
                    for part in added_parts
                    for atom in part
                    if atom not in facts
                }
                # parts can overlap: an atom leaves the program only
                # when no live part still holds it
                stale = {
                    atom
                    for part in removed_parts
                    for atom in part
                    if not any(atom in live for live in parts)
                }
                # One batch for the whole shrink+grow diff: retractions
                # queue first, additions second, and the next query
                # pays a single overdelete/rederive/propagate pass —
                # unless the batch's retraction count crossed the
                # engine's measured rebuild crossover, in which case
                # replaying from base is the cheaper repair
                # ("batch-rebuild").  Evaluation stays deferred
                # (saturate=False): queries saturate lazily.
                batch = self.engine.apply_batch(fresh, stale, saturate=False)
                facts -= stale
                facts |= fresh
                removed = int(batch["retracted"])
                added = int(batch["added"])
                if batch["decision"] == "rebuild":
                    mode = "batch-rebuild"
                elif stale:
                    # mode reports what the next query will actually
                    # do: the DRed pass needs a fixpoint to repair; a
                    # shrink diffed into a not-yet-saturated engine
                    # replays from the surviving base facts.
                    mode = (
                        "retract" if batch["decision"] == "dred" else "replay"
                    )
                else:
                    mode = "incremental"
            else:
                mode = (
                    "rebuild" if self._program_facts is not None else "initial"
                )
                facts = set().union(*self._parts())
                added = len(facts)
                removed = 0
                self.engine = self._new_horn_engine()
                self.engine.add_clauses(clauses)
                for fact in facts:
                    self.engine.add_fact(fact)
                self._replay_disjointness()
        except BaseException:
            # The parts may have moved without the loaded program; only
            # a rebuild from the parts brings the two back in line.
            self._program_facts = None
            raise
        self._loaded_edges = set()
        self._program_clauses = clauses
        self._program_facts = facts
        self._stamp_articulation = articulation
        self._stamp_fingerprint = fingerprint
        self.last_refresh = {
            "mode": mode,
            "facts": len(facts),
            "added": added,
            "removed": removed,
            "extracted": list(self._extracted_parts),
        }
        return self.last_refresh

    @classmethod
    def from_articulation(
        cls, articulation: Articulation
    ) -> "OntologyInferenceEngine":
        """Load sources, articulation ontology, bridges and rules."""
        engine = cls()
        engine.refresh_from_articulation(articulation)
        return engine

    def _replay_disjointness(self) -> None:
        self._disjoint_declared = False
        pairs, self._disjoint_pairs = self._disjoint_pairs, []
        for term_a, term_b in pairs:
            self.declare_disjoint(term_a, term_b)

    def declare_disjoint(self, term_a: str, term_b: str) -> None:
        """Declare two (qualified) classes disjoint, both directions.

        After saturation, :meth:`contradictions` reports every class
        implied into both sides — the articulation-error detection §1
        promises.
        """
        if not self._disjoint_declared:
            self.engine.add_clause(
                HornClause(
                    ("inconsistent", "?x", "?a", "?b"),
                    (
                        (DISJOINT, "?a", "?b"),
                        (IMPLIES, "?x", "?a"),
                        (IMPLIES, "?x", "?b"),
                    ),
                )
            )
            self._disjoint_declared = True
        if (term_a, term_b) not in self._disjoint_pairs:
            self._disjoint_pairs.append((term_a, term_b))
        self.engine.add_fact((DISJOINT, term_a, term_b))
        self.engine.add_fact((DISJOINT, term_b, term_a))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def implies(self, specific: str, general: str) -> bool:
        return specific == general or self.engine.holds(
            (IMPLIES, specific, general)
        )

    def is_subclass(self, subclass: str, superclass: str) -> bool:
        """Transitive SubclassOf (reflexive by convention)."""
        return subclass == superclass or self.engine.holds(
            (SUBCLASS_OF.code, subclass, superclass)
        )

    def superclasses(self, term: str) -> set[str]:
        return {
            b["?x"]
            for b in self.engine.query((SUBCLASS_OF.code, term, "?x"))
        }

    def subclasses(self, term: str) -> set[str]:
        return {
            b["?x"]
            for b in self.engine.query((SUBCLASS_OF.code, "?x", term))
        }

    def generalizations(self, term: str) -> set[str]:
        return {b["?x"] for b in self.engine.query((IMPLIES, term, "?x"))}

    def specializations(self, term: str) -> set[str]:
        return {b["?x"] for b in self.engine.query((IMPLIES, "?x", term))}

    def instances_of(self, cls: str) -> set[str]:
        """Instances of a class, including through implied classes."""
        return {b["?o"] for b in self.engine.query((_INSTANCE, "?o", cls))}

    def equivalence_classes(self) -> list[frozenset[str]]:
        """Groups of terms mutually implying each other (size >= 2).

        A collapse that merges terms the expert meant to keep distinct
        is the classic articulation error; the viewer surfaces these.
        """
        forward: dict[str, set[str]] = {}
        for _, a, b in self.engine.iter_facts(IMPLIES):
            forward.setdefault(a, set()).add(b)
        groups: list[frozenset[str]] = []
        seen: set[str] = set()
        for term, outs in forward.items():
            if term in seen:
                continue
            mutual = {
                other
                for other in outs
                if other != term and term in forward.get(other, ())
            }
            if mutual:
                group = frozenset(mutual | {term})
                if group not in groups:
                    groups.append(group)
                seen |= group
        return groups

    def contradictions(self) -> list[tuple[str, str, str]]:
        """Every ``(term, classA, classB)`` violating a disjointness."""
        return [
            (b["?x"], b["?a"], b["?b"])
            for b in self.engine.query(("inconsistent", "?x", "?a", "?b"))
        ]

    def check_consistency(self) -> None:
        """Raise :class:`ContradictionError` on any disjointness violation."""
        found = self.contradictions()
        if found:
            term, class_a, class_b = found[0]
            raise ContradictionError(
                f"term {term!r} implied into disjoint classes "
                f"{class_a!r} and {class_b!r} ({len(found)} violation(s))"
            )

    # ------------------------------------------------------------------
    # rule derivation (paper: "derive more rules if possible")
    # ------------------------------------------------------------------
    def derived_rules(self) -> list[ImplicationRule]:
        """Implication rules that hold but were not stated.

        Walks the saturated ``implies`` relation and emits one simple
        rule per pair that is neither an input rule, a trivial
        self-implication, nor a direct restatement of a single graph
        edge.  The expert loop feeds these back as suggestions.
        """
        derived: list[ImplicationRule] = []
        edge_parts = [entry[3] for entry in self._part_cache.values()]
        edge_parts.append(self._loaded_edges)
        direct_edges = {
            (atom[1], atom[2])
            for atoms in edge_parts
            for atom in atoms
            if len(atom) == 3
        }
        for _, specific, general in sorted(self.engine.iter_facts(IMPLIES)):
            if specific == general:
                continue
            if (specific, general) in self._known_rule_pairs:
                continue
            if (specific, general) in direct_edges:
                continue
            spec_onto, spec_term = split_qualified(specific)
            gen_onto, gen_term = split_qualified(general)
            if spec_onto is None or gen_onto is None:
                continue
            if spec_onto == gen_onto:
                continue  # intra-ontology implications are structure, not bridges
            derived.append(
                ImplicationRule(
                    (
                        TermOperand(TermRef(spec_onto, spec_term)),
                        TermOperand(TermRef(gen_onto, gen_term)),
                    ),
                    source="inferred",
                )
            )
        return derived

    def fact_count(self) -> int:
        return self.engine.fact_count()
