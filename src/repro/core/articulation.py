"""The articulation generator (paper §4).

Given source ontologies and a set of articulation rules, the generator
builds the **articulation**: an articulation ontology plus the semantic
bridges linking it to the sources.  Only the articulation is physically
stored — the unified ontology stays virtual (paper §2, "the unified
ontology is not a physical entity").

Rule interpretation follows the paper's worked examples one for one:

* ``O1:A => O2:B`` (both terms in source ontologies) — add node ``B``
  to the articulation, an ``SIBridge`` edge from ``O1:A`` to it, and a
  *pair* of ``SIBridge`` edges between ``O2:B`` and the articulation
  node establishing their equivalence.
* ``O1:A => ART:X => O2:B`` (cascade through the articulation) — add
  node ``X`` and the two directed bridges, nothing more.
* ``ART:X => ART:Y`` (both ends in the articulation) — a SubclassOf
  edge inside the articulation ontology ("the class Owner is a subclass
  of the class Person").
* ``(P ^ Q) => R`` — synthesize a class for the conjunction, bridge it
  *to* each conjunct and to ``R``, and bridge every common subclass of
  the conjuncts *into* the synthesized class.
* ``P => (Q | R)`` — synthesize a class for the disjunction and bridge
  the premise and every disjunct *into* it.
* ``Fn() : O1:A => ART:B`` — a conversion edge labeled ``Fn()`` (and
  its inverse when supplied), registered for the query processor.

All mutations go through the NA/EA transformation primitives and are
journaled, so the expert loop can inspect and roll back exactly what a
rule did, and benchmarks can count graph work.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.core.graph import Edge, LabeledGraph
from repro.core.ontology import Ontology, qualify, split_qualified
from repro.core.relations import (
    SI_BRIDGE,
    SUBCLASS_OF,
    RelationRegistry,
    standard_registry,
)
from repro.core.rules import (
    AndOperand,
    ArticulationRuleSet,
    FunctionalRule,
    ImplicationRule,
    Operand,
    OrOperand,
    TermOperand,
    TermRef,
)
from repro.core.transform import EdgeAddition, NodeAddition, TransformLog
from repro.errors import ArticulationError, TermNotFoundError

__all__ = ["Articulation", "ArticulationGenerator", "BridgeSet"]

# One lock for every articulation's cached views (the unified graph
# and the covered-term set).  A module-level lock rather than a
# per-instance field keeps the dataclass copyable/picklable and costs
# nothing: the guarded sections are a fingerprint compare on hits, and
# serializing the occasional rebuild is exactly the point — concurrent
# serving threads must share ONE unified graph (and its match
# indexes), not race to build duplicates.
_CACHE_LOCK = threading.Lock()

# Process-wide source of bridge-set stamps: no two set states ever
# share one, so a stamp compare stands in for a content compare.
_BRIDGE_STAMPS = itertools.count(1)


class BridgeSet(set):
    """The articulation's bridge edges, with an O(1) change stamp.

    ``stamp`` is drawn from a process-wide counter on construction and
    again after every in-place mutation, so
    :meth:`Articulation.fingerprint` reads one integer instead of
    hashing every edge.  The stamp moves *after* the mutation lands: a
    reader that sees the new stamp also sees the new content.  Copies
    and unpickled sets take a fresh stamp, never the original's.
    """

    __slots__ = ("stamp",)

    def __init__(self, edges: Iterable[Edge] = ()) -> None:
        super().__init__(edges)
        self.stamp = next(_BRIDGE_STAMPS)

    def __reduce__(self):
        return (type(self), (list(self),))


def _restamping(name: str):
    mutate = getattr(set, name)

    def method(self, *args):
        result = mutate(self, *args)
        self.stamp = next(_BRIDGE_STAMPS)
        return result

    method.__name__ = name
    method.__qualname__ = f"BridgeSet.{name}"
    method.__doc__ = mutate.__doc__
    return method


for _name in (
    "add",
    "discard",
    "remove",
    "pop",
    "clear",
    "update",
    "difference_update",
    "intersection_update",
    "symmetric_difference_update",
    "__ior__",
    "__iand__",
    "__isub__",
    "__ixor__",
):
    setattr(BridgeSet, _name, _restamping(_name))
del _name


@dataclass
class Articulation:
    """An articulation ontology plus its semantic bridges.

    ``bridges`` connect qualified node ids (``source:Term`` to
    ``articulation:Term``); ``ontology`` holds the articulation's own
    nodes and internal edges; ``functions`` maps a conversion edge
    label (``"PSToEuroFn()"``) to its executable rule.

    ``version`` is a monotonically bumped mutation stamp: the
    generator, the maintenance repair, and the bridge-dropping helpers
    bump it, and :meth:`fingerprint` combines it with the mutation
    versions of every underlying graph and the stamp of the
    :class:`BridgeSet`.  ``bridges`` is always a :class:`BridgeSet`:
    assigning any other iterable of edges converts it.  Derived state
    — the unified graph, downstream inference programs — is cached
    against that fingerprint instead of being rebuilt per call (the
    covered-term set against the bridge stamp alone);
    ``cache_stats`` counts the hits and misses tests and benchmarks
    assert on.  :meth:`is_generated` tells the maintainer whether the
    articulation is still exactly what the generator built.

    An articulation built by the expert loop carries that loop's
    saturated inference engine (:meth:`carry_engine`) until a service
    takes it (:meth:`take_engine`) and serves it instead of saturating
    a second one.  The engine is not part of the articulation's value:
    ``==``, ``repr``, copies and pickles leave it out.
    """

    ontology: Ontology
    sources: dict[str, Ontology]
    rules: ArticulationRuleSet
    bridges: BridgeSet = field(default_factory=BridgeSet)
    functions: dict[str, FunctionalRule] = field(default_factory=dict)
    log: TransformLog = field(default_factory=TransformLog)
    version: int = field(default=0, compare=False)
    cache_stats: dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )
    _unified_cache: tuple[LabeledGraph, tuple, int] | None = field(
        default=None, repr=False, compare=False
    )
    _covered_cache: tuple[tuple, set[str]] | None = field(
        default=None, repr=False, compare=False
    )
    _generated_stamp: tuple | None = field(
        default=None, repr=False, compare=False
    )
    _engine: object | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def name(self) -> str:
        return self.ontology.name

    def __setattr__(self, name: str, value) -> None:
        if name == "bridges" and not isinstance(value, BridgeSet):
            value = BridgeSet(value)
        super().__setattr__(name, value)

    def __getstate__(self) -> dict:
        # copy, deepcopy and pickle all read this: none carries the engine
        state = dict(self.__dict__)
        state["_engine"] = None
        return state

    # ------------------------------------------------------------------
    # the expert loop's engine, handed to one service
    # ------------------------------------------------------------------
    def carry_engine(self, engine) -> None:
        """Carry an inference engine saturated over this articulation."""
        with _CACHE_LOCK:
            self._engine = engine

    def take_engine(self):
        """Remove and return the carried engine (``None`` if none).

        The swap holds the cache lock, so two services installing the
        same articulation can never both get the engine.
        """
        with _CACHE_LOCK:
            engine, self._engine = self._engine, None
        return engine

    # ------------------------------------------------------------------
    # version stamping
    # ------------------------------------------------------------------
    def bump_version(self) -> None:
        """Record a mutation not visible through the graph versions
        (bridge/function/rule swaps); invalidates every cached view."""
        self.version += 1

    def _own_stamp(self) -> tuple:
        """The change stamp of the articulation's own parts: ``version``,
        the articulation graph, the bridge set, the function table and
        the rule set (:meth:`fingerprint` without the source graphs)."""
        function_stamp = 0
        for label in self.functions:
            function_stamp ^= hash(label)
        return (
            self.version,
            self.ontology.graph.version,
            self.bridges.stamp,
            len(self.functions),
            function_stamp,
            self.rules.version,
        )

    def fingerprint(self) -> tuple:
        """A cheap change stamp over everything the unified view reads.

        Combines the explicit ``version`` with the mutation counters of
        the articulation graph and every source graph, the bridge set's
        :class:`BridgeSet` stamp (moved by every in-place edit, so an
        equal-count swap changes it), and an order-insensitive content
        stamp of the function table (a public dict, mutable in place by
        external callers).  O(#sources + #functions): the bridges are
        never iterated.
        """
        return self._own_stamp() + (
            tuple(
                sorted(
                    (name, source.graph.version)
                    for name, source in self.sources.items()
                )
            ),
        )

    def _generation_stamp(self) -> tuple:
        # The own stamp plus what it cannot see: a swapped ontology,
        # graph, rule set or function rule, a renamed articulation, and
        # the source set with the sources' relation registries.
        # Objects are held, not their ids, so a recycled address can
        # never false-match.
        return (
            self._own_stamp(),
            self.ontology,
            self.ontology.name,
            self.ontology.graph,
            self.rules,
            tuple(self.functions.values()),
            tuple(
                (
                    key,
                    source,
                    source.name,
                    source.registry,
                    len(source.registry),
                )
                for key, source in self.sources.items()
            ),
        )

    def mark_generated(self) -> None:
        """Record that the articulation is exactly what the generator
        builds from its rule set (set by generation and reconstruction)."""
        self._generated_stamp = self._generation_stamp()

    def is_generated(self) -> bool:
        """Is the articulation still exactly rule-generated?

        True while nothing but the sources' structure has moved since
        :meth:`mark_generated`.  Any other edit voids the mark: a hand
        edit of the articulation graph, bridges, functions or rules,
        ``inherit_structure`` output, a swapped source or a registry
        change.  Source edits are the maintainer's business: it decides
        whether they change what generation would build.
        """
        stamp = self._generated_stamp
        return stamp is not None and stamp == self._generation_stamp()

    # ------------------------------------------------------------------
    # bridge navigation (used by algebra, query reformulation)
    # ------------------------------------------------------------------
    def bridges_from(self, qualified: str) -> list[Edge]:
        return [e for e in self.bridges if e.source == qualified]

    def bridges_to(self, qualified: str) -> list[Edge]:
        return [e for e in self.bridges if e.target == qualified]

    def source_terms_implying(self, art_term: str) -> set[str]:
        """Qualified source terms bridged *into* an articulation term.

        These are the source specializations of the articulation class:
        exactly the terms a query over the articulation must fan out to.
        """
        target = qualify(self.name, art_term)
        return {
            e.source
            for e in self.bridges
            if e.target == target and not e.source.startswith(f"{self.name}:")
        }

    def articulation_terms_for(self, qualified_source_term: str) -> set[str]:
        """Articulation terms a qualified source term is bridged into."""
        prefix = f"{self.name}:"
        return {
            split_qualified(e.target)[1]
            for e in self.bridges
            if e.source == qualified_source_term and e.target.startswith(prefix)
        }

    def covered_source_terms(self) -> set[str]:
        """All qualified source terms touched by any bridge.

        The maintenance story (§5.3) hinges on this set: changes to
        source terms outside it never require articulation updates.
        Cached against the bridge stamp and the articulation name, the
        only inputs it reads, so source edits keep it warm — the
        maintainer classifies every change batch through it.
        """
        with _CACHE_LOCK:
            key = (self.bridges.stamp, self.name)
            cached = self._covered_cache
            if cached is not None and cached[0] == key:
                self.cache_stats["covered_hits"] = (
                    self.cache_stats.get("covered_hits", 0) + 1
                )
                return set(cached[1])
            prefix = f"{self.name}:"
            covered: set[str] = set()
            for edge in self.bridges:
                for endpoint in (edge.source, edge.target):
                    if not endpoint.startswith(prefix):
                        covered.add(endpoint)
            self._covered_cache = (key, covered)
            self.cache_stats["covered_misses"] = (
                self.cache_stats.get("covered_misses", 0) + 1
            )
            return set(covered)

    def conversion_between(
        self, qualified_source: str, qualified_target: str
    ) -> FunctionalRule | None:
        """The functional rule on a direct conversion edge, if any."""
        for edge in self.bridges:
            if (
                edge.source == qualified_source
                and edge.target == qualified_target
                and edge.label in self.functions
            ):
                return self.functions[edge.label]
        return None

    # ------------------------------------------------------------------
    # unified view (paper §2: virtual, computed on demand)
    # ------------------------------------------------------------------
    def unified_graph(self) -> LabeledGraph:
        """Sources + articulation + bridges, over qualified node ids.

        This is exactly the union semantics of §5.1:
        ``N = N1 + N2 + NA`` and ``E = E1 + E2 + EA + BridgeEdges``.

        The built graph is cached against :meth:`fingerprint`, so
        repeated algebra operators and query reformulation share one
        instance until something underneath actually changes.  Treat
        the result as read-only; a caller that mutates it bumps its
        version and the cache rebuilds on the next call.
        """
        with _CACHE_LOCK:
            fp = self.fingerprint()
            cached = self._unified_cache
            if cached is not None:
                graph, built_fp, built_version = cached
                if built_fp == fp and graph.version == built_version:
                    self.cache_stats["unified_hits"] = (
                        self.cache_stats.get("unified_hits", 0) + 1
                    )
                    return graph
            graph = LabeledGraph()
            for source in self.sources.values():
                graph.merge(source.qualified_graph())
            graph.merge(self.ontology.qualified_graph())
            for edge in self.bridges:
                # Bridge endpoints may reference terms removed from a
                # source since generation; skip dangling bridges rather
                # than fail.
                if graph.has_node(edge.source) and graph.has_node(edge.target):
                    graph.add_edge(edge.source, edge.label, edge.target)
            self._unified_cache = (graph, fp, graph.version)
            self.cache_stats["unified_misses"] = (
                self.cache_stats.get("unified_misses", 0) + 1
            )
            return graph

    def dangling_bridges(self) -> list[Edge]:
        """Bridges whose source-side endpoint no longer exists.

        Non-empty output means a source changed inside the articulated
        region and the articulation needs maintenance (§5.3).
        """
        dangling: list[Edge] = []
        for edge in self.bridges:
            for endpoint in (edge.source, edge.target):
                onto_name, term = split_qualified(endpoint)
                if onto_name == self.name:
                    exists = self.ontology.has_term(term)
                elif onto_name in self.sources:
                    exists = self.sources[onto_name].has_term(term)
                else:
                    exists = False
                if not exists:
                    dangling.append(edge)
                    break
        return dangling

    def drop_dangling_bridges(self) -> int:
        """Remove dangling bridges; return how many were dropped."""
        dangling = self.dangling_bridges()
        for edge in dangling:
            self.bridges.discard(edge)
        if dangling:
            self.bump_version()
        return len(dangling)

    def cost(self) -> int:
        """Total elementary graph changes spent building the articulation."""
        return self.log.total_cost()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Articulation {self.name!r} terms={len(self.ontology)} "
            f"bridges={len(self.bridges)} sources={sorted(self.sources)}>"
        )


class ArticulationGenerator:
    """Builds an :class:`Articulation` from sources and rules (§4).

    The generator is reusable: :meth:`generate` starts a fresh
    articulation, while :meth:`extend` applies additional rules to an
    existing one (the expert's iterate-until-satisfied loop, §2.4).
    """

    def __init__(
        self,
        sources: Iterable[Ontology],
        *,
        name: str = "articulation",
        registry: RelationRegistry | None = None,
    ) -> None:
        self.sources: dict[str, Ontology] = {}
        for source in sources:
            if source.name in self.sources:
                raise ArticulationError(
                    f"duplicate source ontology name {source.name!r}"
                )
            self.sources[source.name] = source
        if name in self.sources:
            raise ArticulationError(
                f"articulation name {name!r} collides with a source"
            )
        self.name = name
        base = registry if registry is not None else standard_registry()
        for source in self.sources.values():
            base = base.merged_with(source.registry)
        self.registry = base

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self, rules: ArticulationRuleSet) -> Articulation:
        """Build the articulation for ``rules`` from scratch."""
        articulation = Articulation(
            ontology=Ontology(self.name, registry=self.registry.copy()),
            sources=dict(self.sources),
            rules=ArticulationRuleSet(),
        )
        articulation.mark_generated()
        self.extend(articulation, rules)
        return articulation

    def extend(
        self, articulation: Articulation, rules: ArticulationRuleSet
    ) -> int:
        """Apply additional rules to an existing articulation.

        Returns the number of rules newly applied.  Rules already in
        the articulation's rule set are skipped, which makes the
        SKAT-expert iteration idempotent.  An articulation that was
        exactly rule-generated when the call started (and shares this
        generator's sources and name) stays marked so.
        """
        generated = (
            articulation.is_generated()
            and articulation.sources == self.sources
            and articulation.name == self.name
        )
        applied = 0
        for rule in rules:
            if not articulation.rules.add(rule):
                continue
            if isinstance(rule, ImplicationRule):
                self._apply_implication(articulation, rule)
            elif isinstance(rule, FunctionalRule):
                self._apply_functional(articulation, rule)
            else:  # pragma: no cover - defensive
                raise ArticulationError(f"unsupported rule type: {rule!r}")
            applied += 1
        if generated:
            articulation.mark_generated()
        return applied

    # ------------------------------------------------------------------
    # rule interpretation
    # ------------------------------------------------------------------
    def _resolve(self, articulation: Articulation, ref: TermRef) -> str:
        """Resolve a term reference to a qualified node id.

        Source references must name existing terms.  References to the
        articulation ontology (explicit, or unqualified) create the
        term on demand — that is how cascades introduce new articulation
        classes like ``transport:PassengerCar``.
        """
        onto_name = ref.ontology or self.name
        if onto_name == self.name:
            if not articulation.ontology.has_term(ref.term):
                self._add_articulation_term(articulation, ref.term)
            return qualify(self.name, ref.term)
        source = self.sources.get(onto_name)
        if source is None:
            raise ArticulationError(
                f"rule references unknown ontology {onto_name!r}"
            )
        if not source.has_term(ref.term):
            raise TermNotFoundError(ref.term, onto_name)
        return qualify(onto_name, ref.term)

    def _add_articulation_term(
        self, articulation: Articulation, term: str
    ) -> str:
        articulation.log.apply(
            articulation.ontology.graph, NodeAddition(term, term)
        )
        return qualify(self.name, term)

    def _add_internal_edge(
        self, articulation: Articulation, source: str, label: str, target: str
    ) -> None:
        """An edge between two articulation terms (stored in the ontology)."""
        edge = Edge(source, label, target)
        if not articulation.ontology.graph.has_edge(source, label, target):
            articulation.log.apply(
                articulation.ontology.graph, EdgeAddition((edge,))
            )

    def _add_bridge(
        self, articulation: Articulation, source: str, label: str, target: str
    ) -> None:
        """A bridge edge between qualified endpoints (stored separately)."""
        edge = Edge(source, label, target)
        if edge not in articulation.bridges:
            articulation.bridges.add(edge)
            articulation.bump_version()
            # Bridges live outside any one graph; journal them on the
            # articulation's log with a free-standing EA for costing.
            articulation.log.applied.append(EdgeAddition((edge,)))

    def _connect(
        self, articulation: Articulation, specific: str, general: str
    ) -> None:
        """One atomic implication ``specific => general`` as graph work."""
        prefix = f"{self.name}:"
        spec_internal = specific.startswith(prefix)
        gen_internal = general.startswith(prefix)
        if spec_internal and gen_internal:
            # Paper: Owner => Person adds a SubclassOf edge inside the
            # articulation ontology.
            self._add_internal_edge(
                articulation,
                split_qualified(specific)[1],
                SUBCLASS_OF.code,
                split_qualified(general)[1],
            )
        else:
            self._add_bridge(articulation, specific, SI_BRIDGE.code, general)

    def _apply_implication(
        self, articulation: Articulation, rule: ImplicationRule
    ) -> None:
        # Resolve every step to a qualified node id, synthesizing
        # articulation classes for compound operands.
        resolved: list[str] = []
        for step in rule.steps:
            if isinstance(step, TermOperand):
                resolved.append(self._resolve(articulation, step.ref))
            else:
                resolved.append(
                    self._synthesize_compound(articulation, step, rule.label)
                )

        if rule.is_simple():
            spec_ref = rule.steps[0]
            gen_ref = rule.steps[-1]
            assert isinstance(spec_ref, TermOperand)
            assert isinstance(gen_ref, TermOperand)
            spec_onto = spec_ref.ref.ontology or self.name
            gen_onto = gen_ref.ref.ontology or self.name
            if spec_onto != self.name and gen_onto != self.name:
                # Paper's first worked example: copy the consequence
                # into the articulation and establish equivalence.
                art_node = self._add_articulation_term_if_missing(
                    articulation, gen_ref.ref.term
                )
                self._add_bridge(
                    articulation, resolved[0], SI_BRIDGE.code, art_node
                )
                self._add_bridge(
                    articulation, resolved[1], SI_BRIDGE.code, art_node
                )
                self._add_bridge(
                    articulation, art_node, SI_BRIDGE.code, resolved[1]
                )
                return

        for specific, general in zip(resolved, resolved[1:]):
            self._connect(articulation, specific, general)

    def _add_articulation_term_if_missing(
        self, articulation: Articulation, term: str
    ) -> str:
        if articulation.ontology.has_term(term):
            return qualify(self.name, term)
        return self._add_articulation_term(articulation, term)

    def _synthesize_compound(
        self,
        articulation: Articulation,
        operand: Operand,
        label_override: str | None,
    ) -> str:
        """Create the articulation class representing ``(A ^ B)`` / ``(A | B)``.

        Returns the qualified id of the synthesized node.
        """
        label = label_override or operand.default_label()
        node = self._add_articulation_term_if_missing(articulation, label)
        members = [
            self._resolve(articulation, term_ref)
            for term_ref in operand.terms()
        ]
        if isinstance(operand, AndOperand):
            # The synthesized class specializes every conjunct...
            for member in members:
                self._connect(articulation, node, member)
            # ...and every common subclass of all conjuncts specializes it.
            for common in self._common_subclasses(operand):
                self._connect(articulation, common, node)
        elif isinstance(operand, OrOperand):
            # Every disjunct specializes the synthesized class.
            for member in members:
                self._connect(articulation, member, node)
        else:  # pragma: no cover - defensive
            raise ArticulationError(f"unsupported operand: {operand!r}")
        return node

    def _common_subclasses(self, operand: AndOperand) -> list[str]:
        """Qualified terms that are (transitive) subclasses of *all* conjuncts.

        Computable only when every conjunct lives in one source
        ontology — cross-ontology conjunction has no shared subclass
        hierarchy to inspect, so it contributes no extra edges.
        """
        ontologies = {ref.ontology for ref in operand.terms()}
        if len(ontologies) != 1:
            return []
        onto_name = next(iter(ontologies))
        if onto_name is None or onto_name == self.name:
            return []
        source = self.sources.get(onto_name)
        if source is None:
            return []
        common: set[str] | None = None
        for ref in operand.terms():
            if not source.has_term(ref.term):
                raise TermNotFoundError(ref.term, onto_name)
            descendants = source.descendants(ref.term)
            common = descendants if common is None else common & descendants
        if not common:
            return []
        return sorted(qualify(onto_name, term) for term in common)

    def _apply_functional(
        self, articulation: Articulation, rule: FunctionalRule
    ) -> None:
        source = self._resolve(articulation, rule.source)
        target = self._resolve(articulation, rule.target)
        label = rule.edge_label()
        self._add_bridge(articulation, source, label, target)
        articulation.functions[label] = rule
        articulation.bump_version()
        inverse_label = rule.inverse_edge_label()
        if inverse_label is not None:
            self._add_bridge(articulation, target, inverse_label, source)
            articulation.functions[inverse_label] = FunctionalRule(
                rule.inverse_name or f"{rule.name}Inverse",
                rule.target,
                rule.source,
                fn=rule.inverse,
                inverse=rule.fn,
                inverse_name=rule.name,
                source_kind=rule.source_kind,
            )

    # ------------------------------------------------------------------
    # structure inheritance (§4.2)
    # ------------------------------------------------------------------
    def inherit_structure(
        self,
        articulation: Articulation,
        source_name: str,
        *,
        terms: Iterable[str] | None = None,
        transitive: bool = False,
    ) -> int:
        """Copy source structure into the articulation ontology (§4.2).

        For every pair of articulation terms that are bridged to terms
        of ``source_name``, copy the edges that connect those source
        terms ("the articulation generator generates the edges between
        the nodes in the articulation ontology based primarily on the
        edges in the selected portion of O_i").  With ``transitive``,
        SubclassOf paths also become direct edges.  Returns the number
        of edges added.
        """
        source = self.sources.get(source_name)
        if source is None:
            raise ArticulationError(f"unknown source ontology {source_name!r}")
        selected = set(terms) if terms is not None else None

        # articulation term -> the source terms it is bridged to.
        counterpart: dict[str, set[str]] = {}
        prefix_src = f"{source_name}:"
        prefix_art = f"{self.name}:"
        for edge in articulation.bridges:
            ends = (edge.source, edge.target)
            for a, b in (ends, ends[::-1]):
                if a.startswith(prefix_src) and b.startswith(prefix_art):
                    src_term = split_qualified(a)[1]
                    art_term = split_qualified(b)[1]
                    if selected is not None and src_term not in selected:
                        continue
                    counterpart.setdefault(art_term, set()).add(src_term)

        added = 0
        art_terms = list(counterpart)
        for i, art_a in enumerate(art_terms):
            for art_b in art_terms:
                if art_a == art_b:
                    continue
                for src_a in counterpart[art_a]:
                    for src_b in counterpart[art_b]:
                        for edge in source.graph.out_edges(src_a):
                            if edge.target != src_b:
                                continue
                            if not articulation.ontology.graph.has_edge(
                                art_a, edge.label, art_b
                            ):
                                self._add_internal_edge(
                                    articulation, art_a, edge.label, art_b
                                )
                                added += 1
                        if transitive and not source.graph.has_edge(
                            src_a, SUBCLASS_OF.code, src_b
                        ):
                            if src_b in source.ancestors(src_a):
                                if not articulation.ontology.graph.has_edge(
                                    art_a, SUBCLASS_OF.code, art_b
                                ):
                                    self._add_internal_edge(
                                        articulation,
                                        art_a,
                                        SUBCLASS_OF.code,
                                        art_b,
                                    )
                                    added += 1
        return added
