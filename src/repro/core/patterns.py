"""Graph patterns and pattern matching (paper §3).

A pattern is itself a small graph.  The paper's strict matching rule is
a label-preserving graph homomorphism: pattern graph ``G1`` matches
into ``G2`` iff there is a total mapping ``f`` with

1. ``lambda1(n) = lambda2(f(n))`` for every pattern node ``n``, and
2. every pattern edge ``(n1, alpha, n2)`` has a counterpart
   ``(f(n1), alpha, f(n2))``.

On top of the strict rule the paper lets the domain expert relax both
conditions ("fuzzy matching"): nodes may match through a synonym set,
and edge labels may be ignored.  :class:`MatchConfig` carries those
expert choices; :func:`find_matches` implements the backtracking
search.  Pattern nodes may also be *variables* (unlabeled), which bind
to any graph node — the textual form ``truck(O: owner, model)`` from
the paper binds ``O`` this way.

The search resolves condition 1 through a :class:`MatchIndex` — a
per-``(graph, MatchConfig)`` map from labels to candidate node sets
with the case/synonym closure folded in at build time, cached on the
graph and rebuilt once the graph's mutation version moves — and
compiles the pattern once per call (:func:`compile_pattern`): nodes
ordered by selectivity, each edge check lowered to an O(1) set or
pair lookup.  Candidates are enumerated in sorted order, so matches
are reproducible run-to-run.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from repro.core.graph import LabeledGraph
from repro.errors import PatternError

__all__ = [
    "PatternNode",
    "PatternEdge",
    "Pattern",
    "MatchConfig",
    "MatchIndex",
    "CompiledPattern",
    "Binding",
    "compile_pattern",
    "find_matches",
    "matches",
    "first_match",
]

# Edge label wildcard inside patterns: matches any edge label.
ANY_LABEL = "*"


@dataclass(frozen=True, slots=True)
class PatternNode:
    """One node of a pattern.

    ``label`` is the term the node must match; ``None`` makes the node
    a wildcard.  ``variable`` names the binding this node produces in
    match results (wildcards usually carry a variable; labeled nodes
    may too).
    """

    node_id: str
    label: str | None = None
    variable: str | None = None

    @property
    def is_wildcard(self) -> bool:
        return self.label is None


@dataclass(frozen=True, slots=True)
class PatternEdge:
    """One edge of a pattern; label ``*`` matches any edge label."""

    source: str
    label: str
    target: str


@dataclass(frozen=True, slots=True)
class Binding:
    """One successful match: pattern node id -> graph node id.

    ``variables`` projects the mapping down to the named variables, the
    part queries and rules consume.
    """

    mapping: Mapping[str, str]
    variables: Mapping[str, str]

    def __getitem__(self, pattern_node_id: str) -> str:
        return self.mapping[pattern_node_id]

    def var(self, name: str) -> str:
        return self.variables[name]

    def matched_nodes(self) -> frozenset[str]:
        """The set of graph nodes touched by this match."""
        return frozenset(self.mapping.values())


class Pattern:
    """A pattern graph with optional ontology scope and variables.

    ``ontology`` restricts the pattern to one source (the leading
    ``carrier:`` in the paper's textual notation); ``None`` means the
    pattern applies to whatever graph it is matched against.
    """

    def __init__(self, ontology: str | None = None) -> None:
        self.ontology = ontology
        self._nodes: dict[str, PatternNode] = {}
        self._edges: list[PatternEdge] = []
        self._nodes_view: tuple[PatternNode, ...] | None = None
        self._edges_view: tuple[PatternEdge, ...] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: str,
        label: str | None = None,
        variable: str | None = None,
    ) -> PatternNode:
        if node_id in self._nodes:
            raise PatternError(f"duplicate pattern node id {node_id!r}")
        node = PatternNode(node_id, label, variable)
        self._nodes[node_id] = node
        self._nodes_view = None
        return node

    def add_edge(self, source: str, label: str, target: str) -> PatternEdge:
        for endpoint in (source, target):
            if endpoint not in self._nodes:
                raise PatternError(f"pattern edge references unknown node "
                                   f"{endpoint!r}")
        if not label:
            raise PatternError("pattern edge label must be non-empty "
                               f"(use {ANY_LABEL!r} for a wildcard)")
        edge = PatternEdge(source, label, target)
        self._edges.append(edge)
        self._edges_view = None
        return edge

    @classmethod
    def single(cls, label: str, *, ontology: str | None = None) -> "Pattern":
        """A one-node pattern matching a single term."""
        pattern = cls(ontology)
        pattern.add_node("n0", label)
        return pattern

    @classmethod
    def path(
        cls,
        labels: Iterable[str],
        *,
        ontology: str | None = None,
        edge_label: str = ANY_LABEL,
    ) -> "Pattern":
        """A chain pattern ``l0 -> l1 -> ...`` (the ``a:b:c`` notation)."""
        pattern = cls(ontology)
        previous: str | None = None
        for index, label in enumerate(labels):
            node_id = f"n{index}"
            pattern.add_node(node_id, label)
            if previous is not None:
                pattern.add_edge(previous, edge_label, node_id)
            previous = node_id
        if previous is None:
            raise PatternError("path pattern needs at least one label")
        return pattern

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def nodes(self) -> tuple[PatternNode, ...]:
        """All pattern nodes, as a cached tuple (no per-call copy)."""
        if self._nodes_view is None:
            self._nodes_view = tuple(self._nodes.values())
        return self._nodes_view

    def node(self, node_id: str) -> PatternNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise PatternError(f"no pattern node {node_id!r}") from None

    def edges(self) -> tuple[PatternEdge, ...]:
        """All pattern edges, as a cached tuple (no per-call copy)."""
        if self._edges_view is None:
            self._edges_view = tuple(self._edges)
        return self._edges_view

    def variables(self) -> list[str]:
        return [n.variable for n in self._nodes.values() if n.variable]

    def node_labels(self) -> set[str]:
        return {n.label for n in self._nodes.values() if n.label is not None}

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        scope = f" ontology={self.ontology!r}" if self.ontology else ""
        return f"<Pattern nodes={len(self._nodes)} edges={len(self._edges)}{scope}>"


@dataclass(frozen=True)
class MatchConfig:
    """Expert-tunable match semantics (paper §3, fuzzy matching).

    * ``synonyms`` — mapping from a term to its accepted alternatives;
      :meth:`with_synonyms` builds the full symmetric+transitive
      closure, so chained pairs ``a~b``, ``b~c`` also make ``a`` match
      ``c``.
    * ``case_insensitive`` — compare labels case-insensitively.
    * ``relax_edge_labels`` — drop condition 2's label equality: any
      edge in the right direction matches.
    * ``node_equiv`` / ``edge_equiv`` — escape hatches for arbitrary
      expert-supplied predicates; they run *in addition to* the rules
      above (a pair matches if any rule accepts it).
    * ``injective`` — require distinct pattern nodes to map to distinct
      graph nodes.  The paper's ``f`` is a plain total mapping, so this
      defaults to False.
    """

    synonyms: Mapping[str, frozenset[str]] = field(default_factory=dict)
    case_insensitive: bool = False
    relax_edge_labels: bool = False
    node_equiv: Callable[[str, str], bool] | None = None
    edge_equiv: Callable[[str, str], bool] | None = None
    injective: bool = False

    @classmethod
    def strict(cls) -> "MatchConfig":
        return cls()

    @classmethod
    def with_synonyms(cls, pairs: Iterable[tuple[str, str]]) -> "MatchConfig":
        """Build a config from synonym pairs, fully closed.

        The table is the symmetric *and transitive* closure of the
        pairs: two rules chaining ``a -> b`` and ``b -> c`` put ``a``,
        ``b`` and ``c`` in one equivalence class, so ``a`` matches
        ``c`` without the expert restating the composite pair.
        """
        adjacency: dict[str, set[str]] = {}
        for a, b in pairs:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        frozen: dict[str, frozenset[str]] = {}
        seen: set[str] = set()
        for start in adjacency:
            if start in seen:
                continue
            component = {start}
            stack = [start]
            while stack:
                for neighbor in adjacency[stack.pop()]:
                    if neighbor not in component:
                        component.add(neighbor)
                        stack.append(neighbor)
            seen |= component
            for term in component:
                frozen[term] = frozenset(component - {term})
        return cls(synonyms=frozen)

    # -- index cache key --------------------------------------------------
    def cache_key(self) -> tuple:
        """A hashable *value* key for per-graph match-index caches.

        Equal configs share one :class:`MatchIndex` even when callers
        construct a fresh (frozen, value-equal) instance per call.  The
        predicate escape hatches compare by identity — their behavior
        is not introspectable — and the cached index keeps its config
        (and thus the predicates) alive, so a recycled ``id`` can never
        false-match a live cache entry.
        """
        cached = self.__dict__.get("_cache_key")
        if cached is None:
            cached = (
                tuple(
                    sorted(
                        (term, tuple(sorted(alts)))
                        for term, alts in self.synonyms.items()
                    )
                ),
                self.case_insensitive,
                self.relax_edge_labels,
                id(self.node_equiv) if self.node_equiv is not None else None,
                id(self.edge_equiv) if self.edge_equiv is not None else None,
            )
            object.__setattr__(self, "_cache_key", cached)
        return cached

    # -- label comparison ------------------------------------------------
    def node_labels_match(self, pattern_label: str, graph_label: str) -> bool:
        if pattern_label == graph_label:
            return True
        if self.case_insensitive and pattern_label.lower() == graph_label.lower():
            return True
        alts = self.synonyms.get(pattern_label)
        if alts is not None:
            if graph_label in alts:
                return True
            if self.case_insensitive and any(
                a.lower() == graph_label.lower() for a in alts
            ):
                return True
        if self.node_equiv is not None and self.node_equiv(
            pattern_label, graph_label
        ):
            return True
        return False

    def edge_labels_match(self, pattern_label: str, graph_label: str) -> bool:
        if pattern_label == ANY_LABEL or self.relax_edge_labels:
            return True
        if pattern_label == graph_label:
            return True
        if self.edge_equiv is not None and self.edge_equiv(
            pattern_label, graph_label
        ):
            return True
        return False


# ----------------------------------------------------------------------
# the match index (built once per (graph, config), cached on the graph)
# ----------------------------------------------------------------------
class MatchIndex:
    """Precomputed candidate lookups for one ``(graph, MatchConfig)``.

    The index folds the fuzzy-label closure into build-time maps so
    that resolving a pattern label costs a few dict lookups instead of
    a scan over every distinct graph label:

    * the exact label index comes straight from the graph;
    * ``case_insensitive`` adds a lowercased-label map (built once);
    * synonym alternatives resolve through those same maps;
    * an arbitrary ``node_equiv`` predicate cannot be inverted, so it
      falls back to one label scan — but only once per distinct
      pattern label, memoized for the life of the index.

    Edge checks use a lazily built ``(source, target) -> labels`` pair
    map, turning the relaxed-edge test into one dict probe.

    Instances are cached on the graph (:meth:`for_graph`) and rebuilt
    when the graph's mutation version moves; every structure is built
    lazily, so a rebuild costs nothing until a match reads it.
    """

    __slots__ = (
        "graph",
        "config",
        "version",
        "_by_lower",
        "_label_cache",
        "_all_nodes",
        "_pair_labels",
    )

    def __init__(self, graph: LabeledGraph, config: MatchConfig) -> None:
        self.graph = graph
        self.config = config
        self.version = graph.version
        self._by_lower: dict[str, set[str]] | None = None
        self._label_cache: dict[str, tuple[str, ...]] = {}
        self._all_nodes: tuple[str, ...] | None = None
        self._pair_labels: dict[tuple[str, str], set[str]] | None = None

    # A handful of configs per graph is the realistic ceiling; beyond
    # it, drop the oldest entries rather than grow without bound.
    _CACHE_LIMIT = 8

    # One lock for every graph's index cache: for_graph mutates the
    # per-graph cache dict, so concurrent serving threads must not
    # interleave.  Contention is negligible (the work inside is dict
    # probes; index builds are lazy).
    _cache_lock = threading.Lock()

    @classmethod
    def for_graph(cls, graph: LabeledGraph, config: MatchConfig) -> "MatchIndex":
        """The cached index for this config, rebuilt if the graph moved.

        Keyed by the config's *value* (:meth:`MatchConfig.cache_key`),
        so callers constructing a fresh equal config per call still
        reuse the warm index.  Thread-safe: lookup, rebuild and
        eviction happen under one class-wide lock.
        """
        with cls._cache_lock:
            cache = graph._match_indexes
            key = config.cache_key()
            entry = cache.get(key)
            if entry is not None and entry.version == graph.version:
                return entry
            if entry is None and len(cache) >= cls._CACHE_LIMIT:
                # Evict the oldest entry (dict preserves insertion
                # order) rather than wiping every warm index on the
                # graph.
                del cache[next(iter(cache))]
            index = cls(graph, config)
            cache[key] = index
            return index

    def fresh(self) -> bool:
        return self.version == self.graph.version

    # -- candidate resolution -------------------------------------------
    def all_nodes(self) -> tuple[str, ...]:
        """Every graph node, sorted (wildcard candidates)."""
        if self._all_nodes is None:
            self._all_nodes = tuple(sorted(self.graph.nodes()))
        return self._all_nodes

    def _lower_map(self) -> dict[str, set[str]]:
        if self._by_lower is None:
            by_lower: dict[str, set[str]] = {}
            for label in self.graph.labels():
                by_lower.setdefault(label.lower(), set()).update(
                    self.graph.nodes_with_label(label)
                )
            self._by_lower = by_lower
        return self._by_lower

    def candidates(self, pattern_label: str) -> tuple[str, ...]:
        """Graph nodes satisfying condition 1 for ``pattern_label``.

        Sorted and memoized per label: exactly the nodes whose label
        :meth:`MatchConfig.node_labels_match` accepts.
        """
        cached = self._label_cache.get(pattern_label)
        if cached is not None:
            return cached
        graph, config = self.graph, self.config
        found: set[str] = set(graph.nodes_with_label(pattern_label))
        if config.case_insensitive:
            found |= self._lower_map().get(pattern_label.lower(), set())
        alts = config.synonyms.get(pattern_label)
        if alts:
            for alt in alts:
                found |= graph.nodes_with_label(alt)
                if config.case_insensitive:
                    found |= self._lower_map().get(alt.lower(), set())
        if config.node_equiv is not None:
            equiv = config.node_equiv
            for label in graph.labels():
                if equiv(pattern_label, label):
                    found |= graph.nodes_with_label(label)
        result = tuple(sorted(found))
        self._label_cache[pattern_label] = result
        return result

    # -- edge resolution -------------------------------------------------
    def pair_labels(self, source: str, target: str) -> set[str]:
        """Edge labels present between a node pair (possibly empty)."""
        if self._pair_labels is None:
            pairs: dict[tuple[str, str], set[str]] = {}
            for edge in self.graph.edges():
                pairs.setdefault((edge.source, edge.target), set()).add(
                    edge.label
                )
            self._pair_labels = pairs
        return self._pair_labels.get((source, target), _NO_LABELS)


_NO_LABELS: set[str] = set()


# The shared default config: every config-less find_matches call must
# resolve to ONE object, or the identity-keyed index cache would miss
# (and churn) on every call.
_STRICT_CONFIG = MatchConfig.strict()

# Edge-check kinds precomputed by compile_pattern.
_EDGE_EXACT = 0  # strict label: one O(1) has_edge probe
_EDGE_ANY = 1  # wildcard / relaxed: any edge between the pair
_EDGE_EQUIV = 2  # expert edge_equiv: test the pair's label set


@dataclass(frozen=True, slots=True)
class CompiledPattern:
    """A pattern lowered against one graph + config.

    ``order`` assigns the most constrained nodes first; ``candidates``
    holds the (sorted) candidate tuple per pattern node id; ``checks``
    lists, per assignment depth, the edge tests whose endpoints are
    bound once that node is assigned, each lowered to
    ``(source_id, target_id, pattern_label, kind)``.
    """

    order: tuple[PatternNode, ...]
    candidates: Mapping[str, tuple[str, ...]]
    checks: tuple[tuple[tuple[str, str, str, int], ...], ...]


def _order_nodes(
    nodes: Iterable[PatternNode],
    candidate_sets: Mapping[str, Iterable[str]],
    adjacency: Mapping[str, list[PatternEdge]],
) -> list[PatternNode]:
    """Most constrained (fewest candidates, then most edges) first."""
    return sorted(
        nodes,
        key=lambda n: (
            len(candidate_sets[n.node_id]),
            -len(adjacency[n.node_id]),
        ),
    )


def _pattern_adjacency(
    nodes: Iterable[PatternNode], edges: Iterable[PatternEdge]
) -> dict[str, list[PatternEdge]]:
    adjacency: dict[str, list[PatternEdge]] = {n.node_id: [] for n in nodes}
    for edge in edges:
        adjacency[edge.source].append(edge)
        adjacency[edge.target].append(edge)
    return adjacency


def compile_pattern(
    pattern: Pattern,
    graph: LabeledGraph,
    config: MatchConfig | None = None,
    *,
    index: MatchIndex | None = None,
) -> CompiledPattern:
    """Lower ``pattern`` for matching against ``graph`` under ``config``.

    Candidate sets resolve through the (cached) :class:`MatchIndex`;
    pattern nodes are ordered by selectivity; every pattern edge is
    classified once into the cheapest check its semantics allow, and
    attached to the assignment depth at which both endpoints are bound.
    """
    config = config if config is not None else _STRICT_CONFIG
    nodes = pattern.nodes()
    if not nodes:
        raise PatternError("cannot match an empty pattern")
    index = index if index is not None else MatchIndex.for_graph(graph, config)

    candidates = {
        n.node_id: (
            index.all_nodes() if n.is_wildcard else index.candidates(n.label)
        )
        for n in nodes
    }
    adjacency = _pattern_adjacency(nodes, pattern.edges())
    order = tuple(_order_nodes(nodes, candidates, adjacency))

    depth_of = {node.node_id: depth for depth, node in enumerate(order)}
    checks: list[list[tuple[str, str, str, int]]] = [[] for _ in order]
    for edge in pattern.edges():
        if edge.label == ANY_LABEL or config.relax_edge_labels:
            kind = _EDGE_ANY
        elif config.edge_equiv is not None:
            kind = _EDGE_EQUIV
        else:
            kind = _EDGE_EXACT
        bound_at = max(depth_of[edge.source], depth_of[edge.target])
        checks[bound_at].append((edge.source, edge.target, edge.label, kind))
    return CompiledPattern(
        order=order,
        candidates=candidates,
        checks=tuple(tuple(c) for c in checks),
    )


# ----------------------------------------------------------------------
# the backtracking search
# ----------------------------------------------------------------------
def _find_matches(
    pattern: Pattern,
    graph: LabeledGraph,
    config: MatchConfig,
    limit: int | None,
) -> Iterator[Binding]:
    index = MatchIndex.for_graph(graph, config)
    compiled = compile_pattern(pattern, graph, config, index=index)
    order = compiled.order
    candidates = compiled.candidates
    checks = compiled.checks
    nodes = pattern.nodes()
    injective = config.injective
    has_edge = graph.has_edge
    pair_labels = index.pair_labels
    edge_labels_match = config.edge_labels_match

    assignment: dict[str, str] = {}
    used: set[str] = set()
    emitted = 0

    def checks_ok(depth: int) -> bool:
        for src_id, dst_id, label, kind in checks[depth]:
            src = assignment[src_id]
            dst = assignment[dst_id]
            if kind == _EDGE_EXACT:
                if not has_edge(src, label, dst):
                    return False
            elif kind == _EDGE_ANY:
                if not pair_labels(src, dst):
                    return False
            else:  # _EDGE_EQUIV
                if not any(
                    edge_labels_match(label, gl)
                    for gl in pair_labels(src, dst)
                ):
                    return False
        return True

    def extend(depth: int) -> Iterator[Binding]:
        nonlocal emitted
        if depth == len(order):
            variables = {
                n.variable: assignment[n.node_id]
                for n in nodes
                if n.variable is not None
            }
            emitted += 1
            yield Binding(dict(assignment), variables)
            return
        pattern_node = order[depth]
        node_id = pattern_node.node_id
        for candidate in candidates[node_id]:
            if injective and candidate in used:
                continue
            assignment[node_id] = candidate
            used.add(candidate)
            if checks_ok(depth):
                yield from extend(depth + 1)
                if limit is not None and emitted >= limit:
                    del assignment[node_id]
                    used.discard(candidate)
                    return
            del assignment[node_id]
            used.discard(candidate)

    yield from extend(0)


def find_matches(
    pattern: Pattern,
    graph: LabeledGraph,
    config: MatchConfig | None = None,
    *,
    limit: int | None = None,
) -> Iterator[Binding]:
    """All mappings of ``pattern`` into ``graph`` under ``config``.

    Backtracking search ordered most-constrained-first: labeled pattern
    nodes with the fewest candidates are assigned before wildcards, and
    every partial assignment is checked against the pattern edges whose
    endpoints are already bound.  Candidates come from the cached
    :class:`MatchIndex` and edge checks from :func:`compile_pattern`.

    ``limit`` caps the number of bindings yielded: ``0`` yields none,
    and a negative limit raises :class:`PatternError`.
    """
    config = config if config is not None else _STRICT_CONFIG
    if not len(pattern):
        raise PatternError("cannot match an empty pattern")
    if limit is not None:
        if limit < 0:
            raise PatternError(f"match limit must be >= 0, got {limit!r}")
        if limit == 0:
            return iter(())
    return _find_matches(pattern, graph, config, limit)


def matches(
    pattern: Pattern, graph: LabeledGraph, config: MatchConfig | None = None
) -> bool:
    """True iff the pattern matches into the graph at least once."""
    return first_match(pattern, graph, config) is not None


def first_match(
    pattern: Pattern, graph: LabeledGraph, config: MatchConfig | None = None
) -> Binding | None:
    for binding in find_matches(pattern, graph, config, limit=1):
        return binding
    return None
