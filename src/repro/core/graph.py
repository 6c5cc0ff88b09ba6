"""Directed labeled multigraph — the substrate of the ONION data layer.

The paper (§3) defines an ontology as a directed labeled graph
``G = (N, E)`` with a node-labeling function ``lambda`` and an
edge-labeling function ``delta``.  :class:`LabeledGraph` implements that
model directly:

* nodes are identified by an opaque string id and carry a non-null
  string label (the paper's ``lambda(n)``);
* edges are ``(source, label, target)`` triples (the paper's
  ``(n1, alpha, n2)``); a pair of nodes may be connected by many edges
  as long as their labels differ, and the same labeled edge is never
  stored twice.

The class keeps forward, backward and label indexes so that pattern
matching and the algebra operators stay near-linear in the size of the
portion of the graph they touch.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Callable

from repro.errors import (
    DuplicateNodeError,
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
)

__all__ = ["Edge", "LabeledGraph"]

# Mutation-journal retention: a reader more than this many mutations
# stale falls back to a full rebuild instead of a replay.
_JOURNAL_RETENTION = 256


@dataclass(frozen=True, slots=True)
class Edge:
    """A directed labeled edge ``(source, label, target)``.

    Matches the paper's edge form ``(n1, alpha, n2)``.  Edges are value
    objects: two edges are equal iff all three components are equal.
    """

    source: str
    label: str
    target: str

    def reversed(self) -> "Edge":
        """Return the same-labeled edge pointing the other way."""
        return Edge(self.target, self.label, self.source)

    def relabeled(self, label: str) -> "Edge":
        """Return a copy of this edge with a different label."""
        return Edge(self.source, label, self.target)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.source} -[{self.label}]-> {self.target})"


class LabeledGraph:
    """A mutable directed labeled multigraph.

    Node ids are strings; each node has a non-empty string label.  In a
    consistent ontology the id and the label coincide (one node per
    term); in unified graphs ids are qualified (``ontology:term``) while
    labels stay unqualified, so the same vocabulary can appear in
    several sources without clashing.
    """

    __slots__ = (
        "_labels",
        "_out",
        "_in",
        "_edges",
        "_by_label",
        "_version",
        "_match_indexes",
        "_journal",
    )

    def __init__(self) -> None:
        self._labels: dict[str, str] = {}
        self._out: dict[str, set[Edge]] = {}
        self._in: dict[str, set[Edge]] = {}
        self._edges: set[Edge] = set()
        self._by_label: dict[str, set[str]] = {}
        self._version = 0
        # Per-(graph, MatchConfig-value) candidate indexes, managed by
        # repro.core.patterns.MatchIndex; entries self-invalidate
        # against ``_version``.
        self._match_indexes: dict[tuple, object] = {}
        # Bounded mutation journal: one (version, op, ...) row per
        # structural change, newest _JOURNAL_RETENTION rows kept.
        # The inference engine replays the rows since its last refresh
        # into its edge facts; journal_since() serves the span.
        self._journal: deque[tuple] = deque(maxlen=_JOURNAL_RETENTION)

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumped by every structural change.

        Caches built over a graph (pattern-match indexes, cached unified
        graphs, the inference engine's edge facts) record the version
        they were built at and refresh when it moves: the edge facts by
        replaying :meth:`journal_since` when the gap fits the journal
        window, everything else from scratch.
        """
        return self._version

    def journal_since(self, version: int) -> list[tuple] | None:
        """Mutation rows recorded after ``version``, oldest first.

        Every structural mutation appends exactly one row tagged with
        the version it produced, so rows carry consecutive versions
        and the newest row is always the current version.  Returns
        ``[]`` when ``version`` is already current, ``None`` when the
        requested span has fallen out of the bounded window (the
        caller must rebuild its cache instead of replaying).
        """
        if version >= self._version:
            return []
        journal = self._journal
        if not journal or journal[0][0] > version + 1:
            return None
        return [row for row in journal if row[0] > version]

    # ------------------------------------------------------------------
    # node operations
    # ------------------------------------------------------------------
    def add_node(self, node_id: str, label: str | None = None) -> str:
        """Add a node.  The label defaults to the id itself.

        Raises :class:`DuplicateNodeError` if the id is taken and
        :class:`GraphError` if the label is empty (the paper requires
        ``lambda`` to map to a *non-null* string).
        """
        if node_id in self._labels:
            raise DuplicateNodeError(node_id)
        resolved = label if label is not None else node_id
        if not resolved:
            raise GraphError(f"node {node_id!r} must have a non-empty label")
        self._labels[node_id] = resolved
        self._out[node_id] = set()
        self._in[node_id] = set()
        self._by_label.setdefault(resolved, set()).add(node_id)
        self._version += 1
        self._journal.append((self._version, "add_node", node_id, resolved))
        return node_id

    def ensure_node(self, node_id: str, label: str | None = None) -> str:
        """Add the node if absent; return the id either way."""
        if node_id not in self._labels:
            self.add_node(node_id, label)
        return node_id

    def remove_node(self, node_id: str) -> list[Edge]:
        """Remove a node and every edge incident to it.

        Returns the removed incident edges, which callers (the
        transformation log, the difference operator) use to build
        inverse operations.
        """
        if node_id not in self._labels:
            raise NodeNotFoundError(node_id)
        incident = list(self._out[node_id] | self._in[node_id])
        for edge in incident:
            self.remove_edge(edge)
        label = self._labels.pop(node_id)
        peers = self._by_label[label]
        peers.discard(node_id)
        if not peers:
            del self._by_label[label]
        del self._out[node_id]
        del self._in[node_id]
        self._version += 1
        self._journal.append((self._version, "remove_node", node_id, label))
        return incident

    def has_node(self, node_id: str) -> bool:
        return node_id in self._labels

    def label(self, node_id: str) -> str:
        """The paper's ``lambda(n)``."""
        try:
            return self._labels[node_id]
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def relabel_node(self, node_id: str, label: str) -> None:
        """Change ``lambda(n)``, keeping all edges intact."""
        if not label:
            raise GraphError(f"node {node_id!r} must have a non-empty label")
        old = self.label(node_id)
        if old == label:
            return
        peers = self._by_label[old]
        peers.discard(node_id)
        if not peers:
            del self._by_label[old]
        self._labels[node_id] = label
        self._by_label.setdefault(label, set()).add(node_id)
        self._version += 1
        self._journal.append(
            (self._version, "relabel_node", node_id, old, label)
        )

    def nodes(self) -> Iterator[str]:
        return iter(self._labels)

    def node_count(self) -> int:
        return len(self._labels)

    def nodes_with_label(self, label: str) -> frozenset[str]:
        """All node ids whose label equals ``label`` exactly."""
        return frozenset(self._by_label.get(label, ()))

    def labels(self) -> Iterator[str]:
        """Iterate over the distinct node labels present in the graph."""
        return iter(self._by_label)

    # ------------------------------------------------------------------
    # edge operations
    # ------------------------------------------------------------------
    def add_edge(self, source: str, label: str, target: str) -> Edge:
        """Add the edge ``(source, label, target)``.

        Both endpoints must already exist.  Adding an edge that is
        already present is a no-op returning the existing edge value,
        mirroring set semantics of the paper's ``E' = E union SE``.
        """
        if source not in self._labels:
            raise NodeNotFoundError(source)
        if target not in self._labels:
            raise NodeNotFoundError(target)
        if not label:
            raise GraphError("edge label must be a non-empty string")
        edge = Edge(source, label, target)
        if edge not in self._edges:
            self._edges.add(edge)
            self._out[source].add(edge)
            self._in[target].add(edge)
            self._version += 1
            self._journal.append(
                (self._version, "add_edge", source, label, target)
            )
        return edge

    def remove_edge(self, edge: Edge) -> None:
        if edge not in self._edges:
            raise EdgeNotFoundError(edge)
        self._edges.discard(edge)
        self._out[edge.source].discard(edge)
        self._in[edge.target].discard(edge)
        self._version += 1
        self._journal.append(
            (self._version, "remove_edge", edge.source, edge.label,
             edge.target)
        )

    def discard_edge(self, edge: Edge) -> bool:
        """Remove the edge if present; return whether it was removed."""
        if edge in self._edges:
            self.remove_edge(edge)
            return True
        return False

    def has_edge(self, source: str, label: str, target: str) -> bool:
        return Edge(source, label, target) in self._edges

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges)

    def edge_count(self) -> int:
        return len(self._edges)

    def out_edges(self, node_id: str, label: str | None = None) -> list[Edge]:
        """Outgoing edges of a node, optionally restricted to one label."""
        if node_id not in self._labels:
            raise NodeNotFoundError(node_id)
        edges = self._out[node_id]
        if label is None:
            return list(edges)
        return [e for e in edges if e.label == label]

    def in_edges(self, node_id: str, label: str | None = None) -> list[Edge]:
        """Incoming edges of a node, optionally restricted to one label."""
        if node_id not in self._labels:
            raise NodeNotFoundError(node_id)
        edges = self._in[node_id]
        if label is None:
            return list(edges)
        return [e for e in edges if e.label == label]

    def successors(self, node_id: str, label: str | None = None) -> set[str]:
        return {e.target for e in self.out_edges(node_id, label)}

    def predecessors(self, node_id: str, label: str | None = None) -> set[str]:
        return {e.source for e in self.in_edges(node_id, label)}

    def degree(self, node_id: str) -> int:
        if node_id not in self._labels:
            raise NodeNotFoundError(node_id)
        return len(self._out[node_id]) + len(self._in[node_id])

    def edge_labels(self) -> set[str]:
        """The distinct edge labels used in the graph."""
        return {e.label for e in self._edges}

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def reachable_from(
        self,
        start: str | Iterable[str],
        *,
        labels: Iterable[str] | None = None,
        reverse: bool = False,
    ) -> set[str]:
        """Nodes reachable from ``start`` by directed paths.

        ``labels`` restricts traversal to edges with those labels;
        ``reverse`` walks edges backwards.  The start nodes themselves
        are included (a node reaches itself by the empty path), matching
        the closure convention used by the difference operator (§5.3).
        """
        roots = [start] if isinstance(start, str) else list(start)
        for node in roots:
            if node not in self._labels:
                raise NodeNotFoundError(node)
        allowed = set(labels) if labels is not None else None
        seen: set[str] = set(roots)
        frontier: deque[str] = deque(roots)
        while frontier:
            node = frontier.popleft()
            edges = self._in[node] if reverse else self._out[node]
            for edge in edges:
                if allowed is not None and edge.label not in allowed:
                    continue
                nxt = edge.source if reverse else edge.target
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def shortest_path(
        self, source: str, target: str, *, labels: Iterable[str] | None = None
    ) -> list[str] | None:
        """BFS shortest directed path as a node list, or None."""
        if source not in self._labels:
            raise NodeNotFoundError(source)
        if target not in self._labels:
            raise NodeNotFoundError(target)
        if source == target:
            return [source]
        allowed = set(labels) if labels is not None else None
        parent: dict[str, str] = {source: source}
        frontier: deque[str] = deque([source])
        while frontier:
            node = frontier.popleft()
            for edge in self._out[node]:
                if allowed is not None and edge.label not in allowed:
                    continue
                if edge.target in parent:
                    continue
                parent[edge.target] = node
                if edge.target == target:
                    path = [target]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                frontier.append(edge.target)
        return None

    def topological_order(self, *, labels: Iterable[str] | None = None) -> list[str]:
        """Kahn topological order over the chosen edge labels.

        Raises :class:`GraphError` if those edges contain a cycle.
        """
        allowed = set(labels) if labels is not None else None

        def counts_in(node: str) -> int:
            if allowed is None:
                return len(self._in[node])
            return sum(1 for e in self._in[node] if e.label in allowed)

        indegree = {n: counts_in(n) for n in self._labels}
        ready = deque(sorted(n for n, d in indegree.items() if d == 0))
        order: list[str] = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for edge in sorted(self._out[node], key=lambda e: e.target):
                if allowed is not None and edge.label not in allowed:
                    continue
                indegree[edge.target] -= 1
                if indegree[edge.target] == 0:
                    ready.append(edge.target)
        if len(order) != len(self._labels):
            raise GraphError("graph contains a cycle over the selected labels")
        return order

    # ------------------------------------------------------------------
    # whole-graph operations
    # ------------------------------------------------------------------
    def copy(self) -> "LabeledGraph":
        clone = LabeledGraph()
        clone._labels = dict(self._labels)
        clone._edges = set(self._edges)
        clone._out = {n: set(edges) for n, edges in self._out.items()}
        clone._in = {n: set(edges) for n, edges in self._in.items()}
        clone._by_label = {lbl: set(ids) for lbl, ids in self._by_label.items()}
        # Match indexes are keyed to the original object; the clone
        # starts with none and its own version history.
        return clone

    def subgraph(self, node_ids: Iterable[str]) -> "LabeledGraph":
        """The subgraph induced by ``node_ids`` (edges with both ends kept)."""
        keep = set(node_ids)
        missing = keep - self._labels.keys()
        if missing:
            raise NodeNotFoundError(sorted(missing)[0])
        sub = LabeledGraph()
        for node in keep:
            sub.add_node(node, self._labels[node])
        for edge in self._edges:
            if edge.source in keep and edge.target in keep:
                sub.add_edge(edge.source, edge.label, edge.target)
        return sub

    def merge(self, other: "LabeledGraph") -> None:
        """Union ``other`` into this graph in place.

        Shared node ids must agree on their label; otherwise the two
        graphs describe different concepts under one id and merging
        would corrupt both, so we raise :class:`GraphError`.
        """
        for node in other.nodes():
            label = other.label(node)
            if self.has_node(node):
                if self.label(node) != label:
                    raise GraphError(
                        f"conflicting labels for node {node!r}: "
                        f"{self.label(node)!r} vs {label!r}"
                    )
            else:
                self.add_node(node, label)
        for edge in other.edges():
            self.add_edge(edge.source, edge.label, edge.target)

    def filter_nodes(self, predicate: Callable[[str, str], bool]) -> "LabeledGraph":
        """Induced subgraph of nodes where ``predicate(id, label)`` holds."""
        return self.subgraph(
            n for n, lbl in self._labels.items() if predicate(n, lbl)
        )

    def is_consistent(self) -> bool:
        """True iff every label names exactly one node (paper §1).

        A consistent vocabulary is what makes the label interchangeable
        with the node, as the paper assumes from §3 onwards.
        """
        return all(len(ids) == 1 for ids in self._by_label.values())

    # ------------------------------------------------------------------
    # comparison / export
    # ------------------------------------------------------------------
    def structure(self) -> tuple[frozenset[tuple[str, str]], frozenset[Edge]]:
        """A hashable snapshot: ``({(id, label)}, {edges})``."""
        return (
            frozenset(self._labels.items()),
            frozenset(self._edges),
        )

    def same_structure(self, other: "LabeledGraph") -> bool:
        """Exact equality of node ids, labels and edges."""
        return self.structure() == other.structure()

    def label_structure(
        self,
    ) -> tuple[frozenset[str], frozenset[tuple[str, str, str]]]:
        """Structure up to node identity: labels and label-level edges.

        Two consistent ontology graphs over the same vocabulary compare
        equal here even if their internal node ids differ.
        """
        labels = frozenset(self._labels.values())
        edges = frozenset(
            (self._labels[e.source], e.label, self._labels[e.target])
            for e in self._edges
        )
        return labels, edges

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot of the graph."""
        return {
            "nodes": [
                {"id": n, "label": lbl} for n, lbl in sorted(self._labels.items())
            ],
            "edges": [
                {"source": e.source, "label": e.label, "target": e.target}
                for e in sorted(
                    self._edges, key=lambda e: (e.source, e.label, e.target)
                )
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LabeledGraph":
        graph = cls()
        for node in payload.get("nodes", ()):
            graph.add_node(node["id"], node.get("label"))
        for edge in payload.get("edges", ()):
            graph.add_edge(edge["source"], edge["label"], edge["target"])
        return graph

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._labels

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LabeledGraph nodes={len(self._labels)} edges={len(self._edges)}>"
        )
