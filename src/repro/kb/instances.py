"""Knowledge bases: instance stores conforming to an ontology.

The paper's architecture (Fig. 1) pairs each source ontology with a
knowledge base behind a wrapper; an :class:`InstanceStore` is that
wrapper, and the query processor's per-source scans run straight
against it.  It validates typed instances against one ontology
and delegates all storage to a pluggable
:class:`~repro.kb.backends.base.StorageBackend` (in-memory dict
indexes by default, SQLite for persistence).  It answers class queries
with or without subclass closure (closure uses the ontology's
SubclassOf structure — the rule book the paper says query answering
relies on); closure is expanded *here*, so backends stay ontology-free
and only ever see concrete class sets.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from repro.core.ontology import Ontology
from repro.errors import KnowledgeBaseError

__all__ = ["Instance", "InstanceStore"]

Value = object


@dataclass(frozen=True)
class Instance:
    """One object: an id, its class term, and attribute values.

    Attribute keys are stored lowercase — sources capitalize
    attribute terms differently (``Price`` vs ``price``) and instance
    data must not care.
    """

    instance_id: str
    cls: str
    attributes: Mapping[str, Value] = field(default_factory=dict)

    def get(self, attribute: str, default: Value | None = None) -> Value | None:
        return self.attributes.get(attribute.lower(), default)

    def with_attributes(self, updates: Mapping[str, Value]) -> "Instance":
        merged = dict(self.attributes)
        merged.update({k.lower(): v for k, v in updates.items()})
        return Instance(self.instance_id, self.cls, merged)


class InstanceStore:
    """An instance store validated against one ontology.

    Storage is delegated to a backend; the store owns validation
    (class membership, strict attributes) and subclass-closure
    expansion.  The default backend is the in-memory one; pass
    ``backend=SQLiteBackend(path)`` for persistence.
    """

    def __init__(
        self,
        ontology: Ontology,
        *,
        strict_attributes: bool = False,
        backend: "StorageBackend | None" = None,
    ) -> None:
        """``strict_attributes`` rejects attribute names that are not
        declared (as AttributeOf terms) on the class or its ancestors."""
        # Imported here: backends import Instance from this module.
        from repro.kb.backends.memory import InMemoryBackend

        self.ontology = ontology
        self.strict_attributes = strict_attributes
        self.backend = backend if backend is not None else InMemoryBackend()

    @property
    def name(self) -> str:
        return self.ontology.name

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def _declared_attributes(self, cls: str) -> set[str]:
        terms = {cls} | self.ontology.ancestors(cls)
        declared: set[str] = set()
        for term in terms:
            declared.update(a.lower() for a in self.ontology.attributes(term))
        return declared

    def add(
        self,
        instance_id: str,
        cls: str,
        attributes: Mapping[str, Value] | None = None,
        **kwargs: Value,
    ) -> Instance:
        """Add an instance of ``cls``; attribute names are free-form
        unless the store is strict."""
        if instance_id in self.backend:
            raise KnowledgeBaseError(
                f"duplicate instance id {instance_id!r} in {self.name!r}"
            )
        if not self.ontology.has_term(cls):
            raise KnowledgeBaseError(
                f"class {cls!r} is not a term of ontology {self.name!r}"
            )
        merged: dict[str, Value] = {}
        for source in (attributes or {}, kwargs):
            for key, value in source.items():
                merged[key.lower()] = value
        if self.strict_attributes:
            declared = self._declared_attributes(cls)
            unknown = sorted(set(merged) - declared)
            if unknown:
                raise KnowledgeBaseError(
                    f"attributes {unknown} not declared on {cls!r} "
                    f"or its ancestors in {self.name!r}"
                )
        instance = Instance(instance_id, cls, merged)
        self.backend.insert(instance)
        return instance

    def remove(self, instance_id: str) -> Instance:
        instance = self.backend.delete(instance_id)
        if instance is None:
            raise KnowledgeBaseError(
                f"no instance {instance_id!r} in {self.name!r}"
            )
        return instance

    def clone(self, backend: "StorageBackend") -> "InstanceStore":
        """Copy every instance into ``backend`` and return a new store
        over it (used to migrate a store between backends)."""
        store = InstanceStore(
            self.ontology,
            strict_attributes=self.strict_attributes,
            backend=backend,
        )
        bulk = getattr(backend, "bulk", None)
        if bulk is not None:
            with bulk():
                for instance in self:
                    backend.insert(instance)
        else:
            for instance in self:
                backend.insert(instance)
        return store

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, instance_id: str) -> Instance:
        instance = self.backend.get(instance_id)
        if instance is None:
            raise KnowledgeBaseError(
                f"no instance {instance_id!r} in {self.name!r}"
            )
        return instance

    def __contains__(self, instance_id: object) -> bool:
        return instance_id in self.backend

    def __len__(self) -> int:
        return len(self.backend)

    def __iter__(self) -> Iterator[Instance]:
        return iter(self.backend)

    def classes(self) -> set[str]:
        return self.backend.classes()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _expand_classes(
        self, classes: Iterable[str], include_subclasses: bool
    ) -> set[str]:
        """Validate class terms and apply subclass closure."""
        expanded: set[str] = set()
        for cls in classes:
            if not self.ontology.has_term(cls):
                raise KnowledgeBaseError(
                    f"class {cls!r} is not a term of ontology {self.name!r}"
                )
            expanded.add(cls)
            if include_subclasses:
                expanded |= self.ontology.descendants(cls)
        return expanded

    def scan(
        self,
        classes: Iterable[str],
        *,
        include_subclasses: bool = True,
        conditions: tuple = (),
        attrs: frozenset[str] | None = None,
    ) -> Iterator[Instance]:
        """Stream instances of the given classes (the layered read
        path: closure expands here, filtering/projection may be pushed
        into the backend).  Yields unique instances in ascending
        ``instance_id`` order."""
        expanded = self._expand_classes(classes, include_subclasses)
        return self.backend.scan(expanded, conditions=conditions, attrs=attrs)

    def instances_of(
        self, cls: str, *, include_subclasses: bool = True
    ) -> list[Instance]:
        """Instances of ``cls``; subclass closure follows SubclassOf."""
        return list(
            self.scan((cls,), include_subclasses=include_subclasses)
        )

    def select(
        self,
        classes: Iterable[str],
        predicate: Callable[[Instance], bool] | None = None,
        *,
        include_subclasses: bool = True,
    ) -> list[Instance]:
        """Union of class queries, optionally filtered; de-duplicated."""
        return [
            instance
            for instance in self.scan(
                classes, include_subclasses=include_subclasses
            )
            if predicate is None or predicate(instance)
        ]

    def validate(self) -> list[str]:
        """Check every instance's class (and, if strict, attributes)."""
        issues: list[str] = []
        for instance in self.backend:
            if not self.ontology.has_term(instance.cls):
                issues.append(
                    f"instance {instance.instance_id!r} has unknown class "
                    f"{instance.cls!r}"
                )
                continue
            if self.strict_attributes:
                declared = self._declared_attributes(instance.cls)
                unknown = sorted(set(instance.attributes) - declared)
                if unknown:
                    issues.append(
                        f"instance {instance.instance_id!r} carries "
                        f"undeclared attributes {unknown}"
                    )
        return issues

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<InstanceStore {self.name!r} "
            f"backend={self.backend.kind} instances={len(self.backend)}>"
        )
