"""In-memory storage backend, extracted from ``InstanceStore``.

Keeps the store's original two indexes — instances by id and ids by
class — and adds an equality index (attribute, value) -> ids that
accelerates pushed ``=`` conditions, the common case for articulation
queries over categorical attributes (``model = T800``).

Scans yield in ascending ``instance_id`` order: the id set for the
requested classes is unioned (cheap — ids only, never rows) and
sorted, so the streaming executor can merge per-source streams without
re-sorting materialized results.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator

from repro.kb.backends.base import ScanStats, StorageBackend, matches_conditions
from repro.kb.instances import Instance

__all__ = ["InMemoryBackend"]

_EQ_OPS = frozenset({"=", "=="})


def _indexable(value: object) -> bool:
    """Only hash-stable scalars enter the equality index."""
    return isinstance(value, (str, int, float, bool)) or value is None


class InMemoryBackend(StorageBackend):
    """Dict-and-set storage with class and attribute-equality indexes."""

    kind = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._instances: dict[str, Instance] = {}
        self._by_class: dict[str, set[str]] = defaultdict(set)
        self._by_attr: dict[tuple[str, object], set[str]] = defaultdict(set)
        # ids whose value for an attribute is NOT in the equality index
        # (unhashable or exotic types); scans must keep them as
        # candidates because such a value can still compare equal.
        self._unindexed: dict[str, set[str]] = defaultdict(set)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, instance: Instance) -> None:
        # upsert semantics, matching SQLite's INSERT OR REPLACE: an
        # existing row's index entries must not survive the overwrite
        if instance.instance_id in self._instances:
            self.delete(instance.instance_id)
        self._instances[instance.instance_id] = instance
        self._by_class[instance.cls].add(instance.instance_id)
        for name, value in instance.attributes.items():
            if _indexable(value):
                self._by_attr[(name, value)].add(instance.instance_id)
            else:
                self._unindexed[name].add(instance.instance_id)

    def delete(self, instance_id: str) -> Instance | None:
        instance = self._instances.pop(instance_id, None)
        if instance is None:
            return None
        self._by_class[instance.cls].discard(instance_id)
        for name, value in instance.attributes.items():
            if _indexable(value):
                self._by_attr[(name, value)].discard(instance_id)
            else:
                self._unindexed[name].discard(instance_id)
        return instance

    def clear(self) -> None:
        self._instances.clear()
        self._by_class.clear()
        self._by_attr.clear()
        self._unindexed.clear()

    # ------------------------------------------------------------------
    # point reads
    # ------------------------------------------------------------------
    def get(self, instance_id: str) -> Instance | None:
        return self._instances.get(instance_id)

    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[Instance]:
        return iter(self._instances.values())

    def classes(self) -> set[str]:
        return {cls for cls, ids in self._by_class.items() if ids}

    # ------------------------------------------------------------------
    # scan
    # ------------------------------------------------------------------
    def _candidate_ids(
        self, classes: Iterable[str], conditions: tuple
    ) -> tuple[set[str], int]:
        """Ids matching the class filter, narrowed through the equality
        index when a pushed ``=`` condition allows it.  Returns the
        candidate set and how many conditions the index accelerated;
        every condition is still re-checked row-by-row."""
        ids: set[str] = set()
        for cls in classes:
            ids |= self._by_class.get(cls, set())
        indexed = 0
        for condition in conditions:
            if condition.op in _EQ_OPS and _indexable(condition.value):
                # Narrow, never prove: candidates are the exact-value
                # bucket plus every id whose value for this attribute
                # escaped the index; evaluate() below stays the judge
                # of membership (so True==1 style aliasing is safe).
                bucket = self._by_attr.get(
                    (condition.attribute, condition.value), set()
                )
                ids &= bucket | self._unindexed.get(
                    condition.attribute, set()
                )
                indexed += 1
        return ids, indexed

    def scan(
        self,
        classes: Iterable[str],
        *,
        conditions: tuple = (),
        attrs: frozenset[str] | None = None,
    ) -> Iterator[Instance]:
        self.stats.scans += 1
        if attrs:
            self.stats.projected_scans += 1
        candidates, indexed = self._candidate_ids(tuple(classes), conditions)
        self.stats.conditions_pushed += indexed
        self.stats.conditions_python += len(conditions)
        for instance_id in sorted(candidates):
            instance = self._instances[instance_id]
            if conditions and not matches_conditions(instance, conditions):
                continue
            self.stats.rows_yielded += 1
            yield instance
