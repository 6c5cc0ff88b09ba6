"""The storage-backend protocol (paper Fig. 1, behind the wrapper).

A backend is pure storage: it holds :class:`~repro.kb.instances.Instance`
rows and answers *scans*.  It knows nothing about ontologies — subclass
closure is expanded by :class:`~repro.kb.instances.InstanceStore` before
a scan reaches the backend, so ``classes`` is always a concrete set of
class terms.

``scan`` is the one read path and it streams: backends yield instances
instead of returning lists, so the executor can overlap fetch,
conversion and predicate work.  Every scan yields unique instances in
ascending ``instance_id`` order, which lets the streaming executor
concatenate per-source streams without a sort.  Two optional hints let
a backend do work where it is cheapest:

* ``conditions`` — structured :class:`~repro.query.ast.Condition`
  predicates (ANDed).  A backend MUST apply all of them before
  yielding, but MAY evaluate them natively (the SQLite backend
  compiles them to SQL ``WHERE`` clauses); :meth:`ScanStats` records
  how many were evaluated natively vs. in Python.
* ``attrs`` — a projection hint: when non-empty the caller promises to
  read only these attributes, so a backend MAY narrow the instances it
  yields to that attribute set (the SQLite backend extracts only those
  JSON paths).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.kb.instances import Instance

__all__ = ["ScanStats", "StorageBackend", "matches_conditions"]


def matches_conditions(instance: Instance, conditions: Iterable) -> bool:
    """Python-side evaluation of structured conditions (the fallback
    every backend shares)."""
    return all(
        condition.evaluate(instance.get(condition.attribute))
        for condition in conditions
    )


@dataclass
class ScanStats:
    """Per-backend instrumentation, reset never — read deltas."""

    scans: int = 0
    rows_yielded: int = 0
    #: conditions the backend accelerated natively (SQL WHERE, index
    #: narrowing); for index-accelerated backends a condition may also
    #: count under conditions_python when a residual re-check runs
    conditions_pushed: int = 0
    conditions_python: int = 0  # evaluated row-by-row in Python
    projected_scans: int = 0  # scans that narrowed attributes

    def snapshot(self) -> dict[str, int]:
        return {
            "scans": self.scans,
            "rows_yielded": self.rows_yielded,
            "conditions_pushed": self.conditions_pushed,
            "conditions_python": self.conditions_python,
            "projected_scans": self.projected_scans,
        }


class StorageBackend:
    """Abstract base: mutation plus one streaming read operation."""

    #: short name used by plan explanations and the CLI
    kind: str = "abstract"

    def __init__(self) -> None:
        self.stats = ScanStats()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, instance: Instance) -> None:
        raise NotImplementedError

    def delete(self, instance_id: str) -> Instance | None:
        """Remove and return the instance, or None when absent."""
        raise NotImplementedError

    def clear(self) -> None:
        """Remove every instance (reloading a persistent backend)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # point reads
    # ------------------------------------------------------------------
    def get(self, instance_id: str) -> Instance | None:
        raise NotImplementedError

    def __contains__(self, instance_id: object) -> bool:
        return isinstance(instance_id, str) and self.get(instance_id) is not None

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Instance]:
        raise NotImplementedError

    def classes(self) -> set[str]:
        """Class terms that currently have at least one instance."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # the read path
    # ------------------------------------------------------------------
    def scan(
        self,
        classes: Iterable[str],
        *,
        conditions: tuple = (),
        attrs: frozenset[str] | None = None,
    ) -> Iterator[Instance]:
        """Stream instances whose class is in ``classes`` and which
        satisfy every condition, in ascending ``instance_id`` order.
        See the module docstring for the hint semantics."""
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any held resources (files, connections)."""
