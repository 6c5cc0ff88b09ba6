"""Source wrappers (paper Fig. 1: every knowledge base sits behind a
wrapper the query engine talks to).

A wrapper exposes one streaming operation — ``scan`` instances for a
set of class terms — so the engine never depends on how a source
stores its data.  Scans carry the planner's pushdown hints through to
the storage backend: structured ``conditions`` (evaluated in SQL by
the SQLite backend), an opaque ``predicate``, and an ``attrs``
projection.

:class:`InstanceStoreWrapper` adapts the in-memory store;
:class:`CallableWrapper` adapts any function (useful for synthetic or
remote-ish sources in tests and benchmarks).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.errors import QueryError
from repro.kb.backends.base import matches_conditions
from repro.kb.instances import Instance, InstanceStore

__all__ = [
    "SourceWrapper",
    "InstanceStoreWrapper",
    "CallableWrapper",
    "as_wrapper",
]


class SourceWrapper:
    """Protocol: stream instances of the given classes.

    Subclasses implement :meth:`scan`.  ``conditions``/``predicate``
    are optional source-side filters (predicate pushdown); wrappers
    must apply both, wherever is cheapest for their backing store.  ``ordered`` promises scans yield unique
    instances in ascending ``instance_id`` order — the streaming
    executor's license to skip its sort barrier.
    """

    name: str
    ordered: bool = False

    def scan(
        self,
        classes: Sequence[str],
        *,
        include_subclasses: bool = True,
        conditions: tuple = (),
        predicate: Callable[[Instance], bool] | None = None,
        attrs: frozenset[str] | None = None,
    ) -> Iterator[Instance]:
        raise NotImplementedError


@dataclass
class InstanceStoreWrapper(SourceWrapper):
    """Wrap an :class:`InstanceStore`; counts fetches for benchmarks."""

    store: InstanceStore
    fetch_count: int = 0
    fetched_instances: int = 0

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.store.name

    @property
    def ordered(self) -> bool:  # type: ignore[override]
        return self.store.backend.ordered

    def scan(
        self,
        classes: Sequence[str],
        *,
        include_subclasses: bool = True,
        conditions: tuple = (),
        predicate: Callable[[Instance], bool] | None = None,
        attrs: frozenset[str] | None = None,
    ) -> Iterator[Instance]:
        self.fetch_count += 1
        instances = self.store.scan(
            classes,
            include_subclasses=include_subclasses,
            conditions=conditions,
            predicate=predicate,
            attrs=attrs,
        )

        def counted() -> Iterator[Instance]:
            for instance in instances:
                self.fetched_instances += 1
                yield instance

        return counted()


@dataclass
class CallableWrapper(SourceWrapper):
    """Wrap a plain function producing instances.

    The function cannot push anything down, so conditions and
    predicates are applied here, after the call; scans make no
    ordering promise (``ordered`` stays False)."""

    name: str
    fn: Callable[[Sequence[str], bool], Iterable[Instance]]

    def scan(
        self,
        classes: Sequence[str],
        *,
        include_subclasses: bool = True,
        conditions: tuple = (),
        predicate: Callable[[Instance], bool] | None = None,
        attrs: frozenset[str] | None = None,
    ) -> Iterator[Instance]:
        for instance in self.fn(classes, include_subclasses):
            if conditions and not matches_conditions(instance, conditions):
                continue
            if predicate is not None and not predicate(instance):
                continue
            yield instance


def as_wrapper(source: InstanceStore | SourceWrapper) -> SourceWrapper:
    """Normalize a store-or-wrapper argument to a wrapper."""
    if isinstance(source, SourceWrapper):
        return source
    if isinstance(source, InstanceStore):
        return InstanceStoreWrapper(source)
    raise QueryError(
        f"cannot wrap source of type {type(source).__name__}; expected "
        "InstanceStore or SourceWrapper"
    )
