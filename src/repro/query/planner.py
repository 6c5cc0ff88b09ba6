"""The planner: logical reformulation -> explicit physical plans.

The query path is layered (EMBANKS-style plan/execute split):

1. :mod:`repro.query.reformulate` does the *logical* work — class
   fan-out across the articulation and per-attribute conversion
   chains (one :class:`SourcePlan` per source).
2. This module turns those into a :class:`PhysicalPlan` — an
   inspectable operator tree: per-source **scan** ops carrying the
   predicates and projections pushed down to the storage backend,
   **convert** and **filter** ops for the post-fetch work, and
   **merge**/**finalize** ops describing how per-source streams become
   the final answer.
3. :mod:`repro.query.executor` evaluates the plan as iterator
   pipelines.

Plans are cached in an LRU keyed on the query text plus the
articulation's O(1) change stamp (:meth:`Articulation.fingerprint`,
which moves with the bridges, conversion functions and every graph)
and the identity of its conversion rules, so repeated queries skip
reformulation entirely while any articulation or ontology edit — the
maintenance-under-churn scenario — invalidates stale entries
automatically.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.articulation import Articulation
from repro.core.unified import UnifiedOntology
from repro.errors import PlanningError
from repro.query.ast import Condition, Query
from repro.query.pushdown import split_conditions
from repro.query.reformulate import SourcePlan, reformulate

__all__ = [
    "ScanOp",
    "ConvertOp",
    "FilterOp",
    "MergeOp",
    "FinalizeOp",
    "SourcePipeline",
    "PhysicalPlan",
    "PlanCacheInfo",
    "Planner",
    "articulation_fingerprint",
]


# ----------------------------------------------------------------------
# physical operators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScanOp:
    """Fetch instances from one source's backend.

    ``pushed`` conditions are already translated into the source's own
    metric and are evaluated *at the store* (in SQL for the SQLite
    backend); ``projection`` is the attribute set the backend may
    narrow instances to (None = keep every attribute).
    """

    source: str
    classes: tuple[str, ...]
    include_subclasses: bool
    pushed: tuple[Condition, ...] = ()
    projection: tuple[str, ...] | None = None

    def describe(self) -> list[str]:
        lines = [f"scan {self.source}: classes={list(self.classes)}"]
        for condition in self.pushed:
            lines.append(f"  push {condition}")
        if self.projection is not None:
            lines.append(f"  project {list(self.projection)}")
        return lines


@dataclass(frozen=True)
class ConvertOp:
    """Normalize fetched values into the target ontology's metric."""

    source: str
    plan: SourcePlan  # owns the composed conversion chains

    def describe(self) -> list[str]:
        return [
            f"  convert {conversion.describe()}"
            for conversion in self.plan.conversions.values()
        ]


@dataclass(frozen=True)
class FilterOp:
    """Residual predicates evaluated after conversion."""

    residual: tuple[Condition, ...] = ()

    def describe(self) -> list[str]:
        return [f"  filter {condition}" for condition in self.residual]


@dataclass(frozen=True)
class SourcePipeline:
    """scan -> convert -> filter for one source, evaluated lazily."""

    scan: ScanOp
    convert: ConvertOp
    filter: FilterOp

    @property
    def source(self) -> str:
        return self.scan.source

    @property
    def logical(self) -> SourcePlan:
        return self.convert.plan


@dataclass(frozen=True)
class MergeOp:
    """Concatenate per-source streams into one deduplicated answer
    ordered by ``(source, instance_id)``; ``streaming`` means every
    input is already ordered so no sort barrier is needed."""

    streaming: bool

    def describe(self) -> str:
        mode = "streaming concat" if self.streaming else "sort"
        return f"merge: {mode} by (source, instance_id)"


@dataclass(frozen=True)
class FinalizeOp:
    """Aggregation / ORDER BY / LIMIT / final projection."""

    aggregates: tuple = ()
    order_by: tuple = ()
    limit: int | None = None
    select: tuple[str, ...] = ()

    def describe(self) -> str:
        parts = []
        if self.aggregates:
            parts.append(
                "aggregate " + ", ".join(str(a) for a in self.aggregates)
            )
        if self.order_by:
            parts.append(
                "order by "
                + ", ".join(
                    f"{attr} DESC" if desc else attr
                    for attr, desc in self.order_by
                )
            )
        if self.limit is not None:
            parts.append(f"limit {self.limit}")
        if self.select:
            parts.append(f"select {list(self.select)}")
        return "finalize: " + ("; ".join(parts) if parts else "pass-through")


@dataclass(frozen=True)
class PhysicalPlan:
    """A fully planned query, ready for the streaming executor."""

    query: Query
    pipelines: tuple[SourcePipeline, ...]
    merge: MergeOp
    finalize: FinalizeOp
    pushdown: bool = False

    @property
    def source_plans(self) -> tuple[SourcePlan, ...]:
        """The underlying logical per-source plans (compat surface)."""
        return tuple(pipeline.logical for pipeline in self.pipelines)

    def describe(self) -> str:
        """A human-readable plan, the way the viewer would show it."""
        lines = [f"plan for: {self.query}"]
        for pipeline in self.pipelines:
            lines.extend("  " + line for line in pipeline.scan.describe())
            lines.extend("  " + line for line in pipeline.convert.describe())
            lines.extend("  " + line for line in pipeline.filter.describe())
        lines.append("  " + self.merge.describe())
        lines.append("  " + self.finalize.describe())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# articulation fingerprinting (plan-cache invalidation)
# ----------------------------------------------------------------------
def articulation_fingerprint(articulation: Articulation) -> tuple:
    """A value that changes whenever replanning could change.

    :meth:`Articulation.fingerprint` already moves with every input
    reformulation reads — bridge edges, registered conversion
    functions, the articulation's own graph and every source graph —
    at O(#sources + #functions) cost, so a plan-cache hit never walks
    the bridges or graphs.  Source edits move it too, as they must:
    reformulation reads source subclass edges."""
    return (
        articulation.name,
        articulation.fingerprint(),
        # Rule *identity*, not just labels: re-registering a rule under
        # the same label (a rate update, the churn scenario) must
        # invalidate cached plans.  expr_text pins textual rules; id()
        # covers opaque callables — sound only because the cache pins
        # the fingerprinted rule objects alive (see plan()), so a freed
        # id can never be reused while a key derived from it is still
        # in the cache.
        frozenset(
            (
                label,
                rule.expr_text,
                rule.inverse_expr_text,
                None if rule.expr_text is not None else id(rule.fn),
                None
                if rule.inverse_expr_text is not None
                else id(rule.inverse),
            )
            for label, rule in articulation.functions.items()
        ),
    )


# ----------------------------------------------------------------------
# the planner
# ----------------------------------------------------------------------
#: cached physical plans per planner (LRU beyond this)
PLAN_CACHE_SIZE = 128


@dataclass(frozen=True)
class PlanCacheInfo:
    hits: int
    misses: int
    size: int
    maxsize: int


class Planner:
    """Turns parsed queries into cached physical plans.

    ``pushdown`` controls whether WHERE predicates are translated into
    each source's metric and attached to the scan ops; projections are
    always pushed when the query names the attributes it needs.
    """

    def __init__(
        self,
        unified: UnifiedOntology | Articulation,
        *,
        pushdown: bool = False,
    ) -> None:
        if isinstance(unified, Articulation):
            unified = UnifiedOntology(unified)
        self.unified = unified
        self.pushdown = pushdown
        self.cache_size = PLAN_CACHE_SIZE
        # key -> (plan, pinned rule objects).  The lock covers every
        # dict operation: the serving tier plans from concurrent
        # request threads, and OrderedDict.move_to_end mid-resize is
        # not atomic.  Building a plan happens OUTSIDE the lock — a
        # concurrent double-build of the same key is idempotent, a
        # serialized build would convoy every reader behind it.
        self._cache: OrderedDict[tuple, tuple] = OrderedDict()
        self._cache_lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    # -- cache plumbing -------------------------------------------------
    def cache_info(self) -> PlanCacheInfo:
        with self._cache_lock:
            return PlanCacheInfo(
                self._hits, self._misses, len(self._cache), self.cache_size
            )

    def cache_clear(self) -> None:
        with self._cache_lock:
            self._cache.clear()

    def _cache_key(
        self, query: Query, available: frozenset[str] | None
    ) -> tuple:
        return (
            str(query),
            query.include_subclasses,
            self.pushdown,
            available,
            articulation_fingerprint(self.unified.articulation),
        )

    # -- planning -------------------------------------------------------
    def plan(
        self,
        query: Query,
        *,
        available: Iterable[str] | None = None,
    ) -> PhysicalPlan:
        """Plan ``query``; ``available`` restricts to the sources that
        actually have a registered knowledge base (None = plan for
        every bridged source, the mediator-spec use case)."""
        key_available = (
            None if available is None else frozenset(available)
        )
        key = self._cache_key(query, key_available)
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._hits += 1
                return cached[0]
            self._misses += 1
        plan = self._build(query, key_available)
        # Pin the rule objects the key fingerprinted (by id) for the
        # entry's lifetime: a replaced rule then cannot be allocated at
        # a freed rule's address, so its key can never collide.
        pins = tuple(self.unified.articulation.functions.values())
        with self._cache_lock:
            self._cache[key] = (plan, pins)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return plan

    def _build(
        self, query: Query, available: frozenset[str] | None
    ) -> PhysicalPlan:
        source_plans = reformulate(query, self.unified)
        if available is not None:
            executable = [
                plan for plan in source_plans if plan.source in available
            ]
            if not executable:
                raise PlanningError(
                    "no knowledge base is registered for any of the "
                    f"sources {[p.source for p in source_plans]}"
                )
            source_plans = executable

        needed = query.attributes_needed()
        # Projection pushes whenever the query names what it reads
        # (explicit SELECT or aggregates); SELECT * keeps everything.
        if query.select or query.aggregates:
            projection: tuple[str, ...] | None = tuple(sorted(needed))
        else:
            projection = None

        pipelines = []
        for source_plan in source_plans:
            if self.pushdown:
                pushed, residual = split_conditions(query, source_plan)
            else:
                pushed, residual = (), query.where
            pipelines.append(
                SourcePipeline(
                    scan=ScanOp(
                        source=source_plan.source,
                        classes=source_plan.classes,
                        include_subclasses=query.include_subclasses,
                        pushed=pushed,
                        projection=projection,
                    ),
                    convert=ConvertOp(source_plan.source, source_plan),
                    filter=FilterOp(residual),
                )
            )
        return PhysicalPlan(
            query=query,
            pipelines=tuple(pipelines),
            # The executor downgrades to a sort at run time if any
            # wrapper turns out to be unordered.
            merge=MergeOp(streaming=not query.order_by),
            finalize=FinalizeOp(
                aggregates=query.aggregates,
                order_by=query.order_by,
                limit=query.limit,
                select=query.select,
            ),
            pushdown=self.pushdown,
        )
