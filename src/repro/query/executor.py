"""The streaming executor: physical plans -> iterator pipelines.

The executor evaluates a :class:`~repro.query.planner.PhysicalPlan`
lazily: each source is a generator chain over its
:class:`~repro.kb.instances.InstanceStore` scan (scan -> convert ->
residual filter -> row), sources are concatenated, and the finalize
step decides how much ever needs to be held in memory at once:

* **aggregates** fold the stream into constant-size accumulators — a
  ``COUNT(*)`` over a million instances materializes one row;
* **scans** yield unique instances in ascending ``instance_id`` order
  (the storage-backend contract), so the concatenation is already the
  sorted answer and ``LIMIT`` queries stop pulling from the backends
  early;
* only an explicit ``ORDER BY`` forces the classic materialize-and-sort
  barrier.

:class:`ExecutionStats` records ``peak_rows`` — the most rows ever
materialized at one time — which is how the benchmarks prove streaming
execution beats the eager path on memory, not just wall-clock.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from itertools import islice

from repro.kb.instances import InstanceStore
from repro.query.ast import Aggregate, Query
from repro.query.planner import PhysicalPlan, SourcePipeline

__all__ = [
    "AGGREGATE_ROW_ID",
    "ExecutionStats",
    "ResultRow",
    "StreamingExecutor",
    "finalize_rows",
    "project_rows",
]

AGGREGATE_ROW_ID = "<aggregate>"


@dataclass(frozen=True)
class ResultRow:
    """One answer: provenance plus the (converted) attribute values."""

    instance_id: str
    source: str
    cls: str
    values: Mapping[str, object]

    def get(self, attribute: str, default: object | None = None) -> object:
        return self.values.get(attribute.lower(), default)


@dataclass
class ExecutionStats:
    """Instrumentation for one plan execution."""

    rows_scanned: int = 0
    rows_out: int = 0
    peak_rows: int = 0  # most rows materialized simultaneously
    per_source: dict[str, int] = field(default_factory=dict)


# ----------------------------------------------------------------------
# shared finalization helpers (the executor and the view layer must
# produce identical result shapes)
# ----------------------------------------------------------------------
def finalize_rows(query: Query, rows: list[ResultRow]) -> list[ResultRow]:
    """Apply ORDER BY / LIMIT / aggregation to merged result rows.

    Aggregation collapses the rows into a single synthetic row (id
    ``<aggregate>``, source ``*``).
    """
    if query.aggregates:
        values = {
            agg.label(): agg.compute(
                [row.get(agg.attribute) for row in rows]
                if agg.attribute != "*"
                else [True] * len(rows)
            )
            for agg in query.aggregates
        }
        return [
            ResultRow(AGGREGATE_ROW_ID, "*", query.target.term, values)
        ]
    if query.order_by:
        # Stable multi-key sort: apply keys in reverse significance;
        # rows missing the attribute always sort last.
        for attribute, descending in reversed(query.order_by):
            present = [r for r in rows if r.get(attribute) is not None]
            absent = [r for r in rows if r.get(attribute) is None]
            try:
                present.sort(
                    key=lambda r: r.get(attribute),  # type: ignore[arg-type]
                    reverse=descending,
                )
            except TypeError:  # mixed value types: compare as strings
                present.sort(
                    key=lambda r: str(r.get(attribute)), reverse=descending
                )
            rows = present + absent
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows


def project_rows(query: Query, rows: list[ResultRow]) -> list[ResultRow]:
    """Narrow finalized rows to the SELECTed attributes (projection
    runs last: ORDER BY may have used non-selected values)."""
    if query.aggregates or not query.select:
        return rows
    return [
        ResultRow(
            row.instance_id,
            row.source,
            row.cls,
            {attr: row.get(attr) for attr in query.select},
        )
        for row in rows
    ]


# ----------------------------------------------------------------------
# streaming aggregation
# ----------------------------------------------------------------------
class _AggregateState:
    """Constant-size accumulator matching ``Aggregate.compute``."""

    __slots__ = ("aggregate", "rows", "non_null", "numeric", "sum",
                 "min", "max")

    def __init__(self, aggregate: Aggregate) -> None:
        self.aggregate = aggregate
        self.rows = 0
        self.non_null = 0
        self.numeric = 0
        self.sum: object = 0
        self.min: object = None
        self.max: object = None

    def feed(self, row: ResultRow) -> None:
        self.rows += 1
        if self.aggregate.attribute == "*":
            return
        value = row.get(self.aggregate.attribute)
        if value is None:
            return
        self.non_null += 1
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self.numeric += 1
            self.sum += value  # type: ignore[operator]
            if self.min is None or value < self.min:  # type: ignore[operator]
                self.min = value
            if self.max is None or value > self.max:  # type: ignore[operator]
                self.max = value

    def result(self) -> object:
        fn = self.aggregate.fn
        if fn == "count":
            return (
                self.rows
                if self.aggregate.attribute == "*"
                else self.non_null
            )
        if not self.numeric:
            return None
        if fn == "sum":
            return self.sum
        if fn == "min":
            return self.min
        if fn == "max":
            return self.max
        return self.sum / self.numeric  # type: ignore[operator]  # avg


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
class StreamingExecutor:
    """Evaluates physical plans as generator pipelines over the
    sources' instance stores."""

    def __init__(self, stores: Mapping[str, InstanceStore]) -> None:
        self.stores = stores

    # -- per-source pipeline --------------------------------------------
    def _source_rows(
        self,
        pipeline: SourcePipeline,
        query: Query,
        stats: ExecutionStats,
    ) -> Iterator[ResultRow]:
        """scan -> convert -> residual filter -> project, one row at a
        time."""
        store = self.stores[pipeline.source]
        scan = pipeline.scan
        logical = pipeline.logical
        residual = pipeline.filter.residual
        needed = query.attributes_needed()
        projection = (
            None
            if scan.projection is None
            else frozenset(scan.projection)
        )
        for instance in store.scan(
            scan.classes,
            include_subclasses=scan.include_subclasses,
            conditions=scan.pushed,
            attrs=projection,
        ):
            stats.rows_scanned += 1
            stats.per_source[pipeline.source] = (
                stats.per_source.get(pipeline.source, 0) + 1
            )
            attributes = needed if needed else set(instance.attributes)
            converted = {
                attr: logical.convert(attr, instance.get(attr))
                for attr in attributes
            }
            if not all(
                condition.evaluate(converted.get(condition.attribute))
                for condition in residual
            ):
                continue
            if query.select:
                # Carry every needed attribute (select + where + order
                # by); projection narrows after finalize.
                values = dict(converted)
            else:
                # SELECT * / aggregates: every stored attribute,
                # converted where applicable.
                values = dict(instance.attributes)
                values.update(converted)
            yield ResultRow(
                instance.instance_id,
                pipeline.source,
                instance.cls,
                values,
            )

    def _merged(
        self, plan: PhysicalPlan, stats: ExecutionStats
    ) -> Iterator[ResultRow]:
        for pipeline in plan.pipelines:
            yield from self._source_rows(pipeline, plan.query, stats)

    # -- entry point ----------------------------------------------------
    def run(
        self, plan: PhysicalPlan, stats: ExecutionStats | None = None
    ) -> list[ResultRow]:
        stats = stats if stats is not None else ExecutionStats()
        query = plan.query
        stream = self._merged(plan, stats)

        if query.aggregates:
            states = [_AggregateState(agg) for agg in query.aggregates]
            for row in stream:
                for state in states:
                    state.feed(row)
            rows = [
                ResultRow(
                    AGGREGATE_ROW_ID,
                    "*",
                    query.target.term,
                    {
                        state.aggregate.label(): state.result()
                        for state in states
                    },
                )
            ]
            stats.peak_rows = max(stats.peak_rows, 1)
            stats.rows_out = 1
            return rows

        if query.order_by:
            rows = list(stream)
            stats.peak_rows = max(stats.peak_rows, len(rows))
            rows = finalize_rows(query, rows)
        else:
            # Pipelines are sorted by source name and each yields in
            # ascending instance_id order, so the concatenation is
            # already the final order: stream straight into the result,
            # stopping as soon as LIMIT is satisfied.
            rows = list(islice(stream, query.limit))
        rows = project_rows(query, rows)
        stats.peak_rows = max(stats.peak_rows, len(rows))
        stats.rows_out = len(rows)
        return rows
