"""The query engine facade: planning and execution (paper §2.3, Fig. 1).

:class:`QueryEngine` is a thin coordinator over three layers:

* the **planner** (:mod:`repro.query.planner`) reformulates a query
  over the articulation into an explicit
  :class:`~repro.query.planner.PhysicalPlan`;
* the **executor** (:mod:`repro.query.executor`) evaluates plans as
  streaming iterator pipelines;
* each source's :class:`~repro.kb.instances.InstanceStore` — the
  paper's wrapper — answers the scans through its storage backend
  (:mod:`repro.kb.backends`), with predicates and projections pushed
  down as far as the backend can take them.

The entry points ``plan`` / ``run`` / ``execute``, ``ResultRow`` and
``finalize_rows`` are thin wrappers over those layers.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.articulation import Articulation
from repro.core.unified import UnifiedOntology
from repro.kb.instances import InstanceStore
from repro.query.ast import Query
from repro.query.executor import (
    AGGREGATE_ROW_ID,
    ExecutionStats,
    ResultRow,
    StreamingExecutor,
    finalize_rows,
    project_rows,
)
from repro.query.parser import parse_query
from repro.query.planner import PhysicalPlan, Planner

__all__ = [
    "AGGREGATE_ROW_ID",
    "ExecutionStats",
    "QueryEngine",
    "ResultRow",
    "finalize_rows",
    "project_rows",
]


class QueryEngine:
    """Plans and executes queries against the sources' instance stores.

    Range predicates are translated into each source's metric through
    the inverse conversion functions and attached to the scan
    operators, so backends evaluate them at the store — in SQL, for
    the SQLite backend — before any value conversion (see
    :mod:`repro.query.pushdown`).
    """

    def __init__(
        self,
        articulation: Articulation,
        stores: Mapping[str, InstanceStore],
    ) -> None:
        self.unified = UnifiedOntology(articulation)
        self.stores: dict[str, InstanceStore] = dict(stores)
        self.planner = Planner(self.unified)
        self.executor = StreamingExecutor(self.stores)
        #: stats of the most recent :meth:`run` (peak rows, scan counts)
        self.last_stats: ExecutionStats | None = None

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, query: Query | str) -> PhysicalPlan:
        if isinstance(query, str):
            query = parse_query(query)
        return self.planner.plan(
            query, available=frozenset(self.stores)
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, query: Query | str) -> list[ResultRow]:
        return self.run(self.plan(query))

    def run(self, plan: PhysicalPlan) -> list[ResultRow]:
        stats = ExecutionStats()
        rows = self.executor.run(plan, stats)
        self.last_stats = stats
        return rows
