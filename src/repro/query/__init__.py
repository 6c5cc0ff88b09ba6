"""The ONION query system: AST, parser, reformulation across bridges,
planner, streaming executor and answering-using-views (paper §2.3).

The query path is one path: ``parse -> reformulate (logical) -> plan
(physical, WHERE split into pushed and residual conditions) -> execute
(streaming)``, with each source's
:class:`~repro.kb.instances.InstanceStore` and its storage backend
(:mod:`repro.kb.backends`) answering the scans at the bottom.
"""

from repro.query.ast import Aggregate, Condition, Query
from repro.query.engine import (
    QueryEngine,
    ResultRow,
    finalize_rows,
)
from repro.query.executor import (
    AGGREGATE_ROW_ID,
    ExecutionStats,
    StreamingExecutor,
    project_rows,
)
from repro.query.mediator import (
    MediatorClass,
    MediatorSpec,
    generate_mediator,
)
from repro.query.planner import (
    FilterOp,
    FinalizeOp,
    PhysicalPlan,
    Planner,
    ScanOp,
    SourcePipeline,
)
from repro.query.pushdown import push_condition, split_conditions
from repro.query.parser import parse_query
from repro.query.reformulate import Conversion, SourcePlan, reformulate
from repro.query.views import MaterializedView, ViewCatalog

__all__ = [
    "AGGREGATE_ROW_ID",
    "Aggregate",
    "Condition",
    "Conversion",
    "ExecutionStats",
    "FilterOp",
    "FinalizeOp",
    "MaterializedView",
    "MediatorClass",
    "MediatorSpec",
    "PhysicalPlan",
    "Planner",
    "Query",
    "QueryEngine",
    "ResultRow",
    "ScanOp",
    "SourcePipeline",
    "SourcePlan",
    "StreamingExecutor",
    "ViewCatalog",
    "finalize_rows",
    "generate_mediator",
    "parse_query",
    "project_rows",
    "push_condition",
    "reformulate",
    "split_conditions",
]
