"""The ONION query system: AST, parser, reformulation across bridges,
planner, streaming executor, wrappers and answering-using-views
(paper §2.3).

The query path is layered: ``parse -> reformulate (logical) -> plan
(physical, cached) -> execute (streaming)``, with storage backends
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
    MergeOp,
    PhysicalPlan,
    PlanCacheInfo,
    Planner,
    ScanOp,
    SourcePipeline,
    articulation_fingerprint,
)
from repro.query.pushdown import (
    push_condition,
    pushable,
    split_conditions,
)
from repro.query.parser import parse_query
from repro.query.reformulate import Conversion, SourcePlan, reformulate
from repro.query.views import MaterializedView, ViewCatalog
from repro.query.wrappers import (
    CallableWrapper,
    InstanceStoreWrapper,
    SourceWrapper,
    as_wrapper,
)

__all__ = [
    "AGGREGATE_ROW_ID",
    "Aggregate",
    "CallableWrapper",
    "Condition",
    "Conversion",
    "ExecutionStats",
    "FilterOp",
    "FinalizeOp",
    "InstanceStoreWrapper",
    "MaterializedView",
    "MediatorClass",
    "MediatorSpec",
    "MergeOp",
    "PhysicalPlan",
    "PlanCacheInfo",
    "Planner",
    "Query",
    "QueryEngine",
    "ResultRow",
    "ScanOp",
    "SourcePipeline",
    "SourcePlan",
    "SourceWrapper",
    "StreamingExecutor",
    "ViewCatalog",
    "articulation_fingerprint",
    "as_wrapper",
    "finalize_rows",
    "generate_mediator",
    "parse_query",
    "project_rows",
    "push_condition",
    "pushable",
    "reformulate",
    "split_conditions",
]
