"""Workloads: the paper's Fig. 2 example, synthetic ontology families,
the churn model for maintenance experiments, and the serving load
generator (Zipfian query mix + background churn + isolation audit)."""

from repro.workloads.churn import (
    ChurnReport,
    ChurnRunResult,
    Mutation,
    apply_churn,
    run_churn_workload,
)
from repro.workloads.loadgen import (
    LoadClient,
    LoadReport,
    default_request_pool,
    run_load,
    zipf_weights,
)
from repro.workloads.generator import (
    Concept,
    SyntheticWorkload,
    WorkloadConfig,
    generate_workload,
)
from repro.workloads.paper_example import (
    ARTICULATION_NAME,
    EXPECTED_ARTICULATION_TERMS,
    EXPECTED_BRIDGES,
    EXPECTED_INTERNAL_EDGES,
    carrier_ontology,
    factory_ontology,
    generate_transport_articulation,
    paper_rules,
)

__all__ = [
    "ARTICULATION_NAME",
    "ChurnReport",
    "ChurnRunResult",
    "Concept",
    "LoadClient",
    "LoadReport",
    "EXPECTED_ARTICULATION_TERMS",
    "EXPECTED_BRIDGES",
    "EXPECTED_INTERNAL_EDGES",
    "Mutation",
    "SyntheticWorkload",
    "WorkloadConfig",
    "apply_churn",
    "carrier_ontology",
    "default_request_pool",
    "factory_ontology",
    "generate_transport_articulation",
    "generate_workload",
    "paper_rules",
    "run_churn_workload",
    "run_load",
    "zipf_weights",
]
