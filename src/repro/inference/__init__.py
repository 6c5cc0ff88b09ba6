"""Inference: Horn-clause engine and ontology-level reasoning (§2.4, §4)."""

from repro.inference.engine import DISJOINT, IMPLIES, OntologyInferenceEngine
from repro.inference.horn import (
    Atom,
    CompiledClause,
    FactStore,
    HornEngine,
    compile_clause,
    is_variable,
    substitute,
    unify_atom,
)

__all__ = [
    "Atom",
    "CompiledClause",
    "DISJOINT",
    "FactStore",
    "HornEngine",
    "IMPLIES",
    "OntologyInferenceEngine",
    "compile_clause",
    "is_variable",
    "substitute",
    "unify_atom",
]
