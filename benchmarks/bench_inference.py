"""Experiment INFER: the Horn engine, rebuilt for speed (§4.1).

"Since inference engines for full first-order systems tend not to
scale up ... we will use simple Horn Clauses ... we can then plug in a
much lighter (and faster) inference engine."

Four ablations over the rebuilt evaluator:

* **indexed-vs-scan** — the compiled, argument-indexed engine against
  the pre-rebuild scan-based engine (``legacy_horn.LegacyHornEngine``)
  on transitive-closure chains; the 80-node workload must show at
  least a 5x speedup.
* **incremental-vs-rerun** — one fact added after a fixpoint: delta
  propagation against from-scratch re-saturation, measured in derived
  facts and join candidates (work proportional to the delta), not
  just wall clock.
* **stratified-vs-flat** — SCC-stratum scheduling against flat
  delta-driven rounds (``tests.support.baselines.FlatHornEngine``) on
  a layered program: joins are enumerated once either way
  (semi-naive), but stratification cuts the delta-plan activations.
* **semi-naive-vs-naive** — the classic delta ablation against
  ``tests.support.baselines.NaiveHornEngine``, retained from the
  original experiment, plus the full articulation-reasoning load.

Running this module writes ``BENCH_inference.json`` next to it with
the measured timings and work counts; CI uploads it as an artifact to
seed the perf trajectory.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core.rules import HornClause
from repro.inference.engine import OntologyInferenceEngine
from repro.inference.horn import HornEngine
from repro.workloads.paper_example import generate_transport_articulation

from legacy_horn import LegacyHornEngine
from tests.support.baselines import FlatHornEngine, NaiveHornEngine

TRANS = HornClause(
    ("S", "?x", "?z"), (("S", "?x", "?y"), ("S", "?y", "?z"))
)

RESULTS: dict[str, object] = {"experiment": "INFER", "workloads": {}}
_JSON_PATH = Path(__file__).resolve().parent / "BENCH_inference.json"


# the engine behind each evaluation strategy the ablations compare
ENGINES = {"seminaive": HornEngine, "naive": NaiveHornEngine}


def chain_engine(n: int, strategy: str = "seminaive") -> HornEngine:
    engine = ENGINES[strategy]()
    engine.add_clause(TRANS)
    for i in range(n - 1):
        engine.add_fact(("S", f"n{i}", f"n{i+1}"))
    return engine


def legacy_chain_engine(n: int, strategy: str = "seminaive") -> LegacyHornEngine:
    engine = LegacyHornEngine(strategy=strategy)
    engine.add_clause(TRANS)
    for i in range(n - 1):
        engine.add_fact(("S", f"n{i}", f"n{i+1}"))
    return engine


@pytest.mark.parametrize("n", [20, 40, 80])
@pytest.mark.parametrize("strategy", ["seminaive", "naive"])
def test_transitive_closure(benchmark, n, strategy) -> None:
    def run():
        engine = chain_engine(n, strategy)
        engine.saturate()
        return len(engine.facts("S"))

    count = benchmark(run)
    assert count == n * (n - 1) // 2


def test_indexed_vs_scan(table) -> None:
    """The acceptance ablation: compiled+indexed joins against the
    pre-rebuild per-predicate scans with dict-copied bindings.  The
    80-node chain must clear a 5x speedup."""
    rows = []
    series = {}
    for n in (20, 40, 80):
        t0 = time.perf_counter()
        legacy = legacy_chain_engine(n)
        legacy.saturate()
        t_scan = time.perf_counter() - t0
        t0 = time.perf_counter()
        indexed = chain_engine(n)
        indexed.saturate()
        t_indexed = time.perf_counter() - t0
        assert indexed.facts("S") == legacy.facts("S")
        speedup = t_scan / t_indexed
        series[n] = {
            "scan_ms": round(1e3 * t_scan, 2),
            "indexed_ms": round(1e3 * t_indexed, 2),
            "speedup": round(speedup, 1),
        }
        rows.append(
            (
                n,
                f"{1e3 * t_scan:.1f}ms",
                f"{1e3 * t_indexed:.1f}ms",
                f"{speedup:.1f}x",
            )
        )
    table(
        "INFER indexed vs scan (chain closure, pre-rebuild baseline)",
        ["chain n", "scan (legacy)", "indexed", "speedup"],
        rows,
    )
    RESULTS["workloads"]["indexed_vs_scan"] = series
    assert series[80]["speedup"] >= 5.0, (
        f"80-node closure speedup {series[80]['speedup']}x below the 5x bar"
    )


def test_incremental_vs_rerun(table) -> None:
    """One fact after a fixpoint: delta propagation must do work
    proportional to the delta — measured in derived facts and join
    candidates, not just wall clock."""
    n = 80
    engine = chain_engine(n)
    engine.saturate()
    full_stats = dict(engine.last_stats)

    t0 = time.perf_counter()
    engine.add_fact(("S", f"n{n-1}", f"n{n}"))
    engine.saturate()
    t_incremental = time.perf_counter() - t0
    inc_stats = dict(engine.last_stats)

    t0 = time.perf_counter()
    rerun = chain_engine(n + 1)
    rerun.saturate()
    t_rerun = time.perf_counter() - t0
    rerun_stats = dict(rerun.last_stats)

    # Parity: incremental == from-scratch.
    assert engine.facts() == rerun.facts()
    assert inc_stats["mode"] == "incremental"
    # The insert extends the chain by one node: exactly n new closure
    # facts hold, n-1 of them derived.  Work must track that delta.
    assert inc_stats["derived"] == n - 1
    candidate_ratio = rerun_stats["candidates"] / max(
        inc_stats["candidates"], 1
    )
    derived_ratio = rerun_stats["derived"] / max(inc_stats["derived"], 1)
    assert candidate_ratio >= 5.0
    table(
        "INFER incremental vs re-run (insert 1 fact into 80-node closure)",
        ["metric", "incremental", "re-run", "ratio"],
        [
            (
                "wall clock",
                f"{1e3 * t_incremental:.1f}ms",
                f"{1e3 * t_rerun:.1f}ms",
                f"{t_rerun / t_incremental:.1f}x",
            ),
            (
                "join candidates",
                inc_stats["candidates"],
                rerun_stats["candidates"],
                f"{candidate_ratio:.1f}x",
            ),
            (
                "derived facts",
                inc_stats["derived"],
                rerun_stats["derived"],
                f"{derived_ratio:.1f}x",
            ),
        ],
    )
    RESULTS["workloads"]["incremental_vs_rerun"] = {
        "chain_n": n,
        "incremental_ms": round(1e3 * t_incremental, 2),
        "rerun_ms": round(1e3 * t_rerun, 2),
        "incremental_candidates": inc_stats["candidates"],
        "rerun_candidates": rerun_stats["candidates"],
        "incremental_derived": inc_stats["derived"],
        "rerun_derived": rerun_stats["derived"],
        "full_before_insert": full_stats,
    }


LAYERED = [
    TRANS,
    HornClause(("implies", "?x", "?y"), (("S", "?x", "?y"),)),
    HornClause(
        ("implies", "?x", "?z"),
        (("implies", "?x", "?y"), ("implies", "?y", "?z")),
    ),
    HornClause(
        ("instance_of", "?o", "?c2"),
        (("instance_of", "?o", "?c1"), ("implies", "?c1", "?c2")),
    ),
]


def layered_engine(scheduling: str, n: int = 50, m: int = 40) -> HornEngine:
    engine = {"stratified": HornEngine, "flat": FlatHornEngine}[scheduling]()
    engine.add_clauses(LAYERED)
    for i in range(n - 1):
        engine.add_fact(("S", f"n{i}", f"n{i+1}"))
    for j in range(m):
        engine.add_fact(("instance_of", f"obj{j}", f"n{j % (n - 1)}"))
    return engine


def test_stratified_vs_flat(table) -> None:
    """Layered program (S closure -> implies -> instances): strata in
    topological order activate far fewer delta plans than flat rounds,
    at identical join counts (semi-naive enumerates each join once)."""
    stats = {}
    timing = {}
    engines = {}
    for scheduling in ("stratified", "flat"):
        t0 = time.perf_counter()
        engine = layered_engine(scheduling)
        engine.saturate()
        timing[scheduling] = time.perf_counter() - t0
        stats[scheduling] = dict(engine.last_stats)
        engines[scheduling] = engine
    assert engines["stratified"].facts() == engines["flat"].facts()
    assert (
        stats["stratified"]["activations"] < stats["flat"]["activations"]
    )
    assert stats["stratified"]["candidates"] <= stats["flat"]["candidates"]
    table(
        "INFER stratified vs flat scheduling (3-layer program)",
        ["metric", "stratified", "flat"],
        [
            ("strata", stats["stratified"]["strata"], stats["flat"]["strata"]),
            (
                "plan activations",
                stats["stratified"]["activations"],
                stats["flat"]["activations"],
            ),
            (
                "join candidates",
                stats["stratified"]["candidates"],
                stats["flat"]["candidates"],
            ),
            (
                "time",
                f"{1e3 * timing['stratified']:.1f}ms",
                f"{1e3 * timing['flat']:.1f}ms",
            ),
        ],
    )
    RESULTS["workloads"]["stratified_vs_flat"] = {
        "stratified": stats["stratified"],
        "flat": stats["flat"],
        "stratified_ms": round(1e3 * timing["stratified"], 2),
        "flat_ms": round(1e3 * timing["flat"], 2),
    }


def test_seminaive_beats_naive_summary(benchmark, table) -> None:
    benchmark(lambda: chain_engine(40, "seminaive").saturate())
    rows = []
    series = {}
    for n in (20, 40, 80):
        timings = {}
        for strategy in ("seminaive", "naive"):
            t0 = time.perf_counter()
            engine = chain_engine(n, strategy)
            engine.saturate()
            timings[strategy] = time.perf_counter() - t0
        speedup = timings["naive"] / timings["seminaive"]
        series[n] = {
            "seminaive_ms": round(1e3 * timings["seminaive"], 2),
            "naive_ms": round(1e3 * timings["naive"], 2),
            "speedup": round(speedup, 1),
        }
        rows.append(
            (
                n,
                f"{1e3 * timings['seminaive']:.1f}ms",
                f"{1e3 * timings['naive']:.1f}ms",
                f"{speedup:.1f}x",
            )
        )
    table(
        "INFER semi-naive vs naive (chain closure)",
        ["chain n", "semi-naive", "naive", "speedup"],
        rows,
    )
    RESULTS["workloads"]["seminaive_vs_naive"] = series
    # On the largest chain the delta evaluation must win.
    assert float(rows[-1][3][:-1]) > 1.0


def test_articulation_reasoning_load(benchmark, table) -> None:
    """Full FIG2 reasoning: load sources + bridges + axioms, saturate,
    answer the §4.1 consequence questions."""

    def run():
        engine = OntologyInferenceEngine.from_articulation(
            generate_transport_articulation()
        )
        assert engine.implies("carrier:Car", "factory:Vehicle")
        assert engine.implies(
            "factory:Truck", "transport:CargoCarrierVehicle"
        )
        return engine.fact_count()

    facts = benchmark(run)
    table(
        "INFER articulation reasoning",
        ["metric", "value"],
        [("saturated facts", facts)],
    )
    RESULTS["workloads"]["articulation_reasoning"] = {
        "saturated_facts": facts
    }
    assert facts > 100


_EXPECTED_WORKLOADS = {
    "indexed_vs_scan",
    "incremental_vs_rerun",
    "stratified_vs_flat",
    "seminaive_vs_naive",
    "articulation_reasoning",
}


def test_write_bench_json(table) -> None:
    """Persist the collected series (runs last in this module).

    Only a complete run overwrites the checked-in record — a subset
    run (``-k``) or one with earlier failures must not clobber it with
    a partial series."""
    collected = set(RESULTS["workloads"])
    if collected != _EXPECTED_WORKLOADS:
        pytest.skip(
            "partial run (missing "
            f"{sorted(_EXPECTED_WORKLOADS - collected)}); "
            "not overwriting the checked-in record"
        )
    payload = json.dumps(RESULTS, indent=2, sort_keys=True)
    _JSON_PATH.write_text(payload + "\n")
    table(
        "INFER artifact",
        ["file", "workloads"],
        [(_JSON_PATH.name, len(RESULTS["workloads"]))],
    )
    assert _JSON_PATH.exists()
