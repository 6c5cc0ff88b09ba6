"""Experiment PARALLEL: batched churn and the rebuild crossover.

The experiment keeps its historical name; saturation itself is serial.
It measures the two batching layers of the Horn engine:

* **batched churn** — the §5.3 churn campaign with coalesced engine
  refreshes: ``batch_size`` ∈ {1, 2, 3, 6} against per-op refreshes
  and against a rebuild-per-batch driver, refresh phase time compared
  across the sweep (probe answers at shared rounds must agree).
* **crossover** — the DRed-vs-rebuild switch: time a ``k``-fact DRed
  retraction against a from-scratch rebuild on this machine, then
  validate that ``apply_batch`` routes a batch below the measured
  crossover through DRed and one at/above it through a rebuild, both
  landing on the from-scratch oracle's fact set.  The engine derives
  its own crossover from the base (a twentieth of the asserted
  facts); this sweep only records how this host compares with it.

Running this module writes ``BENCH_parallel.json`` next to it; the
perf-trajectory gate tracks its ratio metrics.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

import pytest

from repro.core.rules import HornClause
from repro.inference.horn import HornEngine
from repro.workloads.churn import run_churn_workload
from repro.workloads.paper_example import generate_transport_articulation

RESULTS: dict[str, object] = {"experiment": "PARALLEL", "workloads": {}}
_JSON_PATH = Path(__file__).resolve().parent / "BENCH_parallel.json"


def test_batched_churn(table) -> None:
    """Coalescing engine refreshes must beat per-op refreshes somewhere
    in the batch-size sweep, and crush the rebuild-per-batch baseline,
    with probe answers agreeing at every shared round."""
    batches, mutations, seed = 12, 6, 3

    def campaign(batch_size: int, incremental: bool = True):
        return run_churn_workload(
            generate_transport_articulation(),
            batches=batches,
            mutations_per_batch=mutations,
            seed=seed,
            incremental=incremental,
            batch_size=batch_size,
        )

    per_op = campaign(1)
    rebuild = campaign(1, incremental=False)
    assert per_op.probe_results == rebuild.probe_results

    series: dict[str, dict[str, object]] = {}
    rows = []
    best_speedup = 0.0
    for batch_size in (1, 2, 3, 6):
        run = per_op if batch_size == 1 else campaign(batch_size)
        if batch_size > 1:
            shared = {
                (r, term): answers
                for r, term, answers in per_op.probe_results
            }
            for r, term, answers in run.probe_results:
                assert shared[(r, term)] == answers
        refresh_ms = run.phase_ms["refresh"]
        speedup = per_op.phase_ms["refresh"] / max(refresh_ms, 1e-9)
        best_speedup = max(best_speedup, speedup)
        series[str(batch_size)] = {
            "refresh_ms": round(refresh_ms, 2),
            "refreshes": len(run.batch_work),
            "modes": dict(sorted(run.refresh_modes.items())),
            "speedup_vs_per_op": round(speedup, 2),
            "work": dict(run.work),
        }
        rows.append(
            (
                batch_size,
                len(run.batch_work),
                f"{refresh_ms:.1f}ms",
                f"{speedup:.2f}x",
                dict(sorted(run.refresh_modes.items())),
            )
        )
    rows.append(
        (
            "rebuild",
            len(rebuild.batch_work),
            f"{rebuild.phase_ms['refresh']:.1f}ms",
            f"{per_op.phase_ms['refresh'] / max(rebuild.phase_ms['refresh'], 1e-9):.2f}x",
            dict(sorted(rebuild.refresh_modes.items())),
        )
    )
    table(
        f"PARALLEL batched churn ({batches} rounds x {mutations} edits)",
        ["batch_size", "refreshes", "refresh time", "vs per-op", "modes"],
        rows,
    )
    RESULTS["workloads"]["batched_churn"] = {
        "series": series,
        "rebuild_per_batch_ms": round(rebuild.phase_ms["refresh"], 2),
        "best_speedup": round(best_speedup, 2),
    }
    assert best_speedup > 1.0, (
        f"no batch size beat per-op refreshes (best {best_speedup:.2f}x)"
    )


def test_crossover(table) -> None:
    """Measure the DRed-vs-rebuild crossover on this machine, then
    validate that apply_batch routes around it correctly."""
    chain = 48
    trans_facts = [("S", f"n{i}", f"n{i + 1}") for i in range(chain)]
    trans = HornClause(
        ("S", "?x", "?z"), (("S", "?x", "?y"), ("S", "?y", "?z"))
    )

    def fresh(skip: frozenset[int] = frozenset()) -> HornEngine:
        engine = HornEngine()
        engine.add_clause(trans)
        engine.add_facts(f for i, f in enumerate(trans_facts) if i not in skip)
        return engine

    def saturated() -> HornEngine:
        engine = fresh()
        engine.saturate()
        return engine

    # The sweep: the first k whose rebuild beats its DRed pass (floored
    # at 2) is this host's crossover; past the range if none does.
    ks = (1, 2, 4, 8, 16, 32)
    calibration: dict[str, dict[str, float]] = {}
    calibrated: int | None = None
    for k in ks:
        victims = frozenset((i * chain) // k for i in range(k))
        engine = saturated()
        started = perf_counter()
        engine.retract_facts(trans_facts[i] for i in sorted(victims))
        engine.saturate()
        dred_ms = (perf_counter() - started) * 1000.0
        started = perf_counter()
        fresh(victims).saturate()
        rebuild_ms = (perf_counter() - started) * 1000.0
        calibration[str(k)] = {
            "dred_ms": round(dred_ms, 2),
            "rebuild_ms": round(rebuild_ms, 2),
        }
        if calibrated is None and rebuild_ms < dred_ms:
            calibrated = max(k, 2)
    if calibrated is None:
        calibrated = max(ks) + 1
    engine_crossover = saturated().rebuild_crossover

    def oracle(victims: list[tuple]) -> set:
        engine = HornEngine()
        engine.add_clause(trans)
        engine.add_facts(f for f in trans_facts if f not in victims)
        engine.saturate()
        return engine.facts()

    # Below the crossover: the batch must ride DRed.
    below = saturated()
    below.rebuild_crossover = calibrated
    victims = trans_facts[: below.rebuild_crossover - 1]
    report_below = below.apply_batch(retracts=victims)
    assert report_below["decision"] == "dred"
    assert below.facts() == oracle(victims)

    # At/above the crossover: the batch must reroute to a rebuild.
    above = saturated()
    above.rebuild_crossover = calibrated
    victims = trans_facts[: above.rebuild_crossover]
    report_above = above.apply_batch(retracts=victims)
    assert report_above["decision"] == "rebuild"
    assert above.facts() == oracle(victims)

    table(
        f"PARALLEL rebuild crossover (chain={chain})",
        ["k", "dred", "rebuild"],
        [
            (k, f"{v['dred_ms']}ms", f"{v['rebuild_ms']}ms")
            for k, v in sorted(calibration.items(), key=lambda kv: int(kv[0]))
        ]
        + [
            ("engine", engine_crossover, ""),
            ("calibrated", calibrated, ""),
        ],
    )
    RESULTS["workloads"]["crossover"] = {
        "engine": engine_crossover,
        "calibrated": calibrated,
        "calibration": calibration,
        "below_decision": report_below["decision"],
        "above_decision": report_above["decision"],
    }


_EXPECTED_WORKLOADS = {"batched_churn", "crossover"}


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
        "PARALLEL artifact",
        ["file", "workloads"],
        [(_JSON_PATH.name, len(RESULTS["workloads"]))],
    )
    assert _JSON_PATH.exists()
