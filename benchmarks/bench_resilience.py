"""Experiment RESILIENCE: what fault tolerance costs and buys.

The runtime write-ahead journals batched churn.  This experiment
prices the journal and proves recovery works:

* **journal overhead** — crash-free batched churn with and without a
  :class:`~repro.reliability.journal.ChurnJournal` attached (each
  batch pays one committed SQLite transaction for its begin record
  and one for its commit).
* **recovery latency** — a crash at batch 0 (its begin record durable,
  the engine abandoned), then :meth:`ChurnJournal.recover` from a
  fresh journal; how long until a fresh engine stands at the fixpoint
  the crashed batch was driving toward, compared to what a crash-free
  run of the same campaign cost.
* **chaos campaign** — the headline: mid-batch process deaths at a
  realistic rate, final state bit-for-bit equal to the crash-free
  oracle (``resil.chaos_parity`` is 1.0 or the perf-trajectory gate
  fails).

Running this module writes ``BENCH_resilience.json`` next to it.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from pathlib import Path

import pytest

from repro.inference.horn import HornEngine
from repro.reliability import ChurnJournal
from tests.support.chaos import (
    CHAOS_CLAUSES,
    chaos_batches,
    run_chaos_campaign,
)

RESULTS: dict[str, object] = {"experiment": "RESILIENCE", "workloads": {}}
_JSON_PATH = Path(__file__).resolve().parent / "BENCH_resilience.json"


def _churn_campaign(journal: ChurnJournal | None) -> float:
    batches = chaos_batches(batches=12, ops_per_batch=10, seed=4)
    engine = HornEngine(journal=journal)
    engine.add_clauses(CHAOS_CLAUSES)
    engine.saturate()
    if journal is not None:
        journal.snapshot(engine)
    t0 = time.perf_counter()
    for adds, retracts in batches:
        engine.apply_batch(adds, retracts)
    return (time.perf_counter() - t0) * 1000.0


def test_journal_overhead(table, tmp_path) -> None:
    """Crash safety costs one begin + one commit transaction per batch."""
    repeats = 5
    plain: list[float] = []
    journaled: list[float] = []
    for i in range(repeats):
        plain.append(_churn_campaign(None))
        journaled.append(
            _churn_campaign(ChurnJournal(tmp_path / f"j{i}.journal"))
        )
    plain_ms = statistics.median(plain)
    journal_ms = statistics.median(journaled)
    overhead_pct = (journal_ms / plain_ms - 1.0) * 100.0
    table(
        f"RESILIENCE journal overhead (12 batches, median of {repeats})",
        ["variant", "median", "overhead"],
        [
            ("no journal", f"{plain_ms:.1f}ms", "-"),
            ("journaled", f"{journal_ms:.1f}ms", f"{overhead_pct:+.1f}%"),
        ],
    )
    RESULTS["workloads"]["journal_overhead"] = {
        "plain_ms": round(plain_ms, 2),
        "journal_ms": round(journal_ms, 2),
        "overhead_pct": round(overhead_pct, 2),
        "repeats": repeats,
    }


def test_recovery_latency(table, tmp_path) -> None:
    """From journaled crash to recovered fixpoint, priced against the
    crash-free cost of the same campaign."""
    # crash-free reference
    t0 = time.perf_counter()
    fault_free = run_chaos_campaign(tmp_path / "ref.journal", seed=9)
    fault_free_ms = (time.perf_counter() - t0) * 1000.0
    assert fault_free.parity and fault_free.recoveries == 0

    # crash at batch crashed_at, time the recovery alone
    path = tmp_path / "crash.journal"
    journal = ChurnJournal(path)
    engine = HornEngine(journal=journal)
    engine.add_clauses(CHAOS_CLAUSES)
    engine.saturate()
    journal.snapshot(engine)
    batches = chaos_batches(batches=12, ops_per_batch=10, seed=9)
    crashed_at = 0
    for adds, retracts in batches[:crashed_at]:
        engine.apply_batch(adds, retracts)
    # the crash: the begin record is durable, the engine is abandoned
    journal.begin(*batches[crashed_at])
    t0 = time.perf_counter()
    recovered, report = ChurnJournal(path).recover()
    recover_ms = (time.perf_counter() - t0) * 1000.0
    assert report["replayed_pending"] == 1
    for adds, retracts in batches[crashed_at + 1 :]:
        recovered.apply_batch(adds, retracts)

    # the recovered campaign still lands on the fault-free oracle
    oracle = HornEngine()
    oracle.add_clauses(CHAOS_CLAUSES)
    base: set = set()
    for adds, retracts in batches:
        for fact in retracts:
            base.discard(fact)
        for fact in adds:
            base.add(fact)
    oracle.add_facts(sorted(base))
    oracle.saturate()
    assert recovered.facts() == oracle.facts()

    table(
        "RESILIENCE recovery latency (crash at batch "
        f"{crashed_at + 1}/12)",
        ["phase", "time"],
        [
            ("crash-free campaign", f"{fault_free_ms:.1f}ms"),
            ("journal.recover()", f"{recover_ms:.1f}ms"),
        ],
    )
    RESULTS["workloads"]["recovery"] = {
        "fault_free_campaign_ms": round(fault_free_ms, 2),
        "recover_ms": round(recover_ms, 2),
        "crashed_at_batch": crashed_at,
        "batches_replayed": report["batches"],
        "parity": True,
    }


def test_chaos_campaign(table, tmp_path) -> None:
    """The headline: a realistic crash rate, bit-for-bit parity."""
    rng = random.Random(13)
    crash_at = sorted(i for i in range(10) if rng.random() < 0.2)
    result = run_chaos_campaign(
        tmp_path / "chaos.journal", seed=6, batches=10, crash_at=crash_at
    )
    assert result.parity, "chaos campaign diverged from the oracle"
    assert result.recoveries, "no crash happened — the campaign proved nothing"
    table(
        "RESILIENCE chaos campaign (10 batches)",
        ["measure", "value"],
        [
            ("parity", result.parity),
            ("facts (== oracle)", result.facts),
            ("crashed at batches", crash_at),
            ("journal recoveries", result.recoveries),
            ("elapsed", f"{result.elapsed_ms:.1f}ms"),
        ],
    )
    RESULTS["workloads"]["chaos_campaign"] = {
        "parity": 1.0 if result.parity else 0.0,
        "facts": result.facts,
        "oracle_facts": result.oracle_facts,
        "crash_at": crash_at,
        "recoveries": result.recoveries,
        "elapsed_ms": round(result.elapsed_ms, 2),
    }


_EXPECTED_WORKLOADS = {"journal_overhead", "recovery", "chaos_campaign"}


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
        "RESILIENCE artifact",
        ["file", "workloads"],
        [(_JSON_PATH.name, len(RESULTS["workloads"]))],
    )
    assert _JSON_PATH.exists()
