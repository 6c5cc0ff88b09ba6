"""Perf-trajectory gate over the checked-in benchmark records.

The repo's perf story lives in the ``BENCH_*.json`` records the
benchmark suites write.  Raw milliseconds are machine-bound, so the
gate tracks the *ratio* metrics inside them — speedups of the
optimized path over its baseline (indexed vs scan, incremental vs
rerun, DRed vs rebuild, batched vs per-op churn, ...) — which
cancel machine speed to first order and therefore compare across CI
runners.

Two subcommands:

``snapshot --out FILE``
    Extract every headline metric from the ``BENCH_*.json`` files in
    ``--dir`` (default: this directory) and write them to ``FILE``.
    CI snapshots the *checked-in* records before re-running the
    suites, so the snapshot is the trajectory the repo claims.

``compare --baseline FILE``
    Re-extract the metrics from ``--dir`` (now holding the freshly
    re-run records), print a trend table against the snapshot, and
    exit non-zero when any metric regressed by more than
    ``--tolerance`` (default 0.25, i.e. a >25% drop).  Metrics new on
    either side are reported but never fail the gate.

Run it from anywhere: paths resolve relative to ``--dir``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
DEFAULT_TOLERANCE = 0.25


# ----------------------------------------------------------------------
# metric extraction (one extractor per BENCH record)
# ----------------------------------------------------------------------
def _ratio(numerator, denominator) -> float | None:
    try:
        numerator = float(numerator)
        denominator = float(denominator)
    except (TypeError, ValueError):
        return None
    if denominator <= 0.0:
        return None
    return numerator / denominator


def _metrics_inference(payload: dict) -> dict[str, float]:
    w = payload.get("workloads", {})
    out: dict[str, float | None] = {}
    incr = w.get("incremental_vs_rerun", {})
    out["infer.incremental_speedup"] = _ratio(
        incr.get("rerun_ms"), incr.get("incremental_ms")
    )
    for family, name in (
        ("indexed_vs_scan", "infer.indexed_vs_scan"),
        ("seminaive_vs_naive", "infer.seminaive_vs_naive"),
    ):
        series = w.get(family, {})
        if series:
            top = max(series, key=lambda k: int(k))
            out[f"{name}@{top}"] = series[top].get("speedup")
    return {k: v for k, v in out.items() if v is not None}


def _metrics_retraction(payload: dict) -> dict[str, float]:
    w = payload.get("workloads", {})
    out: dict[str, float | None] = {}
    churn = w.get("articulation_churn", {})
    out["retract.churn_speedup"] = _ratio(
        churn.get("rebuild_ms"), churn.get("incremental_ms")
    )
    point = w.get("retract_vs_rebuild", {}).get("1", {})
    out["retract.small_retract_speedup"] = _ratio(
        point.get("rebuild_ms"), point.get("retract_ms")
    )
    return {k: v for k, v in out.items() if v is not None}


def _metrics_parallel(payload: dict) -> dict[str, float]:
    w = payload.get("workloads", {})
    out: dict[str, float | None] = {}
    churn = w.get("batched_churn", {})
    out["parallel.batched_churn_speedup"] = churn.get("best_speedup")
    return {k: v for k, v in out.items() if v is not None}


def _metrics_articulation(payload: dict) -> dict[str, float]:
    s = payload.get("sections", {})
    out: dict[str, float | None] = {}
    fuzzy = s.get("pattern_matching", {}).get("indexed_vs_scan_fuzzy", {})
    if fuzzy:
        top = max(fuzzy, key=lambda k: int(k))
        out[f"artic.pattern_indexed_speedup@{top}"] = fuzzy[top].get(
            "speedup"
        )
    skat = s.get("skat", {}).get("blocked_vs_all_pairs", {})
    if skat:
        top = max(skat, key=lambda k: int(k))
        out[f"artic.skat_blocked_speedup@{top}"] = skat[top].get("speedup")
    cache = s.get("articulation_cache", {})
    out["artic.cache_refresh_speedup"] = cache.get("refresh_speedup")
    return {k: v for k, v in out.items() if v is not None}


def _metrics_resilience(payload: dict) -> dict[str, float]:
    w = payload.get("workloads", {})
    out: dict[str, float | None] = {}
    chaos = w.get("chaos_campaign", {})
    # 1.0 or the gate fails: parity under chaos is a correctness
    # property wearing a metric's clothes
    out["resil.chaos_parity"] = chaos.get("parity")
    return {k: v for k, v in out.items() if v is not None}


def _metrics_serving(payload: dict) -> dict[str, float]:
    w = payload.get("workloads", {})
    out: dict[str, float | None] = {}
    cache = w.get("cache_speedup", {})
    out["serving.cache_speedup"] = _ratio(
        cache.get("uncached_ms"), cache.get("cached_ms")
    )
    load = w.get("load_under_churn", {})
    # the Zipfian mix's hit rate is machine-independent: it depends on
    # key distribution and invalidation frequency, not on clock speed
    out["serving.hit_rate"] = load.get("hit_rate")
    # 1.0 or the gate fails: a pinned session observing concurrent
    # churn is a correctness bug, not a slowdown
    if load.get("isolation_probes"):
        out["serving.isolation_parity"] = (
            1.0 if load.get("isolation_violations") == 0 else 0.0
        )
    boot = w.get("recovery_boot", {})
    out["serving.recovery_parity"] = boot.get("parity")
    return {k: v for k, v in out.items() if v is not None}


def _metrics_outofcore(payload: dict) -> dict[str, float]:
    w = payload.get("workloads", {})
    out: dict[str, float | None] = {}
    series = w.get("parity_overhead", {})
    if series:
        top = max(series, key=lambda k: int(k))
        point = series[top]
        # inverted on purpose: the gate fails on *drops*, so the
        # tracked number is the paged store's efficiency against the
        # in-memory store (1/overhead) — buffer-pool or batching
        # regressions make the paged side slower and drag it down
        out[f"outofcore.paged_overhead@{top}"] = _ratio(
            point.get("memory_ms"), point.get("paged_ms")
        )
        # parity is correctness wearing a metric's clothes: 1.0 or fail
        out["outofcore.closure_parity"] = min(
            (p.get("parity", 0.0) for p in series.values()), default=None
        )
    million = w.get("million_fact_closure", {})
    buffer = million.get("paged", {}).get("buffer", {})
    # machine-independent: the hit rate depends on the access pattern
    # and eviction policy, not on clock speed
    out["outofcore.buffer_hit_rate"] = buffer.get("hit_rate")
    return {k: v for k, v in out.items() if v is not None}


EXTRACTORS = {
    "BENCH_inference.json": _metrics_inference,
    "BENCH_retraction.json": _metrics_retraction,
    "BENCH_parallel.json": _metrics_parallel,
    "BENCH_articulation.json": _metrics_articulation,
    "BENCH_resilience.json": _metrics_resilience,
    "BENCH_serving.json": _metrics_serving,
    "BENCH_outofcore.json": _metrics_outofcore,
}


def collect_metrics(
    directory: Path, files: list[str] | None = None
) -> dict[str, float]:
    """Headline ratio metrics from the BENCH records in ``directory``.

    Missing files and malformed records are skipped — a metric only
    exists when its record does, and :func:`compare` treats one-sided
    metrics as informational, not failures.
    """
    metrics: dict[str, float] = {}
    for filename, extract in EXTRACTORS.items():
        if files is not None and filename not in files:
            continue
        path = directory / filename
        if not path.exists():
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(payload, dict):
            metrics.update(extract(payload))
    return metrics


# ----------------------------------------------------------------------
# the trend table + gate
# ----------------------------------------------------------------------
def compare(
    baseline: dict[str, float],
    current: dict[str, float],
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[list[tuple[str, str, str, str, str]], list[str]]:
    """(trend table rows, regressed metric names)."""
    rows: list[tuple[str, str, str, str, str]] = []
    regressions: list[str] = []
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        cur = current.get(name)
        if base is None:
            rows.append((name, "-", f"{cur:.2f}", "-", "new"))
            continue
        if cur is None:
            rows.append((name, f"{base:.2f}", "-", "-", "not re-run"))
            continue
        change = (cur - base) / base if base else 0.0
        status = "ok"
        if cur < base * (1.0 - tolerance):
            status = "REGRESSION"
            regressions.append(name)
        rows.append(
            (name, f"{base:.2f}", f"{cur:.2f}", f"{change:+.1%}", status)
        )
    return rows, regressions


def print_trend_table(rows: list[tuple[str, str, str, str, str]]) -> None:
    headers = ("metric", "baseline", "current", "change", "status")
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    snap = sub.add_parser("snapshot", help="record the current metrics")
    snap.add_argument("--out", type=Path, required=True)
    snap.add_argument("--dir", type=Path, default=_HERE)
    snap.add_argument("--files", nargs="*", default=None)

    comp = sub.add_parser("compare", help="gate against a snapshot")
    comp.add_argument("--baseline", type=Path, required=True)
    comp.add_argument("--dir", type=Path, default=_HERE)
    comp.add_argument("--files", nargs="*", default=None)
    comp.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE
    )

    args = parser.parse_args(argv)

    if args.command == "snapshot":
        metrics = collect_metrics(args.dir, args.files)
        if not metrics:
            print("no benchmark records found — nothing to snapshot")
            return 1
        args.out.write_text(
            json.dumps({"metrics": metrics}, indent=2, sort_keys=True) + "\n"
        )
        print(f"snapshotted {len(metrics)} metrics to {args.out}")
        return 0

    try:
        baseline = json.loads(args.baseline.read_text())["metrics"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"cannot read baseline snapshot {args.baseline}: {exc}")
        return 1
    current = collect_metrics(args.dir, args.files)
    rows, regressions = compare(baseline, current, args.tolerance)
    print_trend_table(rows)
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} metric(s) regressed more than "
            f"{args.tolerance:.0%}: {', '.join(regressions)}"
        )
        return 1
    print(f"\nOK: no metric regressed more than {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
