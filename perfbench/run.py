"""End-to-end benchmark of the ONION mediator.

    python3 perfbench/run.py --workload serve_churn --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md): ``serve_churn``, ``articulate`` and
``ingest_closure``.  Inputs are generated from
``--seed`` before timing.  The program runs in a fresh child process
(``child.py``); this process is the load generator: one client, a
closed loop, one persistent HTTP connection for the served workloads.
Every answer is checked against an oracle computed outside the timed
phase.  The last stdout line is the result object; the line before it
holds the detail (raw times, workload-specific figures, sample counts).

Time metrics are normalized for host speed: a fixed reference slice
(``common.HostRef``) is timed between operations on the same CPU, and
each time is scaled by ``NOMINAL_REF_MS / index`` (see common.py).
``--trace 1`` adds span wrappers in both processes and reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
from common import median, percentile  # noqa: E402

WORKLOADS = ("serve_churn", "articulate", "ingest_closure")
DEADLINE_S = 170  # the whole run, set-up included

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
}

# spans (tracing.py names) reported as self time / op time, in %
LAYERS = (
    "service.infer",
    "service.query",
    "service.churn",
    "art.fingerprint",
    "art.generate",
    "session.detach",
    "query.plan",
    "query.exec",
    "horn.query",
    "horn.apply_batch",
    "horn.saturate",
    "refresh",
    "maint.repair",
    "churn.mutate",
    "pages.bulk_load",
    "ingest",
    "journal.begin",
    "journal.commit",
    "journal.snapshot",
    "skat.propose",
    "skat.exact",
    "skat.synonym",
    "skat.hypernym",
    "skat.structural",
    "expert.review",
)
REFRESH_MODES = ("initial", "noop", "incremental", "retract", "replay", "rebuild", "batch-rebuild")

PER_LAYER = {
    "host.ref_loop_ms": "ms",
    "http.transport_pct": "%",
    **{f"{layer}_pct": "%" for layer in LAYERS},
    "journal.recover_pct": "%",
    "art.fingerprint_calls": "count",
    "cache.hit_rate": "ratio",
    "cache.invalidations": "count",
    "session.detaches": "count",
    "query.plan_cache_hit_rate": "ratio",
    "horn.join_candidates": "count",
    "horn.derived": "count",
    "horn.overdeleted": "count",
    "horn.rederived": "count",
    **{f"refresh.mode_{mode}": "count" for mode in REFRESH_MODES},
    "pages.hit_rate": "ratio",
    "pages.evictions": "count",
    "ingest.facts_per_s": "1/s",
    "journal.bytes_per_batch": "bytes",
    "skat.pair_fraction": "ratio",
    "skat.rounds": "count",
    "client.cpu_share": "ratio",
    "trace.covered_pct": "%",
    "trace.overhead_pct": "%",
    "trace.overhead_ops_per_s": "1/s",
}


class RunFailed(Exception):
    pass


def _alarm(signum, frame):
    raise RunFailed(f"run exceeded {DEADLINE_S}s")


class Child:
    """One program-side process, driven over its stdin/stdout."""

    def __init__(self, config: dict) -> None:
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(ROOT),
        )
        self.ready = common.receive(self.proc.stdout)
        self.port = self.ready.get("port")

    def call(self, cmd: str, **fields) -> dict:
        common.send(self.proc.stdin, {"cmd": cmd, **fields})
        return common.receive(self.proc.stdout)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                common.send(self.proc.stdin, {"cmd": "exit"})
                self.proc.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self.kill()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


class Run:
    """State shared by every workload runner."""

    def __init__(self, args, work: Path) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = work
        self.ref = common.HostRef()
        self.children: list[Child] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.detail: dict = {}
        self.metrics: dict = {}
        self.tracer = None
        if self.trace:
            from repro.workloads.loadgen import LoadClient
            from tracing import Tracer

            self.tracer = Tracer()
            self.tracer.wrap(LoadClient, "request", "client.request", root=True)

    def norm(self, raw: float, at: int | None = None) -> float:
        """``raw`` in nominal-host units.

        ``at`` is the number of reference slices taken before the
        measurement; the index is then the median of the LOCAL_SLICES
        slices on either side of it, which follows the host's speed
        through a run.  Without ``at``, the median of every slice.
        """
        slices = self.ref.samples
        if at is not None:
            slices = slices[max(0, at - common.LOCAL_SLICES) : at + common.LOCAL_SLICES]
        return common.normalize(raw, median(slices))

    def slices(self, n: int = common.LOCAL_SLICES) -> int:
        """Take ``n`` reference slices; returns how many were taken so far."""
        for _ in range(n):
            self.ref.slice()
        return len(self.ref.samples)

    def fail(self, reason: str, n: int = 1) -> None:
        self.failed += n
        self.failures[reason] = self.failures.get(reason, 0) + n

    def spawn(self, config: dict) -> Child:
        child = Child({"seed": self.seed, "trace": self.trace, **config})
        self.children.append(child)
        return child

    def set_up(self, config: dict) -> Child:
        """Start the program at least SETUP_REPEATS times, and until
        SETUP_MIN_S seconds went into set-up; keep the last child.

        setup_s is the median normalized spawn-to-ready time.
        """
        raw, normalized, child = [], [], None
        for i in range(common.SETUP_MAX_REPEATS):
            if len(raw) >= common.SETUP_REPEATS and sum(raw) >= common.SETUP_MIN_S:
                break
            if child is not None:
                child.close()
            directory = self.work / f"setup{i}"
            directory.mkdir()
            at = self.slices()
            start = time.perf_counter()
            child = self.spawn({**config, "work": str(directory)})
            raw.append(time.perf_counter() - start)
            self.slices()
            normalized.append(self.norm(raw[-1], at))
        self.metrics["setup_s"] = median(normalized)
        self.detail["setup_s_raw"] = raw
        self.final_dir = directory
        gc.collect()
        gc.freeze()
        return child

    def close(self) -> None:
        for child in self.children:
            child.close()


# ----------------------------------------------------------------------
# the served workloads
# ----------------------------------------------------------------------
class Sample:
    __slots__ = ("item", "ms", "response", "block", "at")

    def __init__(self, item, ms, response, block, at):
        self.item, self.ms, self.response, self.block, self.at = item, ms, response, block, at


def served_inputs(run: Run, sizes: dict):
    workload = common.make_sources(sizes["terms"])
    articulation = common.make_articulation(workload)
    oracle = common.SubsumptionOracle(articulation)
    rows = common.instance_rows(workload, sizes["rows"])
    by_class = common.rows_by_class(rows)
    pool = common.request_pool(oracle, articulation, by_class, sizes["pool"])
    return workload, articulation, oracle, by_class, pool


def drive(run: Run, client_box: list, schedule: list, state: dict, seconds: float, on_request=None):
    """The closed loop: send schedule items in order for ``seconds``.

    A reference slice runs at the start of every REF_BLOCK_S block.
    Nothing but the request is inside a sample's timed interval.
    Schedule items marked ``ends_block`` close a block of the schedule
    (``served_metrics``).
    """
    from repro.workloads.loadgen import LoadClient

    samples: list[Sample] = []
    ref_s = 0.0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    deadline = wall0 + seconds
    next_ref = 0.0
    while True:
        now = time.perf_counter()
        if now >= deadline:
            break
        if now >= next_ref:
            ref_s += run.ref.slice() * 2 / 1000.0  # the slice's two halves, roughly
            next_ref = time.perf_counter() + common.REF_BLOCK_S
        item = schedule[state["pos"]]
        state["pos"] += 1
        path, body = item["path"], item.get("body")
        sid = state.get("session")
        if item.get("session"):
            body = {**body, "session": sid}
        if item["kind"] == "repin":
            path = f"/sessions/{sid}/refresh"
        client = client_box[0]
        start = time.perf_counter()
        try:
            response = client.post(path, body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            response = {"ok": False, "error": repr(exc)}
            client.close()
            client_box[0] = LoadClient(client.conn.host, client.conn.port)
        elapsed = (time.perf_counter() - start) * 1000.0
        samples.append(Sample(item, elapsed, response, state["block"], len(run.ref.samples)))
        if item.get("ends_block"):
            state["block"] += 1
        if on_request is not None:
            on_request(len(samples))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    run.slices()  # slices after the last requests, for run.norm
    state["cpu_share"] = max(0.0, cpu - ref_s) / max(1e-9, wall - ref_s)
    return samples


def check_reads(run: Run, samples, oracle_for, by_class) -> None:
    """Count every request and compare every read with its oracle."""
    for sample in samples:
        kind = sample.item["kind"]
        if kind == "repin":
            if not sample.response.get("ok"):
                run.fail("repin")
            continue
        run.attempted += 1
        if not sample.response.get("ok"):
            run.fail("status")
            continue
        if kind == "write":
            continue  # checked by the mirror replay
        oracle = oracle_for(sample)
        if common.canonical(sample.item, sample.response) != oracle.answer(sample.item, by_class):
            run.fail("isolation" if sample.item.get("session") else "oracle")


def served_metrics(run: Run, samples, closed: int, sizes: dict) -> None:
    """Time metrics over the first ``sizes["measured_blocks"]`` blocks.

    A block is a fixed stretch of the schedule (``closed`` of them
    completed), and the state the program builds up (grown sources)
    depends on how far the run got.  Timing the same requests in every
    run, however fast the host, keeps a fast host from also measuring
    larger sources.  The rest of the window is still checked.  An
    untraced run that does not complete the measured blocks fails: it
    would time a shorter, cheaper stretch.
    """
    measured = sizes["measured_blocks"]
    if closed < measured and not run.trace:
        run.attempted += 1
        run.fail("short_window")
    ops = [s for s in samples if s.item["kind"] != "repin"]
    timed = [s for s in ops if s.block < measured] or ops
    ms = {
        kind: [run.norm(s.ms, s.at) for s in timed if s.item["kind"] == kind]
        for kind in ("read", "write")
    }
    every = ms["read"] + ms["write"]
    hits = [bool(s.response.get("cached")) for s in timed if s.item["kind"] == "read"]
    run.metrics["ops_per_s"] = len(every) / (sum(every) / 1000.0)
    run.metrics["op_p50_ms"] = median(ms["write"])
    run.detail.update(
        measured_blocks=min(closed, measured),
        ops_per_s_raw=len(timed) / (sum(s.ms for s in timed) / 1000.0),
        read_samples=len(ms["read"]),
        read_p50_ms=median(ms["read"]),
        read_p99_ms=percentile(ms["read"], 99),
        read_cache_hit_rate=sum(hits) / max(1, len(hits)),
        read_time_share=sum(ms["read"]) / sum(every),
        write_samples=len(ms["write"]),
        write_p50_ms=median(ms["write"]),
        write_p90_ms=percentile(ms["write"], 90),
    )


def traced_windows(run: Run, child: Child, client_box, schedule, state, seconds, prefix_n):
    """Traced half then untraced half; returns (traced, untraced, dumps).

    The counters are also dumped after the first ``prefix_n`` requests:
    the same requests in every run of a seed, so those counts repeat
    exactly (or, if the window ends first, at its end).
    """
    prefix: dict = {}

    def at_prefix(n):
        if n == prefix_n:
            prefix["dump"] = child.call("trace_dump")
            prefix["stats"] = child.call("stats")

    child.call("trace", on=True, reset=True)
    run.tracer.reset()
    run.tracer.enabled = True
    traced = drive(run, client_box, schedule, state, seconds / 2, at_prefix)
    run.tracer.enabled = False
    run.detail["trace_prefix_reached"] = "dump" in prefix
    if "dump" not in prefix:
        at_prefix(prefix_n)
    dump = child.call("trace_dump")
    child.call("trace", on=False)
    traced_cpu = state["cpu_share"]
    untraced = drive(run, client_box, schedule, state, seconds / 2)
    state["cpu_share"] = traced_cpu
    return traced, untraced, dump, prefix


def layer_shares(run: Run, dump: dict, denominator_ms: float, n_ops: int, transport_ms=None):
    """Self time per layer as a share of client-observed op time."""
    self_ms = dump["self_ms"]
    covered = 0.0
    for layer in LAYERS:
        spent = self_ms.get(layer, 0.0)
        covered += spent
        run.metrics[f"{layer}_pct"] = 100.0 * spent / denominator_ms
        run.detail[f"{layer}_ms"] = run.norm(spent / n_ops)
    other = sum(v for k, v in self_ms.items() if k not in LAYERS and k != "http.handler")
    covered += other
    run.detail["other_spans_ms"] = run.norm(other / n_ops)
    if transport_ms is not None:
        covered += transport_ms
        run.metrics["http.transport_pct"] = 100.0 * transport_ms / denominator_ms
        run.detail["http.transport_ms"] = run.norm(transport_ms / n_ops)
    run.metrics["trace.covered_pct"] = 100.0 * covered / denominator_ms
    run.detail.update(spans_recorded=dump["spans"], spans_dropped=dump["dropped"])


def count_metrics(run: Run, dump: dict, n_ops: int) -> None:
    counts, calls = dump["counts"], dump["calls"]
    for name in ("horn.join_candidates", "horn.derived", "horn.overdeleted", "horn.rederived"):
        run.metrics[name] = counts.get(name, 0)
    for mode in REFRESH_MODES:
        run.metrics[f"refresh.mode_{mode}"] = counts.get(f"refresh.mode_{mode}", 0)
    run.metrics["art.fingerprint_calls"] = calls.get("art.fingerprint", 0) / n_ops
    run.metrics["session.detaches"] = calls.get("session.detach", 0)
    pages = dump.get("pages", {})
    looked = pages.get("pages.hits", 0) + pages.get("pages.misses", 0)
    run.metrics["pages.hit_rate"] = pages.get("pages.hits", 0) / looked if looked else 0.0
    run.metrics["pages.evictions"] = pages.get("pages.evictions", 0)
    batches = counts.get("journal.batches", 0)
    run.metrics["journal.bytes_per_batch"] = counts.get("journal.bytes", 0) / batches if batches else 0.0
    pairs = counts.get("skat.all_pairs", 0)
    run.metrics["skat.pair_fraction"] = counts.get("skat.candidate_pairs", 0) / pairs if pairs else 0.0
    run.metrics["skat.rounds"] = counts.get("skat.rounds", 0)


def served_trace_metrics(run, traced, untraced, dump, prefix, state, prefix_n) -> None:
    client_ms = sum(run.tracer.roots)  # client.request spans of the traced window
    handler = dump["incl_ms"].get("http.handler", 0.0) - dump["self_ms"].get("http.handler", 0.0)
    n_ops = sum(1 for s in traced if s.item["kind"] != "repin")
    layer_shares(run, dump, client_ms, n_ops, transport_ms=client_ms - handler)
    count_metrics(run, prefix["dump"], min(prefix_n, len(traced)))
    flags = [
        bool(s.response.get("cached"))
        for s in traced[:prefix_n]
        if s.item["kind"] == "read"
    ]
    run.metrics["cache.hit_rate"] = sum(flags) / len(flags) if flags else 0.0
    stats = prefix["stats"]
    run.metrics["cache.invalidations"] = stats.get("cache", {}).get("invalidations", 0)
    plan = stats.get("plan_cache", {})
    looked = plan.get("hits", 0) + plan.get("misses", 0)
    run.metrics["query.plan_cache_hit_rate"] = plan.get("hits", 0) / looked if looked else 0.0
    run.metrics["client.cpu_share"] = state["cpu_share"]

    def ops(samples):
        return [run.norm(s.ms, s.at) for s in samples if s.item["kind"] != "repin"]

    # the same number of requests on each side: the first ones of each half
    traced_ms, untraced_ms = ops(traced), ops(untraced)
    n = min(len(traced_ms), len(untraced_ms))
    traced_rate = n / (sum(traced_ms[:n]) / 1000.0)
    untraced_rate = n / (sum(untraced_ms[:n]) / 1000.0)
    run.metrics["trace.overhead_ops_per_s"] = untraced_rate - traced_rate
    run.metrics["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    run.detail.update(traced_ops_per_s=traced_rate, untraced_ops_per_s=untraced_rate)


def warm_up(run: Run, client_box, pool, sequence) -> None:
    for idx in sequence:
        response = client_box[0].post(pool[idx]["path"], pool[idx]["body"])
        if not response.get("ok"):
            raise RunFailed(f"warm-up request failed: {response}")


def churn_schedule(pool, seed: int, sizes: dict) -> list[dict]:
    """Blocks of bursts: ``burst`` writes, then ``reads`` reads that
    refill the result cache the writes emptied; a re-pin ends a block."""
    rng = random.Random(seed * 13 + 5)
    n_reads = sizes["blocks"] * sizes["bursts_per_block"] * sizes["reads"]
    order = iter(common.zipf_sequence(len(pool), n_reads, sizes["zipf_s"], rng))
    schedule, writes = [], 0
    for _ in range(sizes["blocks"]):
        for _ in range(sizes["bursts_per_block"]):
            for _ in range(sizes["burst"]):
                schedule.append(
                    {
                        "kind": "write",
                        "path": "/churn",
                        "body": {
                            "source": f"src{writes % 2}",
                            "mutations": sizes["mutations"],
                            "seed": rng.randrange(1 << 30),
                            "delete_weight": 0.0,
                        },
                    }
                )
                writes += 1
            for _ in range(sizes["reads"]):
                item = {"kind": "read", **pool[next(order)]}
                if item["path"] == "/infer" and rng.random() < 0.35:
                    item["session"] = True
                schedule.append(item)
        schedule.append({"kind": "repin", "path": None, "body": {}, "ends_block": True})
    return schedule


def run_serve_churn(run: Run) -> None:
    from repro.core.maintenance import ArticulationMaintainer
    from repro.workloads.churn import apply_churn
    from repro.workloads.loadgen import LoadClient

    sizes = common.SERVE_CHURN
    workload, articulation, oracle, by_class, pool = served_inputs(run, sizes)
    rng = random.Random(run.seed)
    warm = common.zipf_sequence(len(pool), sizes["warmup"], sizes["zipf_s"], rng)
    schedule = churn_schedule(pool, run.seed, sizes)
    child = run.set_up({"workload": "serve_churn"})
    client_box = [LoadClient("127.0.0.1", child.port)]
    warm_up(run, client_box, pool, warm)
    child.call("settle")
    state = {"pos": 0, "block": 0, "session": client_box[0].post("/sessions", {})["session"]}

    def at_prefix_end(n):
        # peak RSS over the measured blocks: later writes keep growing the sources
        if state["block"] >= sizes["measured_blocks"] and "peak_rss_mb" not in run.metrics:
            run.metrics["peak_rss_mb"] = child.call("rss")["peak_rss_mb"]

    if run.trace:
        traced, untraced, dump, prefix = traced_windows(
            run, child, client_box, schedule, state, run.seconds, sizes["trace_prefix"]
        )
        samples = traced + untraced
    else:
        samples = drive(run, client_box, schedule, state, run.seconds, at_prefix_end)

    # durability sample: generalizations/specializations over seeded
    # terms, half of them terms the last writes added or touched
    touched = []
    for sample in samples:
        if sample.item["kind"] == "write" and sample.response.get("ok"):
            source = sample.item["body"]["source"]
            touched.extend(f"{source}:{t}" for t in sample.response.get("touched", []))
    probe_rng = random.Random(run.seed * 17 + 3)
    probe_terms = probe_rng.sample(sorted(oracle.nodes), sizes["probes"] // 2)
    probe_terms += touched[-(sizes["probes"] // 2):]
    probes = [
        {"kind": "read", "path": "/infer", "body": {"op": op, "term": term}}
        for term in probe_terms
        for op in ("generalizations", "specializations")
    ]
    before = [common.canonical(p, client_box[0].post(p["path"], p["body"])) for p in probes]
    if "peak_rss_mb" not in run.metrics:  # the measured blocks did not complete
        run.metrics["peak_rss_mb"] = child.call("rss")["peak_rss_mb"]
    client_box[0].close()

    # SIGKILL, then restart from the journal; recovery_s ends at the
    # first probe answer that matches the pre-kill answer
    kill_at = time.perf_counter()
    child.kill()
    recovered = run.spawn({"workload": "recover", "work": str(run.final_dir)})
    client = LoadClient("127.0.0.1", recovered.port)
    after = [common.canonical(probes[0], client.post(probes[0]["path"], probes[0]["body"]))]
    recovery_raw = time.perf_counter() - kill_at
    after += [common.canonical(p, client.post(p["path"], p["body"])) for p in probes[1:]]
    client.close()
    recovery_dump = recovered.call("trace_dump") if run.trace else None
    recovered.close()
    run.detail["recovery_s"] = run.norm(recovery_raw)
    run.detail["recovery_s_raw"] = recovery_raw

    # replay every acknowledged write on a mirror of the sources; reads
    # are checked against a BFS over the mirror at the version they saw
    maintainer = ArticulationMaintainer(articulation)
    mirror = {"writes": 0, "oracle": oracle, "pinned": oracle}

    def oracle_for(sample):
        return mirror["pinned"] if sample.item.get("session") else mirror["oracle"]

    for sample in samples:
        kind = sample.item["kind"]
        if kind == "write" and sample.response.get("ok"):
            body = sample.item["body"]
            report = apply_churn(
                articulation.sources[body["source"]],
                n_mutations=body["mutations"],
                seed=body["seed"],
                delete_weight=0.0,
            )
            maintainer.apply_source_changes(body["source"], report.touched_terms())
            if sorted(report.touched_terms()) != sample.response.get("touched"):
                run.fail("mirror")
            mirror["oracle"] = common.SubsumptionOracle(articulation)
        elif kind == "repin" and sample.response.get("ok"):
            mirror["pinned"] = mirror["oracle"]
        check_reads(run, [sample], oracle_for, by_class)
    final = mirror["oracle"]
    for probe, answer_before, answer_after in zip(probes, before, after):
        run.attempted += 1
        if answer_after != answer_before or answer_after != final.answer(probe, by_class):
            run.fail("durability")

    served_metrics(run, samples, state["block"], sizes)
    run.detail.update(
        client_cpu_share=state["cpu_share"],
        pool=len(pool),
    )
    if run.trace:
        served_trace_metrics(run, traced, untraced, dump, prefix, state, sizes["trace_prefix"])
        recover_ms = recovery_dump["incl_ms"].get("journal.recover", 0.0)
        run.metrics["journal.recover_pct"] = 100.0 * recover_ms / (recovery_raw * 1000.0)
        run.detail["journal.recover_ms"] = recover_ms


# ----------------------------------------------------------------------
# operation workloads: one op = one whole pipeline pass in the child
# ----------------------------------------------------------------------
def op_window(run: Run, child: Child, seconds: float, check, after_first=None) -> list[tuple]:
    """Closed loop of ``op`` commands; returns (raw seconds, slice count)
    per op, reference slices taken between the ops."""
    done = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        at = run.slices()
        reply = child.call("op", k=len(done))
        if after_first is not None and not done:
            after_first()
        done.append((reply["op_s"], at))
        check(reply)
    run.slices()
    return done


def normalized(run: Run, ops) -> list[float]:
    return [run.norm(raw, at) for raw, at in ops]


def op_rate(run: Run, ops) -> float:
    return len(ops) / sum(normalized(run, ops))


def op_runner(run: Run, config: dict, check) -> list:
    child = run.set_up(config)
    child.call("warmup")
    if run.trace:
        first: dict = {}
        child.call("trace", on=True, reset=True)
        traced = op_window(
            run, child, run.seconds / 2, check,
            after_first=lambda: first.update(child.call("trace_dump")),
        )
        dump = child.call("trace_dump")
        child.call("trace", on=False)
        untraced = op_window(run, child, run.seconds / 2, check)
        ops = traced + untraced
    else:
        ops = op_window(run, child, run.seconds, check)
    run.metrics["peak_rss_mb"] = child.call("rss")["peak_rss_mb"]
    child.close()
    run.metrics["ops_per_s"] = op_rate(run, ops)
    run.metrics["op_p50_ms"] = median(normalized(run, ops)) * 1000.0
    run.detail["op_samples"] = len(ops)
    run.detail["op_s_raw"] = [raw for raw, _ in ops]
    if run.trace:
        layer_shares(run, dump, sum(raw for raw, _ in traced) * 1000.0, len(traced))
        count_metrics(run, first, 1)  # the first traced op: the same work in every run
        spent = dump["incl_ms"].get("ingest", 0.0) / 1000.0
        run.metrics["ingest.facts_per_s"] = (
            dump["counts"].get("ingest.facts", 0) / spent if spent else 0.0
        )
        traced_rate, untraced_rate = op_rate(run, traced), op_rate(run, untraced)
        run.metrics["trace.overhead_ops_per_s"] = untraced_rate - traced_rate
        run.metrics["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    return ops


def run_articulate(run: Run) -> None:
    workload = common.make_sources(common.ARTICULATE["terms"])
    aligned = sorted(f"src0:{a}" for a, _ in workload.co_referring(0, 1))
    probe = random.Random(run.seed).choice(aligned)
    expected: dict = {}

    def check(reply):
        run.attempted += 1
        quality = (reply["reviewed"], reply["accepted_true"], reply["truth"])
        expected.setdefault("quality", quality)
        if not reply["answer_ok"]:
            run.fail("oracle")
        if reply["accepted_false"] or quality != expected["quality"]:
            run.fail("truth")

    ops = op_runner(run, {"workload": "articulate", "probe": probe}, check)
    reviewed, accepted, truth = expected["quality"]
    run.detail.update(
        build_s=run.metrics["op_p50_ms"] / 1000.0,
        match_recall=accepted / truth,
        match_precision=accepted / reviewed,
        reviewed_candidates=reviewed,
        accepted_rules=accepted,
        truth_rules=truth,
    )


def run_ingest(run: Run) -> None:
    fact_file = run.work / "facts.jsonl"
    shape = common.write_fact_file(fact_file, run.seed, common.INGEST["flat"], common.INGEST["chains"])
    chain = random.Random(run.seed).randrange(20)
    probe = f"n{run.seed}_{chain}_0"
    length = common.INGEST["chain_len"]
    expected = sorted(f"n{run.seed}_{chain}_{i}" for i in range(1, length + 1))

    def check(reply):
        run.attempted += 1
        if (
            reply["answer"] != expected
            or reply["implies"] != shape["closure_implies"]
            or reply["attr"] != shape["attr"]
        ):
            run.fail("oracle")

    ops = op_runner(
        run,
        {
            "workload": "ingest_closure",
            "probe": probe,
            "fact_file": str(fact_file),
        },
        check,
    )
    run.detail.update(first_answer_s=run.metrics["op_p50_ms"] / 1000.0, facts=shape["facts"])


RUNNERS = {
    "serve_churn": run_serve_churn,
    "articulate": run_articulate,
    "ingest_closure": run_ingest,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at src/repro; run from a checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # the mirror replay and the count metrics need one hash order
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(DEADLINE_S)
    common.pin_to_one_cpu()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(args, work)
    try:
        RUNNERS[args.workload](run)
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    signal.alarm(0)
    wanted = PER_LAYER if run.trace else END_TO_END
    if run.trace:
        run.metrics["host.ref_loop_ms"] = median(run.ref.samples)
    run.detail.update(
        host_ref_ms=median(run.ref.samples),
        host_ref_compute_ms=median(c for c, _ in run.ref.parts),
        host_ref_memory_ms=median(m for _, m in run.ref.parts),
        error_rate=run.failed / max(1, run.attempted),
        failures=run.failures,
        cpu_count=os.cpu_count(),
        python=sys.version.split()[0],
    )
    if run.trace:
        for name in PER_LAYER:  # a layer this workload bypasses reads 0
            run.metrics.setdefault(name, 0.0)
    print(json.dumps({"detail": run.detail}, default=float))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": float(run.metrics[name]), "unit": unit}
                    for name, unit in wanted.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
