"""The program side of one benchmark run, in its own process.

Started by ``run.py`` with one JSON argument.  It sets the program up
for one workload, prints ``{"ready": ...}`` on stdout, then answers
control commands (one JSON object per line on stdin).  For the served
workloads the program is an ``ArticulationServer`` on an ephemeral
localhost port and the load arrives over HTTP; for ``articulate`` and
``ingest_closure`` each ``op`` command runs one whole operation
through the public API and reports its time and what the checks need.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from tracing import Tracer, install_program_wrappers, page_counters  # noqa: E402


def serve_setup(config: dict) -> dict:
    from repro.serving import ArticulationServer, ArticulationService

    workload_name = config["workload"]
    journal = str(Path(config["work"]) / "serve.journal")
    if workload_name == "recover":
        service = ArticulationService(
            storage="paged",
            buffer_facts=common.SERVE_CHURN["buffer_facts"],
            journal_path=journal,
        )
    else:
        sizes = common.SERVE_CHURN
        workload = common.make_sources(sizes["terms"])
        articulation = common.make_articulation(workload)
        stores = common.build_stores(
            workload, common.instance_rows(workload, sizes["rows"])
        )
        service = ArticulationService(
            storage="paged",
            buffer_facts=sizes["buffer_facts"],
            journal_path=journal,
        )
        service.install(articulation, stores=stores)
    server = ArticulationServer(service, port=0).start()
    return {"service": service, "server": server, "port": server.port}


def articulate_setup(seed: int, terms: int) -> dict:
    from repro.lexicon.expert import GroundTruthPolicy

    workload = common.make_sources(terms)
    truth = workload.truth_rules(0, 1)
    return {
        "sources": workload.sources,
        "lexicon": workload.lexicon(noise=common.ARTICULATE["noise"], seed=seed),
        "truth": frozenset(str(rule) for rule in truth),
        "policy": GroundTruthPolicy.from_rules(truth),
    }


def articulate_once(state: dict, probe: str) -> dict:
    """One expert session to the first answer; timed part plus checks."""
    from repro.lexicon import skat
    from repro.serving import ArticulationService

    o1, o2 = state["sources"]
    start = time.perf_counter()
    articulation, audit = skat.articulate_with_expert(
        o1, o2, state["policy"], skat=skat.SkatEngine.default(state["lexicon"]), name="art"
    )
    service = ArticulationService()
    service.install(articulation, stores={})
    answer = service.infer({"op": "generalizations", "term": probe})
    elapsed = time.perf_counter() - start
    # checks, untimed: the answer against a BFS over the built
    # articulation, the accepted rules against the truth alignment
    expected = sorted(common.SubsumptionOracle(articulation).reach(probe))
    accepted = {str(r.accepted_rule()) for r in audit if r.accepted_rule() is not None}
    truth = state["truth"]
    return {
        "op_s": elapsed,
        "answer_ok": answer.get("terms") == expected,
        "reviewed": len(audit),
        "accepted_true": len(accepted & truth),
        "accepted_false": len(accepted - truth),
        "truth": len(truth),
    }


def ingest_once(work: Path, fact_file: str, probe: str, k: int) -> dict:
    from repro.core.rules import HornClause
    from repro.inference.horn import HornEngine
    from repro.kb import ingest

    db = work / f"ingest{k}.sqlite"
    journal = work / f"ingest{k}.journal"
    buffer_facts = common.INGEST["buffer_facts"]
    start = time.perf_counter()
    ingest.ingest_facts(
        db, ingest.iter_fact_file(fact_file), buffer_facts=buffer_facts, journal_path=journal
    )
    engine = HornEngine(storage="paged", storage_path=str(db), buffer_facts=buffer_facts)
    engine.add_clause(
        HornClause(("implies", "?x", "?z"), (("implies", "?x", "?y"), ("implies", "?y", "?z")))
    )
    engine.saturate()
    answer = engine.query(("implies", probe, "?x"))
    elapsed = time.perf_counter() - start
    result = {
        "op_s": elapsed,
        "answer": sorted(b["?x"] for b in answer),
        "implies": engine.fact_count("implies"),
        "attr": engine.fact_count("attr"),
    }
    engine.store.close()
    for path in (db, journal, Path(f"{db}-wal"), Path(f"{db}-shm")):
        path.unlink(missing_ok=True)
    return result


def main() -> None:
    config = json.loads(sys.argv[1])
    work = Path(config["work"])
    tempfile.tempdir = str(work)  # paged stores' temp files stay in the run's dir
    workload = config["workload"]
    tracer = Tracer()
    if config["trace"]:
        install_program_wrappers(tracer)
        tracer.enabled = workload == "recover"  # recovery happens during set-up
    state: dict = {}
    if workload in ("serve_churn", "recover"):
        state = serve_setup(config)
    elif workload == "articulate":
        state = articulate_setup(config["seed"], common.ARTICULATE["terms"])
    else:
        import repro.inference.horn  # noqa: F401 - importing is this workload's set-up
        import repro.kb.ingest  # noqa: F401
    gc.collect()
    gc.freeze()
    out = sys.stdout
    common.send(out, {"ready": True, "port": state.get("port")})
    for line in sys.stdin:
        command = json.loads(line)
        cmd = command["cmd"]
        if cmd == "exit":
            break
        if cmd == "settle":
            gc.collect()
            gc.freeze()
            reply: dict = {"ok": True}
        elif cmd == "trace":
            if command.get("reset"):
                tracer.reset()
                tracer.page_base = page_counters(tracer)
            tracer.enabled = bool(command["on"])
            reply = {"ok": True}
        elif cmd == "trace_dump":
            base = getattr(tracer, "page_base", {})
            reply = {
                **tracer.snapshot(),
                "spans": len(tracer.spans),
                "dropped": tracer.dropped,
                "pages": {k: v - base.get(k, 0) for k, v in page_counters(tracer).items()},
            }
        elif cmd == "stats":
            reply = state["service"].stats()
        elif cmd == "rss":
            reply = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        elif cmd == "warmup":
            # an untimed pass over the same code paths
            if workload == "articulate":
                small = articulate_setup(config["seed"], 100)
                articulate_once(small, f"src0:{min(small['sources'][0].terms())}")
            else:
                ingest_once(work, config["fact_file"], config["probe"], -1)
            gc.collect()
            gc.freeze()
            reply = {"ok": True}
        elif cmd == "op":
            if workload == "articulate":
                reply = articulate_once(state, config["probe"])
            else:
                reply = ingest_once(work, config["fact_file"], config["probe"], command["k"])
        else:
            reply = {"error": f"unknown command {cmd!r}"}
        common.send(out, reply)
    if "server" in state:
        state["server"].stop()


if __name__ == "__main__":
    main()
