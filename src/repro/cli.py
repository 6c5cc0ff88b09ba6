"""The ``onion`` command-line interface.

The GUI-less face of the ONION toolkit: convert ontology
representations, inspect and validate them, ask SKAT for bridge
suggestions, generate articulations from rule files, run the algebra,
and query knowledge bases across sources.

Examples::

    onion convert carrier.adj carrier.xml
    onion render carrier.adj
    onion validate carrier.adj factory.adj
    onion suggest carrier.adj factory.adj --min-score 0.8
    onion articulate carrier.adj factory.adj --rules rules.txt \\
          --name transport --dot articulation.dot
    onion algebra difference carrier.adj factory.adj --rules rules.txt
    onion query "SELECT price FROM transport:Vehicle" \\
          carrier.adj factory.adj --rules rules.txt \\
          --kb carrier=carrier.json --kb factory=factory.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.algebra import difference, intersection, union
from repro.core.articulation import Articulation, ArticulationGenerator
from repro.core.ontology import Ontology
from repro.core.rules import ArticulationRuleSet, parse_rules
from repro.errors import OnionError
from repro.formats import adjacency, dot, idl, rdf, xmlfmt
from repro.kb.backends import BACKENDS, SQLiteBackend
from repro.kb.serialize import load_store
from repro.lexicon.skat import SkatEngine
from repro.lexicon.wordnet import MiniWordNet
from repro.query.engine import QueryEngine
from repro.query.mediator import generate_mediator
from repro.query.planner import Planner
from repro.viewer.render import render_articulation, render_ontology

__all__ = ["main", "build_parser"]

_LOADERS = {
    ".adj": adjacency.load,
    ".txt": adjacency.load,
    ".xml": xmlfmt.load,
    ".idl": idl.load,
    ".nt": rdf.load,
    ".rdf": rdf.load,
}
_DUMPERS = {
    ".adj": adjacency.dumps,
    ".txt": adjacency.dumps,
    ".xml": xmlfmt.dumps,
    ".idl": idl.dumps,
    ".nt": rdf.dumps,
    ".rdf": rdf.dumps,
    ".dot": None,  # handled specially (needs the dot module)
}


def load_ontology(path: str) -> Ontology:
    """Load an ontology, picking the format from the file extension."""
    suffix = Path(path).suffix.lower()
    loader = _LOADERS.get(suffix)
    if loader is None:
        raise OnionError(
            f"cannot infer format from {path!r}; known extensions: "
            f"{sorted(_LOADERS)}"
        )
    return loader(path)


def dump_ontology(ontology: Ontology, path: str) -> None:
    suffix = Path(path).suffix.lower()
    if suffix == ".dot":
        Path(path).write_text(dot.ontology_to_dot(ontology))
        return
    dumper = _DUMPERS.get(suffix)
    if dumper is None:
        raise OnionError(
            f"cannot infer format from {path!r}; known extensions: "
            f"{sorted(_DUMPERS)}"
        )
    Path(path).write_text(dumper(ontology))


def _load_rules(path: str | None) -> ArticulationRuleSet:
    if path is None:
        return ArticulationRuleSet()
    return parse_rules(Path(path).read_text())


def _articulate(
    sources: list[Ontology], rules_path: str | None, name: str
) -> Articulation:
    generator = ArticulationGenerator(sources, name=name)
    return generator.generate(_load_rules(rules_path))


# ----------------------------------------------------------------------
# subcommand implementations (each returns a process exit code)
# ----------------------------------------------------------------------
def cmd_convert(args: argparse.Namespace) -> int:
    ontology = load_ontology(args.input)
    dump_ontology(ontology, args.output)
    print(f"wrote {args.output} ({ontology.term_count()} terms, "
          f"{ontology.graph.edge_count()} relationships)")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    print(render_ontology(load_ontology(args.ontology)))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    failures = 0
    for path in args.ontologies:
        ontology = load_ontology(path)
        issues = ontology.validate()
        status = "OK" if not issues else f"{len(issues)} issue(s)"
        print(f"{path}: {status}")
        for issue in issues:
            print(f"  - {issue}")
        failures += bool(issues)
    return 1 if failures else 0


def cmd_suggest(args: argparse.Namespace) -> int:
    left = load_ontology(args.left)
    right = load_ontology(args.right)
    lexicon = (
        MiniWordNet.load(args.lexicon) if args.lexicon else None
    )
    skat = SkatEngine.default(lexicon)
    candidates = skat.propose(left, right)
    shown = 0
    for candidate in candidates:
        if candidate.score < args.min_score:
            continue
        shown += 1
        print(f"[{candidate.score:4.2f} {candidate.matcher:10s}] "
              f"{candidate.rule}")
        if args.why:
            print(f"       {candidate.reason}")
    print(f"{shown} suggestion(s) at or above score {args.min_score}")
    return 0


def cmd_articulate(args: argparse.Namespace) -> int:
    sources = [load_ontology(path) for path in args.sources]
    articulation = _articulate(sources, args.rules, args.name)
    print(render_articulation(articulation))
    if args.dot:
        Path(args.dot).write_text(dot.articulation_to_dot(articulation))
        print(f"\nwrote {args.dot}")
    return 0


def cmd_algebra(args: argparse.Namespace) -> int:
    left = load_ontology(args.left)
    right = load_ontology(args.right)
    rules = _load_rules(args.rules)
    if args.operation == "union":
        unified = union(left, right, rules, name=args.name)
        graph = unified.graph()
        print(f"union (virtual): {graph.node_count()} nodes, "
              f"{graph.edge_count()} edges")
        for edge in sorted(
            graph.edges(), key=lambda e: (e.source, e.label, e.target)
        ):
            print(f"  {edge.source} -{edge.label}-> {edge.target}")
    elif args.operation == "intersection":
        result = intersection(left, right, rules, name=args.name)
        print(render_ontology(result))
    else:  # difference
        result = difference(
            left,
            right,
            rules,
            articulation_name=args.name,
            strategy=args.strategy,
        )
        print(render_ontology(result))
    return 0


def cmd_mediator(args: argparse.Namespace) -> int:
    sources = [load_ontology(path) for path in args.sources]
    articulation = _articulate(sources, args.rules, args.name)
    spec = generate_mediator(articulation)
    text = spec.to_odl()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(spec.classes)} interface(s))")
    else:
        print(text, end="")
    return 0


def _parse_kb_specs(
    args: argparse.Namespace, articulation: Articulation
) -> list[tuple[str, str]]:
    """Validate ``--kb``/``--db`` arguments; returns (source, path)
    pairs without touching any instance data."""
    if args.db and args.backend != "sqlite":
        raise OnionError("--db only applies to --backend sqlite")
    specs = []
    for spec in args.kb:
        if "=" not in spec:
            raise OnionError(
                f"--kb needs the form source=instances.json, got {spec!r}"
            )
        source_name, kb_path = spec.split("=", 1)
        if source_name not in articulation.sources:
            raise OnionError(f"--kb names unknown source {source_name!r}")
        specs.append((source_name, kb_path))
    return specs


def _load_stores(args: argparse.Namespace, articulation: Articulation):
    """Load ``--kb source=file.json`` stores, migrating them onto the
    selected storage backend (``--backend sqlite`` persists under
    ``--db DIR``, one database per source, or in-memory SQLite)."""
    stores = {}
    for source_name, kb_path in _parse_kb_specs(args, articulation):
        store = load_store(kb_path, articulation.sources[source_name])
        if args.backend == "sqlite":
            if args.db:
                db_dir = Path(args.db)
                try:
                    db_dir.mkdir(parents=True, exist_ok=True)
                except (FileExistsError, NotADirectoryError):
                    raise OnionError(
                        f"--db must name a directory, and {args.db!r} "
                        "is an existing file"
                    ) from None
                backend = SQLiteBackend(db_dir / f"{source_name}.sqlite")
            else:
                backend = SQLiteBackend()
            # The --kb JSON is the source of truth: a reused database
            # must not keep rows the JSON no longer contains.
            backend.clear()
            store = store.clone(backend)
        stores[source_name] = store
    return stores


def cmd_query(args: argparse.Namespace) -> int:
    sources = [load_ontology(path) for path in args.sources]
    articulation = _articulate(sources, args.rules, args.name)
    stores = _load_stores(args, articulation)
    engine = QueryEngine(articulation, stores, pushdown=args.pushdown)
    plan = engine.plan(args.query)
    if args.explain:
        print(plan.describe())
        print()
    rows = engine.run(plan)
    for row in rows:
        values = ", ".join(
            f"{key}={value!r}" for key, value in sorted(row.values.items())
        )
        print(f"{row.source}:{row.instance_id} [{row.cls}] {values}")
    print(f"({len(rows)} row(s))")
    return 0


def build_server(args: argparse.Namespace):
    """Build the articulation server an ``onion serve`` invocation
    describes, without starting it (tests bind ephemeral ports)."""
    from repro.serving import (
        ArticulationServer,
        ArticulationService,
        load_paper_workload,
    )

    service = ArticulationService(
        pushdown=args.pushdown,
        result_cache_size=args.cache_size,
        session_limit=args.sessions,
        journal_path=args.journal,
        storage=args.storage,
        storage_path=args.storage_db,
        buffer_facts=args.buffer_facts,
    )
    if args.workload == "paper":
        backend_factory = None
        if args.backend == "sqlite":
            if args.db:
                db_dir = Path(args.db)
                db_dir.mkdir(parents=True, exist_ok=True)
                backend_factory = lambda name: SQLiteBackend(  # noqa: E731
                    db_dir / f"{name}.sqlite"
                )
            else:
                backend_factory = lambda name: SQLiteBackend()  # noqa: E731
        load_paper_workload(service, backend_factory=backend_factory)
    elif args.sources:
        if len(args.sources) < 2:
            raise OnionError(
                "serve needs at least two source ontologies (or "
                "--workload paper)"
            )
        sources = [load_ontology(path) for path in args.sources]
        articulation = _articulate(sources, args.rules, args.name)
        stores = _load_stores(args, articulation)
        service.install(articulation, stores=stores)
    # with neither sources nor a workload the server starts empty:
    # ontologies arrive over POST /ontologies + /articulate (or a
    # journal recovery already primed the engine)
    return ArticulationServer(service, host=args.host, port=args.port)


def cmd_serve(args: argparse.Namespace) -> int:
    server = build_server(args)
    print(f"serving on {server.address}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from repro.kb.ingest import ingest_facts, iter_fact_file
    from repro.kb.pagestore import DEFAULT_BUFFER_FACTS

    report = ingest_facts(
        args.db,
        iter_fact_file(args.facts, fmt=args.fmt),
        batch_size=args.batch_size,
        buffer_facts=(
            args.buffer_facts
            if args.buffer_facts is not None
            else DEFAULT_BUFFER_FACTS
        ),
        journal_path=args.journal,
    )
    print(
        f"ingested {report['added']} fact(s) into {report['db']} "
        f"({report['staged']} staged, {report['deduplicated']} duplicate(s), "
        f"{report['batches']} batch(es), {report['elapsed_ms']:.0f}ms)"
    )
    if report["journaled"]:
        print(f"journaled snapshot of {report['journaled']} fact(s)")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import json as _json

    from repro.workloads.loadgen import run_load

    report = run_load(
        args.host,
        args.port,
        clients=args.clients,
        requests_per_client=args.requests,
        seed=args.seed,
        zipf_s=args.zipf_s,
        churn_batches=args.churn_batches,
        churn_mutations=args.churn_mutations,
    )
    payload = report.to_dict()
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"{payload['requests']} requests from {payload['clients']} "
            f"clients in {payload['duration_s']}s "
            f"({payload['throughput_rps']} req/s)"
        )
        print(
            f"latency p50 {payload['p50_ms']}ms  p99 {payload['p99_ms']}ms"
            f"  errors {payload['errors']}"
        )
        print(
            f"churn batches {payload['churn_batches']}  cache hit rate "
            f"{payload['cache'].get('hit_rate', 0):.2f}  isolation "
            f"violations {payload['isolation_violations']}"
        )
    return 1 if report.errors or report.isolation_violations else 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Print the physical plan without executing it — and without
    loading or migrating any instance data.  With ``--kb`` the plan is
    restricted to (and annotated for) the named sources; without,
    every bridged source is planned."""
    from repro.query.parser import parse_query

    sources = [load_ontology(path) for path in args.sources]
    articulation = _articulate(sources, args.rules, args.name)
    names = [name for name, _ in _parse_kb_specs(args, articulation)]
    planner = Planner(articulation, pushdown=args.pushdown)
    plan = planner.plan(
        parse_query(args.query),
        available=frozenset(names) if names else None,
    )
    print(plan.describe())
    for name in sorted(names):
        print(f"backend {name}: {args.backend}")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onion",
        description="ONION: articulation of ontology interdependencies "
        "(EDBT 2000 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser(
        "convert", help="convert between ontology representations"
    )
    convert.add_argument("input")
    convert.add_argument("output")
    convert.set_defaults(fn=cmd_convert)

    render = sub.add_parser("render", help="print an ontology summary")
    render.add_argument("ontology")
    render.set_defaults(fn=cmd_render)

    validate = sub.add_parser(
        "validate", help="check ontology invariants; exit 1 on issues"
    )
    validate.add_argument("ontologies", nargs="+")
    validate.set_defaults(fn=cmd_validate)

    suggest = sub.add_parser(
        "suggest", help="SKAT bridge suggestions between two ontologies"
    )
    suggest.add_argument("left")
    suggest.add_argument("right")
    suggest.add_argument("--lexicon", help="MiniWordNet JSON file")
    suggest.add_argument(
        "--min-score", type=float, default=0.0, dest="min_score"
    )
    suggest.add_argument(
        "--why", action="store_true", help="show each suggestion's reason"
    )
    suggest.set_defaults(fn=cmd_suggest)

    articulate = sub.add_parser(
        "articulate", help="generate an articulation from a rule file"
    )
    articulate.add_argument("sources", nargs="+")
    articulate.add_argument("--rules", help="rule file (one rule per line)")
    articulate.add_argument("--name", default="articulation")
    articulate.add_argument("--dot", help="also write a Graphviz rendering")
    articulate.set_defaults(fn=cmd_articulate)

    algebra = sub.add_parser(
        "algebra", help="run a binary algebra operator on two ontologies"
    )
    algebra.add_argument(
        "operation", choices=["union", "intersection", "difference"]
    )
    algebra.add_argument("left")
    algebra.add_argument("right")
    algebra.add_argument("--rules", help="rule file")
    algebra.add_argument("--name", default="articulation")
    algebra.add_argument(
        "--strategy",
        choices=["conservative", "formal"],
        default="conservative",
        help="difference semantics (see DESIGN.md)",
    )
    algebra.set_defaults(fn=cmd_algebra)

    mediator = sub.add_parser(
        "mediator",
        help="derive an ODMG/ODL mediator spec from an articulation",
    )
    mediator.add_argument("sources", nargs="+")
    mediator.add_argument("--rules", help="rule file")
    mediator.add_argument("--name", default="articulation")
    mediator.add_argument("--out", help="write ODL here instead of stdout")
    mediator.set_defaults(fn=cmd_mediator)

    def add_query_args(command: argparse.ArgumentParser) -> None:
        command.add_argument("query")
        command.add_argument("sources", nargs="+")
        command.add_argument("--rules", help="rule file")
        command.add_argument("--name", default="articulation")
        command.add_argument(
            "--kb",
            action="append",
            default=[],
            metavar="SOURCE=FILE.json",
            help="instance data for one source (repeatable)",
        )
        command.add_argument(
            "--backend",
            choices=sorted(BACKENDS),
            default="memory",
            help="storage backend the instance data is loaded into",
        )
        command.add_argument(
            "--db",
            help="directory for sqlite databases (one per source); "
            "default is in-memory sqlite",
        )
        command.add_argument(
            "--pushdown",
            action="store_true",
            help="translate WHERE predicates into each source's metric "
            "and evaluate them at the store (SQL for sqlite)",
        )

    query = sub.add_parser(
        "query", help="run a query across articulated sources"
    )
    add_query_args(query)
    query.add_argument(
        "--explain", action="store_true", help="print the execution plan"
    )
    query.set_defaults(fn=cmd_query)

    explain = sub.add_parser(
        "explain",
        help="print the physical plan for a query without running it",
    )
    add_query_args(explain)
    explain.set_defaults(fn=cmd_explain)

    serve = sub.add_parser(
        "serve",
        help="run the articulation server over HTTP",
    )
    serve.add_argument("sources", nargs="*", help="source ontology files")
    serve.add_argument("--rules", help="rule file")
    serve.add_argument("--name", default="articulation")
    serve.add_argument(
        "--kb",
        action="append",
        default=[],
        metavar="SOURCE=FILE.json",
        help="instance data for one source (repeatable)",
    )
    serve.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="memory",
        help="storage backend the instance data is loaded into",
    )
    serve.add_argument(
        "--db",
        help="directory for sqlite databases (one per source)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8707, help="0 binds an ephemeral port"
    )
    serve.add_argument(
        "--workload",
        choices=["paper"],
        help="serve a built-in workload instead of source files",
    )
    serve.add_argument(
        "--journal",
        help="write-ahead churn journal path (enables crash recovery)",
    )
    serve.add_argument(
        "--sessions", type=int, default=256, help="live session limit"
    )
    serve.add_argument(
        "--cache-size", type=int, default=512, help="query-result LRU size"
    )
    serve.add_argument(
        "--storage",
        choices=["memory", "paged"],
        default="memory",
        help="closure fact storage: in-memory dicts or a disk-backed "
        "paged store (bounded memory at any closure size)",
    )
    serve.add_argument(
        "--storage-db",
        dest="storage_db",
        help="paged-store database file (e.g. one produced by "
        "'onion ingest'); default is a private temp file",
    )
    serve.add_argument(
        "--buffer-facts",
        dest="buffer_facts",
        type=int,
        help="paged-store buffer-pool capacity, in facts",
    )
    serve.add_argument(
        "--pushdown",
        action="store_true",
        help="translate WHERE predicates into each source's metric",
    )
    serve.set_defaults(fn=cmd_serve, workload=None)

    ingest = sub.add_parser(
        "ingest",
        help="bulk-load a fact file into a paged-store database",
    )
    ingest.add_argument(
        "facts", help="fact file: JSON-lines arrays or TSV, one atom/line"
    )
    ingest.add_argument(
        "--db", required=True, help="paged-store database file to load into"
    )
    ingest.add_argument(
        "--format",
        choices=["auto", "jsonl", "tsv"],
        default="auto",
        dest="fmt",
        help="fact-file format (default: sniff the first line)",
    )
    ingest.add_argument(
        "--batch-size",
        dest="batch_size",
        type=int,
        default=20000,
        help="facts per executemany staging batch",
    )
    ingest.add_argument(
        "--buffer-facts",
        dest="buffer_facts",
        type=int,
        help="buffer-pool capacity for the load, in facts",
    )
    ingest.add_argument(
        "--journal",
        help="also write the loaded base as one ChurnJournal snapshot "
        "(makes the ingested state the crash-recovery baseline)",
    )
    ingest.set_defaults(fn=cmd_ingest)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a running articulation server with concurrent load",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8707)
    loadgen.add_argument(
        "--clients", type=int, default=8, help="concurrent client threads"
    )
    loadgen.add_argument(
        "--requests", type=int, default=40, help="requests per client"
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--zipf-s", type=float, default=1.1, help="Zipf skew exponent"
    )
    loadgen.add_argument("--churn-batches", type=int, default=5)
    loadgen.add_argument("--churn-mutations", type=int, default=3)
    loadgen.add_argument(
        "--json", action="store_true", help="print the full JSON report"
    )
    loadgen.set_defaults(fn=cmd_loadgen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OnionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
