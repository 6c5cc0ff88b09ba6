"""The ``serve`` and ``loadgen`` CLI subcommands: argument parsing
plus a live round trip on an ephemeral port."""

from __future__ import annotations

import http.client
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, build_server, main
from repro.formats import adjacency
from repro.kb.serialize import save_store
from repro.workloads.loadgen import run_load
from repro.workloads.paper_example import (
    carrier_ontology,
    carrier_store,
    factory_ontology,
    factory_store,
)

RULES_TEXT = "carrier:Car => factory:Vehicle\n"


@pytest.fixture
def world(tmp_path: Path) -> dict[str, Path]:
    paths = {}
    for onto in (carrier_ontology(), factory_ontology()):
        path = tmp_path / f"{onto.name}.adj"
        adjacency.dump(onto, path)
        paths[onto.name] = path
    rules = tmp_path / "rules.txt"
    rules.write_text(RULES_TEXT)
    paths["rules"] = rules
    carrier_json = tmp_path / "carrier.json"
    save_store(carrier_store(), carrier_json)
    paths["carrier_kb"] = carrier_json
    return paths


class TestArgParsing:
    def test_serve_defaults(self) -> None:
        args = build_parser().parse_args(["serve", "--workload", "paper"])
        assert args.host == "127.0.0.1"
        assert args.port == 8707
        assert args.sessions == 256
        assert args.cache_size == 512
        assert not hasattr(args, "workers")
        assert args.journal is None
        assert args.pushdown is False

    def test_serve_overrides(self) -> None:
        args = build_parser().parse_args(
            [
                "serve",
                "a.adj",
                "b.adj",
                "--rules",
                "r.txt",
                "--port",
                "0",
                "--journal",
                "j.log",
                "--sessions",
                "16",
                "--cache-size",
                "64",
                "--pushdown",
            ]
        )
        assert args.sources == ["a.adj", "b.adj"]
        assert args.port == 0
        assert args.journal == "j.log"
        assert args.sessions == 16
        assert args.pushdown is True

    def test_serve_rejects_unknown_workload(self, capsys) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workload", "nope"])

    def test_loadgen_defaults(self) -> None:
        args = build_parser().parse_args(["loadgen"])
        assert args.port == 8707
        assert args.clients == 8
        assert args.requests == 40
        assert args.zipf_s == pytest.approx(1.1)
        assert args.churn_batches == 5
        assert args.json is False

    def test_loadgen_overrides(self) -> None:
        args = build_parser().parse_args(
            ["loadgen", "--clients", "2", "--requests", "5", "--json"]
        )
        assert args.clients == 2
        assert args.requests == 5
        assert args.json is True


class TestBuildServer:
    def test_paper_workload_server(self) -> None:
        args = build_parser().parse_args(
            ["serve", "--workload", "paper", "--port", "0"]
        )
        server = build_server(args)
        assert server.service.health()["status"] == "ok"
        server.httpd.server_close()

    def test_sources_and_rules_server(self, world) -> None:
        args = build_parser().parse_args(
            [
                "serve",
                str(world["carrier"]),
                str(world["factory"]),
                "--rules",
                str(world["rules"]),
                "--kb",
                f"carrier={world['carrier_kb']}",
                "--port",
                "0",
            ]
        )
        server = build_server(args)
        try:
            health = server.service.health()
            assert health["status"] == "ok"
            answer = server.service.infer(
                {"op": "generalizations", "term": "carrier:Car"}
            )
            assert "factory:Vehicle" in answer["terms"]
        finally:
            server.httpd.server_close()

    def test_empty_server_awaits_registration(self) -> None:
        args = build_parser().parse_args(["serve", "--port", "0"])
        server = build_server(args)
        assert server.service.health()["status"] == "empty"
        server.httpd.server_close()


class TestLiveRoundTrip:
    def test_serve_then_loadgen_over_http(self) -> None:
        args = build_parser().parse_args(
            ["serve", "--workload", "paper", "--port", "0"]
        )
        server = build_server(args)
        with server:
            report = run_load(
                server.host,
                server.port,
                clients=3,
                requests_per_client=6,
                churn_batches=1,
                churn_mutations=2,
            )
        assert report.errors == 0
        assert report.isolation_violations == 0
        assert report.requests == 3 * 6

    def test_loadgen_exit_codes_and_json(self, capsys) -> None:
        args = build_parser().parse_args(
            ["serve", "--workload", "paper", "--port", "0"]
        )
        server = build_server(args)
        with server:
            rc = main(
                [
                    "loadgen",
                    "--port",
                    str(server.port),
                    "--clients",
                    "2",
                    "--requests",
                    "4",
                    "--churn-batches",
                    "1",
                    "--json",
                ]
            )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["errors"] == 0
        assert report["isolation_violations"] == 0

    def test_loadgen_against_dead_port_fails(self) -> None:
        # grab a port that nothing listens on
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(Exception):
            run_load(
                "127.0.0.1",
                port,
                clients=1,
                requests_per_client=1,
                churn_batches=0,
            )

    def test_health_over_http_from_cli_server(self) -> None:
        args = build_parser().parse_args(
            ["serve", "--workload", "paper", "--port", "0"]
        )
        server = build_server(args)
        with server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            try:
                conn.request("GET", "/health")
                response = conn.getresponse()
                body = json.loads(response.read())
                assert response.status == 200
                assert body["status"] == "ok"
            finally:
                conn.close()
