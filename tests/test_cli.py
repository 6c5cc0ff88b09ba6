"""Integration tests for the ``onion`` CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import load_ontology, main
from repro.formats import adjacency
from repro.kb.serialize import save_store, store_to_dict
from repro.workloads.paper_example import (
    carrier_ontology,
    carrier_store,
    factory_ontology,
    factory_store,
)

RULES_TEXT = """
carrier:Car => factory:Vehicle
carrier:Car => transport:PassengerCar => factory:Vehicle
transport:Owner => transport:Person
(factory:CargoCarrier ^ factory:Vehicle) => carrier:Trucks AS CargoCarrierVehicle
factory:Vehicle => (carrier:Cars | carrier:Trucks)
PSToEuroFn(x / 0.7111 ; x * 0.7111 ; EuroToPSFn) : carrier:PoundSterling => transport:Euro
DGToEuroFn(x / 2.20371 ; x * 2.20371 ; EuroToDGFn) : factory:DutchGuilders => transport:Euro
"""


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
    factory_json = tmp_path / "factory.json"
    save_store(factory_store(), factory_json)
    paths["factory_kb"] = factory_json
    return paths


class TestConvert:
    @pytest.mark.parametrize("suffix", [".xml", ".nt", ".adj"])
    def test_round_trip_via_format(
        self, world, tmp_path: Path, suffix: str, capsys
    ) -> None:
        out = tmp_path / f"out{suffix}"
        code = main(["convert", str(world["carrier"]), str(out)])
        assert code == 0
        rebuilt = load_ontology(str(out))
        assert rebuilt.term_count() == carrier_ontology().term_count()
        assert "wrote" in capsys.readouterr().out

    def test_convert_to_dot(self, world, tmp_path: Path) -> None:
        out = tmp_path / "out.dot"
        assert main(["convert", str(world["carrier"]), str(out)]) == 0
        assert out.read_text().startswith("digraph")

    def test_unknown_extension_fails(self, world, tmp_path: Path, capsys) -> None:
        code = main(
            ["convert", str(world["carrier"]), str(tmp_path / "x.bogus")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path: Path, capsys) -> None:
        code = main(["convert", str(tmp_path / "nope.adj"), "out.xml"])
        assert code == 2


class TestRenderValidate:
    def test_render(self, world, capsys) -> None:
        assert main(["render", str(world["carrier"])]) == 0
        out = capsys.readouterr().out
        assert "ontology carrier" in out
        assert "+- Transportation" in out

    def test_validate_ok(self, world, capsys) -> None:
        assert (
            main(
                ["validate", str(world["carrier"]), str(world["factory"])]
            )
            == 0
        )
        assert "OK" in capsys.readouterr().out

    def test_validate_catches_cycle(self, tmp_path: Path, capsys) -> None:
        bad = tmp_path / "bad.adj"
        bad.write_text("ontology bad\nA -S-> B\nB -S-> A\n")
        assert main(["validate", str(bad)]) == 1
        assert "cycle" in capsys.readouterr().out


class TestSuggest:
    def test_suggestions_printed(self, world, capsys) -> None:
        code = main(
            [
                "suggest",
                str(world["carrier"]),
                str(world["factory"]),
                "--min-score",
                "0.9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Transportation and Price share labels across the sources.
        assert "carrier:Transportation => factory:Transportation" in out

    def test_why_flag(self, world, capsys) -> None:
        main(
            ["suggest", str(world["carrier"]), str(world["factory"]),
             "--min-score", "0.9", "--why"]
        )
        assert "normalize identically" in capsys.readouterr().out


class TestArticulate:
    def test_articulate_prints_bridges(self, world, capsys) -> None:
        code = main(
            [
                "articulate",
                str(world["carrier"]),
                str(world["factory"]),
                "--rules",
                str(world["rules"]),
                "--name",
                "transport",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bridges (17):" in out
        assert "carrier:Car -SIBridge-> transport:Vehicle" in out

    def test_articulate_writes_dot(self, world, tmp_path: Path, capsys) -> None:
        dot_path = tmp_path / "art.dot"
        main(
            [
                "articulate",
                str(world["carrier"]),
                str(world["factory"]),
                "--rules",
                str(world["rules"]),
                "--name",
                "transport",
                "--dot",
                str(dot_path),
            ]
        )
        assert "cluster" in dot_path.read_text()

    def test_bad_rule_file(self, world, tmp_path: Path, capsys) -> None:
        bad = tmp_path / "bad_rules.txt"
        bad.write_text("this is not a rule\n")
        code = main(
            [
                "articulate",
                str(world["carrier"]),
                str(world["factory"]),
                "--rules",
                str(bad),
            ]
        )
        assert code == 2


class TestAlgebra:
    def test_intersection(self, world, capsys) -> None:
        code = main(
            [
                "algebra",
                "intersection",
                str(world["carrier"]),
                str(world["factory"]),
                "--rules",
                str(world["rules"]),
                "--name",
                "transport",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CargoCarrierVehicle" in out

    def test_difference_strategies_differ(self, world, capsys) -> None:
        main(
            ["algebra", "difference", str(world["carrier"]),
             str(world["factory"]), "--rules", str(world["rules"]),
             "--name", "transport"]
        )
        conservative = capsys.readouterr().out
        main(
            ["algebra", "difference", str(world["carrier"]),
             str(world["factory"]), "--rules", str(world["rules"]),
             "--name", "transport", "--strategy", "formal"]
        )
        formal = capsys.readouterr().out
        assert "Driver" not in conservative
        assert "Driver" in formal

    def test_union_lists_edges(self, world, capsys) -> None:
        code = main(
            ["algebra", "union", str(world["carrier"]),
             str(world["factory"]), "--rules", str(world["rules"]),
             "--name", "transport"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "union (virtual): 30 nodes, 42 edges" in out


class TestQuery:
    def run_query(self, world, text: str, *extra: str):
        return main(
            [
                "query",
                text,
                str(world["carrier"]),
                str(world["factory"]),
                "--rules",
                str(world["rules"]),
                "--name",
                "transport",
                "--kb",
                f"carrier={world['carrier_kb']}",
                "--kb",
                f"factory={world['factory_kb']}",
                *extra,
            ]
        )

    def test_cross_source_query(self, world, capsys) -> None:
        code = self.run_query(
            world, "SELECT price FROM transport:Vehicle WHERE price < 10000"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "factory:LineTruck2" in out
        assert "(2 row(s))" in out

    def test_explain_flag(self, world, capsys) -> None:
        self.run_query(
            world, "SELECT price FROM transport:Vehicle", "--explain"
        )
        out = capsys.readouterr().out
        assert "scan carrier" in out
        assert "PSToEuroFn" in out

    def test_aggregate_query(self, world, capsys) -> None:
        self.run_query(world, "SELECT COUNT(*) FROM transport:Vehicle")
        out = capsys.readouterr().out
        assert "count(*)" in out
        assert "(1 row(s))" in out

    def test_unknown_kb_source(self, world, capsys) -> None:
        code = self.run_query(
            world,
            "SELECT * FROM transport:Vehicle",
            "--kb",
            "nowhere=missing.json",
        )
        assert code == 2

    def test_sqlite_backend_matches_memory(self, world, capsys) -> None:
        question = "SELECT price FROM transport:Vehicle WHERE price < 10000"
        assert self.run_query(world, question) == 0
        memory_out = capsys.readouterr().out
        assert (
            self.run_query(world, question, "--backend", "sqlite")
            == 0
        )
        assert capsys.readouterr().out == memory_out

    def test_sqlite_backend_persists_to_db_dir(
        self, world, tmp_path, capsys
    ) -> None:
        db_dir = tmp_path / "dbs"
        code = self.run_query(
            world,
            "SELECT price FROM transport:Vehicle",
            "--backend",
            "sqlite",
            "--db",
            str(db_dir),
        )
        assert code == 0
        assert sorted(p.name for p in db_dir.iterdir()) == [
            "carrier.sqlite",
            "factory.sqlite",
        ]

    def test_reused_db_dir_drops_rows_removed_from_kb(
        self, world, tmp_path, capsys
    ) -> None:
        """The --kb JSON is the source of truth: reloading into an
        existing database must not resurrect deleted instances."""
        question = "SELECT COUNT(*) FROM transport:Vehicle"
        args = ("--backend", "sqlite", "--db", str(tmp_path / "dbs"))
        self.run_query(world, question, *args)
        first = capsys.readouterr().out
        payload = json.loads(world["factory_kb"].read_text())
        payload["instances"] = payload["instances"][:-1]
        world["factory_kb"].write_text(json.dumps(payload))
        self.run_query(world, question, *args)
        second = capsys.readouterr().out
        assert first != second

    def test_db_without_sqlite_backend_rejected(
        self, world, tmp_path, capsys
    ) -> None:
        code = self.run_query(
            world,
            "SELECT * FROM transport:Vehicle",
            "--db",
            str(tmp_path / "dbs"),
        )
        assert code == 2
        assert "--db only applies" in capsys.readouterr().err


class TestExplain:
    def run_explain(self, world, *extra: str):
        return main(
            [
                "explain",
                "SELECT price FROM transport:Vehicle WHERE price < 10000",
                str(world["carrier"]),
                str(world["factory"]),
                "--rules",
                str(world["rules"]),
                "--name",
                "transport",
                *extra,
            ]
        )

    def test_explain_without_stores_plans_all_sources(
        self, world, capsys
    ) -> None:
        assert self.run_explain(world) == 0
        out = capsys.readouterr().out
        assert "scan carrier" in out
        assert "scan factory" in out
        assert "finalize" in out

    def test_explain_shows_pushdown_into_sqlite(
        self, world, capsys
    ) -> None:
        code = self.run_explain(
            world,
            "--kb",
            f"carrier={world['carrier_kb']}",
            "--kb",
            f"factory={world['factory_kb']}",
            "--backend",
            "sqlite",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "push price <" in out
        assert "project ['price']" in out
        assert "backend carrier: sqlite" in out


class TestKbSerialization:
    def test_round_trip(self, tmp_path: Path) -> None:
        from repro.kb.serialize import load_store

        store = carrier_store()
        path = tmp_path / "kb.json"
        save_store(store, path)
        loaded = load_store(path, carrier_ontology())
        assert store_to_dict(loaded) == store_to_dict(store)

    def test_wrong_ontology_rejected(self, tmp_path: Path) -> None:
        from repro.errors import FormatError
        from repro.kb.serialize import load_store

        path = tmp_path / "kb.json"
        save_store(carrier_store(), path)
        with pytest.raises(FormatError):
            load_store(path, factory_ontology())

    def test_malformed_json_rejected(self, tmp_path: Path) -> None:
        from repro.errors import FormatError
        from repro.kb.serialize import load_store

        path = tmp_path / "kb.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_store(path, carrier_ontology())

    def test_missing_fields_rejected(self, tmp_path: Path) -> None:
        from repro.errors import FormatError
        from repro.kb.serialize import store_from_dict

        with pytest.raises(FormatError):
            store_from_dict(
                {"instances": [{"id": "x"}]}, carrier_ontology()
            )


class TestMediator:
    def test_mediator_to_stdout(self, world, capsys) -> None:
        code = main(
            [
                "mediator",
                str(world["carrier"]),
                str(world["factory"]),
                "--rules",
                str(world["rules"]),
                "--name",
                "transport",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "module transport {" in out
        assert "interface Vehicle" in out
        assert "// Vehicle <- carrier: Car" in out

    def test_mediator_to_file(self, world, tmp_path: Path, capsys) -> None:
        out_path = tmp_path / "mediator.odl"
        code = main(
            [
                "mediator",
                str(world["carrier"]),
                str(world["factory"]),
                "--rules",
                str(world["rules"]),
                "--name",
                "transport",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert "interface CargoCarrierVehicle" in out_path.read_text()
