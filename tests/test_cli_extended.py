"""CLI tests for the repair / discover / cover / pvalidate subcommands."""

import json

import pytest

from repro import paper
from repro.cli import main
from repro.deps.io import ged_from_dict, ged_to_dict
from repro.graph import GraphBuilder
from repro.graph.io import graph_from_json, graph_to_json


@pytest.fixture
def dirty_kb(tmp_path):
    dirty = (
        GraphBuilder()
        .node("fin", "country")
        .node("hel", "city", name="Helsinki")
        .node("spb", "city", name="Saint Petersburg")
        .edge("fin", "capital", "hel")
        .edge("fin", "capital", "spb")
        .build()
    )
    graph_path = tmp_path / "kb.json"
    graph_path.write_text(graph_to_json(dirty))
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps([ged_to_dict(paper.phi2())]))
    return graph_path, rules_path


@pytest.fixture
def regular_kb(tmp_path):
    builder = GraphBuilder()
    for i in range(6):
        builder = (
            builder
            .node(f"p{i}", "person", type="programmer")
            .node(f"g{i}", "product", type="video game")
            .edge(f"p{i}", "create", f"g{i}")
        )
    graph_path = tmp_path / "clean.json"
    graph_path.write_text(graph_to_json(builder.build()))
    return graph_path


class TestRepairCommand:
    def test_repairs_and_writes_output(self, dirty_kb, tmp_path, capsys):
        graph_path, rules_path = dirty_kb
        out_path = tmp_path / "repaired.json"
        code = main(
            [
                "repair",
                "--graph", str(graph_path),
                "--rules", str(rules_path),
                "-o", str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "clean" in out
        repaired = graph_from_json(out_path.read_text())
        code2 = main(
            ["validate", "--graph", str(out_path), "--rules", str(rules_path)]
        )
        assert code2 == 0
        assert repaired.num_nodes >= 2

    def test_forward_only_flag(self, dirty_kb, capsys):
        graph_path, rules_path = dirty_kb
        code = main(
            [
                "repair",
                "--graph", str(graph_path),
                "--rules", str(rules_path),
                "--forward-only",
            ]
        )
        assert code == 0  # value repair suffices here

    def test_budget_zero_leaves_dirty(self, dirty_kb, capsys):
        graph_path, rules_path = dirty_kb
        code = main(
            [
                "repair",
                "--graph", str(graph_path),
                "--rules", str(rules_path),
                "--max-operations", "0",
            ]
        )
        assert code == 1


class TestDiscoverCommand:
    def test_discovers_rules_and_roundtrips(self, regular_kb, tmp_path, capsys):
        out_path = tmp_path / "mined.json"
        code = main(
            [
                "discover",
                "--graph", str(regular_kb),
                "--min-support", "3",
                "-o", str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "discovered" in out
        payload = json.loads(out_path.read_text())
        assert payload
        rules = [ged_from_dict(entry) for entry in payload]
        code2 = main(["validate", "--graph", str(regular_kb), "--rules", str(out_path)])
        assert code2 == 0
        assert rules

    def test_no_rules_exits_1(self, regular_kb, capsys):
        code = main(
            ["discover", "--graph", str(regular_kb), "--min-support", "100"]
        )
        assert code == 1


class TestCoverCommand:
    def test_cover_shrinks_duplicated_rules(self, tmp_path, capsys):
        rules = [ged_to_dict(paper.phi2()), ged_to_dict(paper.phi2())]
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps(rules))
        out_path = tmp_path / "cover.json"
        code = main(["cover", "--rules", str(rules_path), "-o", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 -> 1" in out
        assert len(json.loads(out_path.read_text())) == 1


class TestPvalidateCommand:
    def test_dirty_graph_exits_1(self, dirty_kb, capsys):
        graph_path, rules_path = dirty_kb
        code = main(
            [
                "pvalidate",
                "--graph", str(graph_path),
                "--rules", str(rules_path),
                "--workers", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "violation" in out and "balance" in out

    def test_matches_serial_validate(self, dirty_kb):
        graph_path, rules_path = dirty_kb
        serial = main(["validate", "--graph", str(graph_path), "--rules", str(rules_path)])
        parallel = main(
            [
                "pvalidate",
                "--graph", str(graph_path),
                "--rules", str(rules_path),
                "--workers", "4",
                "--backend", "engine",
            ]
        )
        assert serial == parallel == 1

    @pytest.mark.parametrize("backend", ["thread", "process", "fragment"])
    def test_removed_backend_is_a_usage_error(self, dirty_kb, backend, capsys):
        graph_path, rules_path = dirty_kb
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "pvalidate",
                    "--graph", str(graph_path),
                    "--rules", str(rules_path),
                    "--backend", backend,
                ]
            )
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "(choose from serial, engine)" in err


class TestRemovedOptions:
    """Options and subcommands the CLI does not define exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            [command, *required, *option]
            for command, required in (
                ("serve", ["--log", "updates.jsonl", "--rules", "rules.json"]),
                ("stream", ["--log", "updates.jsonl", "--rules", "rules.json"]),
            )
            for option in (
                ["--backend", "serial"],
                ["--workers", "2"],
                ["--fragment-mode", "hash"],
            )
        ]
        + [["partition", "--graph", "kb.json"]],
        ids=lambda argv: " ".join(argv[:1] + argv[5:]),
    )
    def test_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice: 'partition'" in err
