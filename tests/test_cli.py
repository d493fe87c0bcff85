"""CLI tests: round trips through files and exit codes."""

import json

import pytest

from repro import paper
from repro.cli import main
from repro.deps.io import ged_to_dict
from repro.graph.io import graph_from_json, graph_to_json
from repro.graph import GraphBuilder


@pytest.fixture
def kb_files(tmp_path):
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


class TestValidate:
    def test_dirty_graph_exits_1(self, kb_files, capsys):
        graph_path, rules_path = kb_files
        code = main(["validate", "--graph", str(graph_path), "--rules", str(rules_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "violation" in out and "phi2" in out

    def test_clean_graph_exits_0(self, tmp_path, capsys):
        clean = GraphBuilder().node("fin", "country").build()
        graph_path = tmp_path / "clean.json"
        graph_path.write_text(graph_to_json(clean))
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps([ged_to_dict(paper.phi2())]))
        code = main(["validate", "--graph", str(graph_path), "--rules", str(rules_path)])
        assert code == 0
        assert "0 violation" in capsys.readouterr().out

    def test_limit_flag(self, kb_files, capsys):
        graph_path, rules_path = kb_files
        main(["validate", "--graph", str(graph_path), "--rules", str(rules_path),
              "--limit", "1"])
        assert "1 violation" in capsys.readouterr().out

    def test_non_positive_limit_is_a_usage_error(self, kb_files, capsys):
        graph_path, rules_path = kb_files
        code = main(["validate", "--graph", str(graph_path), "--rules", str(rules_path),
                     "--limit", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "violation(s)" not in captured.out
        assert "limit must be >= 1" in captured.err


class TestSatisfiable:
    def test_satisfiable_rules(self, tmp_path, capsys):
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps([ged_to_dict(paper.phi2())]))
        assert main(["satisfiable", "--rules", str(rules_path)]) == 0
        assert "satisfiable" in capsys.readouterr().out

    def test_unsatisfiable_rules(self, tmp_path, capsys):
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(
            json.dumps([ged_to_dict(g) for g in paper.example5_sigma1()])
        )
        assert main(["satisfiable", "--rules", str(rules_path)]) == 1
        assert "unsatisfiable" in capsys.readouterr().out


class TestImplies:
    def test_implied(self, tmp_path, capsys):
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps([ged_to_dict(g) for g in paper.example7_sigma()]))
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps(ged_to_dict(paper.example7_phi())))
        assert main(["implies", "--rules", str(rules_path), "--phi", str(phi_path)]) == 0
        assert "implied" in capsys.readouterr().out

    def test_not_implied(self, tmp_path, capsys):
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps([ged_to_dict(paper.example7_sigma()[0])]))
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps(ged_to_dict(paper.example7_phi())))
        assert main(["implies", "--rules", str(rules_path), "--phi", str(phi_path)]) == 1
        assert "not implied" in capsys.readouterr().out


class TestChase:
    def test_chase_writes_coercion(self, tmp_path, capsys):
        dup = (
            GraphBuilder()
            .node("c1", "city", name="Helsinki")
            .node("c2", "city", name="Helsinki")
            .build()
        )
        graph_path = tmp_path / "g.json"
        graph_path.write_text(graph_to_json(dup))
        from repro.deps import make_gkey
        from repro.patterns import Pattern

        key = make_gkey(Pattern({"x": "city"}), "x", value_attrs={"x": ["name"]})
        rules_path = tmp_path / "keys.json"
        rules_path.write_text(json.dumps([ged_to_dict(key)]))
        out_path = tmp_path / "out.json"
        code = main(["chase", "--graph", str(graph_path), "--rules", str(rules_path),
                     "-o", str(out_path)])
        assert code == 0
        merged = graph_from_json(out_path.read_text())
        assert merged.num_nodes == 1

    def test_inconsistent_chase_exits_1(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        graph_path.write_text(graph_to_json(paper.example4_graph()))
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(
            json.dumps([ged_to_dict(paper.example4_phi1()),
                        ged_to_dict(paper.example4_phi2())])
        )
        assert main(["chase", "--graph", str(graph_path), "--rules", str(rules_path)]) == 1
        assert "inconsistent" in capsys.readouterr().out


class TestErrors:
    def test_missing_file_exits_2(self, capsys):
        code = main(["satisfiable", "--rules", "/does/not/exist.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["satisfiable", "--rules", str(bad)]) == 2
