"""The `engine` CLI subcommand: snapshot and pool figures, the costed
work queue, and cold-then-warm validation on one pool."""

import json
import re

import pytest

from repro.cli import main
from repro.deps import GED, ConstantLiteral
from repro.deps.io import ged_to_dict
from repro.engine import plan_tasks
from repro.graph.io import graph_to_json
from repro.indexing import attach_index
from repro.patterns import Pattern
from repro.reasoning import find_violations
from repro.workloads import bounded_rule_set, validation_workload


def graph():
    return validation_workload(300, rng=13)


@pytest.fixture
def graph_path(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(graph_to_json(graph()))
    return path


def rules_file(tmp_path, rules, name="rules.json"):
    path = tmp_path / name
    path.write_text(json.dumps(rules))
    return path


def bounded_rules():
    return [ged_to_dict(rule) for rule in bounded_rule_set()]


def engine(graph_path, *extra):
    return main(["engine", "--graph", str(graph_path), "--workers", "2", *extra])


def out_line(capsys, prefix):
    (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith(prefix)]
    return line


class TestPoolFigures:
    def test_without_rules_reports_the_snapshot_and_pool(self, graph_path, capsys):
        assert engine(graph_path) == 0
        out = capsys.readouterr().out
        compact, naive = map(
            int, re.search(r"snapshot: (\d+) byte\(s\).*pickle: (\d+) byte\(s\)", out).groups()
        )
        assert 0 < compact < naive
        assert "pool: 2 worker(s), graph version" in out
        assert out.rstrip().endswith("indexed")
        assert "work queue" not in out

    def test_no_index_broadcasts_an_unindexed_graph(self, graph_path, capsys):
        assert engine(graph_path, "--no-index") == 0
        assert out_line(capsys, "pool:").endswith("unindexed")


class TestValidation:
    def test_dirty_graph_runs_cold_then_warm_and_lists_violations(
        self, graph_path, tmp_path, capsys
    ):
        rules = rules_file(tmp_path, bounded_rules())
        assert engine(graph_path, "--rules", str(rules)) == 1
        out = capsys.readouterr().out
        expected = len(find_violations(graph(), bounded_rule_set()))
        runs = re.findall(r"run (\d) \((cold|warm)\): [\d.]+ ms, (\d+) violation", out)
        assert runs == [("1", "cold", str(expected)), ("2", "warm", str(expected))]
        # Two-space lines are work-queue units and, after the runs, the
        # violations.
        listed = [
            line for line in out.splitlines() if line.startswith("  ") and "shard" not in line
        ]
        assert len(listed) == expected

    def test_repeat_runs_on_the_same_warm_pool(self, graph_path, tmp_path, capsys):
        rules = rules_file(tmp_path, bounded_rules())
        engine(graph_path, "--rules", str(rules), "--repeat", "3")
        labels = re.findall(r"run \d \((cold|warm)\)", capsys.readouterr().out)
        assert labels == ["cold", "warm", "warm"]

    def test_work_queue_lists_every_unit_when_short(self, graph_path, tmp_path, capsys):
        rules = rules_file(tmp_path, bounded_rules())
        engine(graph_path, "--rules", str(rules), "--repeat", "1")
        out = capsys.readouterr().out
        indexed = graph()
        attach_index(indexed)  # the command broadcasts an indexed graph
        units = plan_tasks(indexed, bounded_rule_set(), 2)
        assert f"work queue ({len(units)} unit(s), largest estimated cost first):" in out
        assert all(f"  {unit}" in out for unit in units)
        assert "more" not in out

    def test_long_work_queue_is_cut_at_ten(self, graph_path, tmp_path, capsys):
        doubled = bounded_rules() + [
            {**rule, "name": rule["name"] + "-again"} for rule in bounded_rules()
        ]
        rules = rules_file(tmp_path, doubled)
        engine(graph_path, "--rules", str(rules), "--repeat", "1")
        out = capsys.readouterr().out
        count = int(re.search(r"work queue \((\d+) unit", out).group(1))
        assert count > 10
        assert f"  ... {count - 10} more" in out

    def test_clean_graph_exits_zero(self, graph_path, tmp_path, capsys):
        tautology = GED(
            Pattern({"x": "user"}),
            [ConstantLiteral("x", "score", 1)],
            [ConstantLiteral("x", "score", 1)],
            name="tautology",
        )
        rules = rules_file(tmp_path, [ged_to_dict(tautology)])
        assert engine(graph_path, "--rules", str(rules), "--repeat", "1") == 0
        assert ", 0 violation(s)," in capsys.readouterr().out
