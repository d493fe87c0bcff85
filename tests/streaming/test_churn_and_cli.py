"""Churn workload validity/determinism and the `stream` CLI subcommand."""

import json

import pytest

from repro.cli import main
from repro.deps.io import ged_from_dict, ged_to_dict
from repro.graph.io import UpdateLogWriter, graph_to_json
from repro.graph.update import validate_update
from repro.reasoning import find_violations
from repro.indexing.maintenance import apply_update_indexed
from repro.workloads import churn_stream, social_churn_stream


class TestChurnStreams:
    @pytest.mark.parametrize("maker", [churn_stream, social_churn_stream])
    def test_every_batch_validates_in_sequence(self, maker):
        stream = maker(batches=10, rng=4)
        graph = stream.base.copy()
        for update in stream.updates:
            validate_update(graph, update)  # would raise on a bad batch
            apply_update_indexed(graph, update)

    @pytest.mark.parametrize("maker", [churn_stream, social_churn_stream])
    def test_seed_determinism(self, maker):
        first = maker(batches=8, rng=21)
        second = maker(batches=8, rng=21)
        assert first.base == second.base
        for a, b in zip(first.updates, second.updates):
            assert a == b

    def test_streams_contain_deletions_and_additions(self):
        stream = churn_stream(batches=20, rng=8)
        assert any(u.del_edges or u.del_nodes or u.del_attrs for u in stream.updates)
        assert any(u.nodes for u in stream.updates)
        assert stream.total_operations() > 0

    def test_rules_fire_on_the_stream(self):
        """The churn workload must actually exercise the rules."""
        stream = churn_stream(n_nodes=150, batches=10, rng=13)
        graph = stream.base.copy()
        for update in stream.updates:
            apply_update_indexed(graph, update)
        assert find_violations(graph, stream.sigma), "workload should be dirty"


@pytest.fixture
def stream_files(tmp_path):
    stream = churn_stream(n_nodes=50, batches=5, rng=6)
    live = stream.base.copy()
    log_path = tmp_path / "updates.jsonl"
    with UpdateLogWriter(log_path, checkpoint_every=2) as writer:
        writer.write_base(live)
        for update in stream.updates:
            apply_update_indexed(live, update)
            writer.append(update, live)
    graph_path = tmp_path / "base.json"
    graph_path.write_text(graph_to_json(stream.base))
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps([ged_to_dict(g) for g in stream.sigma]))
    final = len(find_violations(live, stream.sigma))
    return graph_path, rules_path, log_path, final


class TestStreamCLI:
    def parse_ndjson(self, capsys):
        return [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]

    def test_replay_emits_ndjson_deltas(self, stream_files, capsys):
        graph_path, rules_path, log_path, final = stream_files
        code = main(
            [
                "stream",
                "--log", str(log_path),
                "--rules", str(rules_path),
                "--graph", str(graph_path),
                "--index",
            ]
        )
        lines = self.parse_ndjson(capsys)
        assert lines[0]["type"] == "bootstrap"
        deltas = [line for line in lines if line["type"] == "delta"]
        assert [d["seq"] for d in deltas] == [1, 2, 3, 4, 5]
        assert all(
            set(d) >= {"introduced", "retired", "updated", "touched", "wall_seconds"}
            for d in deltas
        )
        summary = lines[-1]
        assert summary["type"] == "summary"
        assert summary["violations"] == final
        assert code == (0 if final == 0 else 1)

    def test_base_from_leading_checkpoint(self, stream_files, capsys):
        _, rules_path, log_path, final = stream_files
        main(["stream", "--log", str(log_path), "--rules", str(rules_path)])
        lines = self.parse_ndjson(capsys)
        assert lines[-1]["violations"] == final

    def test_limit_zero_suppresses_sample(self, stream_files, capsys):
        _, rules_path, log_path, _ = stream_files
        main(
            ["stream", "--log", str(log_path), "--rules", str(rules_path), "--limit", "0"]
        )
        lines = self.parse_ndjson(capsys)
        assert lines[-1]["sample"] == []

    def test_summary_matches_replay_and_documented_shape(self, stream_files, capsys):
        """The summary line agrees with `replay_update_log` on the final
        state and carries exactly the fields docs/update-log.md §2.3
        documents."""
        from repro.graph.io import replay_update_log

        _, rules_path, log_path, final = stream_files
        main(["stream", "--log", str(log_path), "--rules", str(rules_path)])
        summary = self.parse_ndjson(capsys)[-1]
        replayed = replay_update_log(log_path)
        rules = [ged_from_dict(d) for d in json.loads(rules_path.read_text())]
        assert summary["violations"] == len(find_violations(replayed.graph, rules))
        assert summary["violations"] == final
        assert summary["batches"] == replayed.last_seq
        assert set(summary) == {"type", "batches", "violations", "sample"}

    def test_missing_checkpoint_without_graph_is_usage_error(self, tmp_path, capsys):
        stream = churn_stream(n_nodes=30, batches=2, rng=1)
        log_path = tmp_path / "bare.jsonl"
        live = stream.base.copy()
        with UpdateLogWriter(log_path) as writer:
            for update in stream.updates:
                apply_update_indexed(live, update)
                writer.append(update)
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps([ged_to_dict(g) for g in stream.sigma]))
        code = main(["stream", "--log", str(log_path), "--rules", str(rules_path)])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err
