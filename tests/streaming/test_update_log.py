"""The durable update log: JSONL round trips, checkpoints, replay."""

import json

import pytest

from repro.errors import GraphError
from repro.graph.io import (
    UPDATE_LOG_FORMAT,
    UpdateLogWriter,
    graph_from_arrays,
    read_update_log,
    replay_update_log,
    scan_update_log,
    update_from_dict,
    update_to_dict,
)
from repro.graph.graph import Graph
from repro.graph.update import GraphUpdate
from repro.indexing import attach_index, get_index
from repro.indexing.maintenance import apply_update_indexed
from repro.workloads import churn_stream


def sample_update():
    return GraphUpdate(
        nodes=[("n", "L", {"x": 1})],
        edges=[("n", "r", "a")],
        attrs=[("a", "x", 2)],
        del_nodes=["z"],
        del_edges=[("a", "r", "b")],
        del_attrs=[("b", "y")],
    )


class TestDictRoundTrip:
    def test_round_trip(self):
        update = sample_update()
        restored = update_from_dict(json.loads(json.dumps(update_to_dict(update))))
        assert restored == GraphUpdate(
            nodes=[("n", "L", {"x": 1})],
            edges=[("n", "r", "a")],
            attrs=[("a", "x", 2)],
            del_nodes=["z"],
            del_edges=[("a", "r", "b")],
            del_attrs=[("b", "y")],
        )

    def test_empty_fields_omitted(self):
        assert update_to_dict(GraphUpdate()) == {}
        assert update_from_dict({}).is_empty()


class TestLogReplay:
    def stream_and_log(self, tmp_path, checkpoint_every=None, write_base=False):
        stream = churn_stream(n_nodes=40, batches=6, rng=2)
        live = stream.base.copy()
        path = tmp_path / "updates.jsonl"
        with UpdateLogWriter(path, checkpoint_every=checkpoint_every) as writer:
            if write_base:
                writer.write_base(live)
            for update in stream.updates:
                apply_update_indexed(live, update)
                writer.append(update, live)
        return stream, live, path

    def test_replay_from_base_graph(self, tmp_path):
        stream, live, path = self.stream_and_log(tmp_path)
        result = replay_update_log(path, stream.base.copy())
        assert result.graph == live
        assert result.applied == 6
        assert result.last_seq == 6
        assert result.resumed_from == 0

    def test_replay_resumes_from_latest_checkpoint(self, tmp_path):
        stream, live, path = self.stream_and_log(tmp_path, checkpoint_every=2)
        result = replay_update_log(path)
        assert result.graph == live
        assert result.resumed_from == 6  # checkpoints at 2, 4, 6
        assert result.applied == 0

    def test_replay_checkpoint_plus_tail(self, tmp_path):
        stream, live, path = self.stream_and_log(tmp_path, checkpoint_every=4)
        result = replay_update_log(path)
        assert result.resumed_from == 4
        assert result.applied == 2
        assert result.graph == live

    def test_full_replay_cross_checks_checkpoints(self, tmp_path):
        stream, live, path = self.stream_and_log(tmp_path, checkpoint_every=2)
        result = replay_update_log(path, stream.base.copy(), use_checkpoints=False)
        assert result.graph == live
        assert result.applied == 6

    def test_replay_without_checkpoint_or_base_errors(self, tmp_path):
        _, _, path = self.stream_and_log(tmp_path)
        with pytest.raises(GraphError, match="no checkpoint"):
            replay_update_log(path)

    def test_replay_maintains_attached_index(self, tmp_path):
        stream, live, path = self.stream_and_log(tmp_path)
        base = stream.base.copy()
        attach_index(base)
        result = replay_update_log(path, base)
        assert result.graph == live
        assert get_index(base) is not None, "replay must keep the index synced"

    def test_base_checkpoint_round_trip(self, tmp_path):
        stream, live, path = self.stream_and_log(tmp_path, write_base=True)
        records = list(read_update_log(path))
        assert records[0].type == "checkpoint" and records[0].seq == 0
        assert records[0].graph == stream.base


class TestCheckpointResumeWithDeletions:
    """Resume-after-checkpoint must survive deletion-heavy batches.

    A checkpoint captures post-batch state stamped with that batch's
    seq (docs/update-log.md §1.2); a writer fed pre-batch graphs would
    replay the checkpoint batch's deletions against a state that never
    saw them.  These logs delete nodes, edges, and attributes around
    every checkpoint boundary, then assert checkpointed resume, full
    from-base replay, and the live graph all agree.
    """

    def deletion_heavy_log(self, tmp_path, checkpoint_every):
        from repro.graph import GraphBuilder

        base = (
            GraphBuilder()
            .node("a", "L", {"x": 1})
            .node("b", "L", {"x": 2})
            .node("c", "L", {"x": 3})
            .edge("a", "r", "b")
            .edge("b", "r", "c")
            .build()
        )
        updates = [
            GraphUpdate(
                del_edges=[("a", "r", "b")],
                nodes=[("d", "L", {})],
                edges=[("c", "r", "d")],
            ),
            GraphUpdate(del_nodes=["b"], attrs=[("a", "x", 9)]),
            GraphUpdate(
                del_attrs=[("a", "x")],
                del_nodes=["d"],
                nodes=[("e", "L", {"x": 1})],
                edges=[("a", "r", "e")],
            ),
            GraphUpdate(del_edges=[("a", "r", "e")], del_nodes=["e"]),
        ]
        live = base.copy()
        path = tmp_path / "deletions.jsonl"
        with UpdateLogWriter(path, checkpoint_every=checkpoint_every) as writer:
            writer.write_base(base)
            for update in updates:
                apply_update_indexed(live, update)
                writer.append(update, live)
        return base, live, path

    @pytest.mark.parametrize("checkpoint_every", [1, 2, 3])
    def test_checkpointed_resume_equals_full_replay(self, tmp_path, checkpoint_every):
        base, live, path = self.deletion_heavy_log(tmp_path, checkpoint_every)
        resumed = replay_update_log(path)
        full = replay_update_log(path, base.copy(), use_checkpoints=False)
        assert resumed.graph == live
        assert full.graph == live
        assert resumed.resumed_from == (4 // checkpoint_every) * checkpoint_every
        assert full.applied == 4

    def test_churn_checkpoints_with_deletions(self, tmp_path):
        stream = churn_stream(n_nodes=60, batches=10, delete_fraction=0.5, rng=8)
        assert any(u.del_nodes or u.del_edges or u.del_attrs for u in stream.updates)
        live = stream.base.copy()
        path = tmp_path / "churn.jsonl"
        with UpdateLogWriter(path, checkpoint_every=3) as writer:
            writer.write_base(stream.base)
            for update in stream.updates:
                apply_update_indexed(live, update)
                writer.append(update, live)
        assert replay_update_log(path).graph == live
        assert (
            replay_update_log(path, stream.base.copy(), use_checkpoints=False).graph
            == live
        )


class TestLogFormat:
    def test_records_carry_format_stamp(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with UpdateLogWriter(path) as writer:
            writer.append(GraphUpdate(nodes=[("n", "L", {})]))
        line = json.loads(path.read_text().strip())
        assert line["format"] == UPDATE_LOG_FORMAT
        assert line["type"] == "update"
        assert line["seq"] == 1

    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps({"format": 99, "type": "update", "seq": 1, "update": {}}) + "\n")
        with pytest.raises(GraphError, match="unsupported update-log format"):
            list(read_update_log(path))

    def test_garbage_line_rejected_with_position(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("not json\n")
        with pytest.raises(GraphError, match=":1:"):
            list(read_update_log(path))

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps({"format": 1, "type": "mystery", "seq": 1}) + "\n")
        with pytest.raises(GraphError, match="unknown record type"):
            list(read_update_log(path))

    def test_reopening_resumes_sequence_numbers(self, tmp_path):
        """A writer reopened on an existing log continues the monotone
        numbering instead of restarting at 1."""
        path = tmp_path / "log.jsonl"
        with UpdateLogWriter(path) as writer:
            writer.append(GraphUpdate(nodes=[("n1", "L", {})]))
            writer.append(GraphUpdate(nodes=[("n2", "L", {})]))
        with UpdateLogWriter(path) as writer:
            assert writer.seq == 2
            assert writer.append(GraphUpdate(nodes=[("n3", "L", {})])) == 3
        assert [r.seq for r in read_update_log(path)] == [1, 2, 3]

    def test_reopening_after_checkpoint_resumes(self, tmp_path):
        from repro.graph import GraphBuilder

        path = tmp_path / "log.jsonl"
        graph = GraphBuilder().node("a", "L").build()
        with UpdateLogWriter(path, checkpoint_every=1) as writer:
            writer.append(GraphUpdate(nodes=[("n1", "L", {})]), graph)
        with UpdateLogWriter(path) as writer:
            assert writer.seq == 1

    def test_reopening_corrupt_log_refuses(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("garbage\n")
        with pytest.raises(GraphError, match="cannot resume"):
            UpdateLogWriter(path)

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with UpdateLogWriter(path) as writer:
            writer.append(GraphUpdate(nodes=[("n", "L", {})]))
        path.write_text(path.read_text() + "\n\n")
        assert len(list(read_update_log(path))) == 1

    @pytest.mark.parametrize("record", [[1, 2], {"seq": 1}, {"type": "update"}])
    def test_record_without_type_and_seq_rejected_with_position(self, tmp_path, record):
        path = tmp_path / "log.jsonl"
        good = {"format": UPDATE_LOG_FORMAT, "type": "update", "seq": 1, "update": {}}
        path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(GraphError, match=":2: malformed update-log record"):
            list(read_update_log(path))

    @pytest.mark.parametrize("contents", ["", "\n\n"], ids=["empty", "blank"])
    def test_writer_on_a_log_without_records_starts_at_one(self, tmp_path, contents):
        path = tmp_path / "log.jsonl"
        path.write_text(contents)
        with UpdateLogWriter(path) as writer:
            assert writer.seq == 0
            assert writer.append(GraphUpdate(nodes=[("n", "L", {})])) == 1
        assert [r.seq for r in read_update_log(path)] == [1]

    @pytest.mark.parametrize("every", [0, -2])
    def test_checkpoint_interval_must_be_positive(self, tmp_path, every):
        path = tmp_path / "log.jsonl"
        with pytest.raises(ValueError, match="checkpoint_every must be >= 1"):
            UpdateLogWriter(path, checkpoint_every=every)
        assert not path.exists()

    @pytest.mark.parametrize("payload", [None, [], "nodes"])
    def test_update_payload_must_be_a_dictionary(self, payload):
        with pytest.raises(GraphError, match="update dictionary expected"):
            update_from_dict(payload)


class TestTornTail:
    """A final line that lacks its newline and does not parse is a torn
    write: readers stop before it, and a writer truncates it (counting
    ``log.torn_tails_truncated``) before its first append.  A final
    record that parses but lacks its newline gets one."""

    def log_lines(self, tmp_path):
        stream = churn_stream(n_nodes=12, batches=3, rng=4)
        live = stream.base.copy()
        path = tmp_path / "log.jsonl"
        with UpdateLogWriter(path, checkpoint_every=2) as writer:
            writer.write_base(live)
            for update in stream.updates:
                apply_update_indexed(live, update)
                writer.append(update, live)
        lines = path.read_bytes().splitlines(keepends=True)
        assert [json.loads(line)["seq"] for line in lines] == [0, 1, 2, 2, 3]
        return path, lines

    def test_every_cut_of_the_last_record(self, tmp_path):
        from repro.telemetry import metrics

        path, lines = self.log_lines(tmp_path)
        *prefix, final = lines
        for cut in range(1, len(final)):
            path.write_bytes(b"".join(prefix) + final[:cut])
            complete = cut == len(final) - 1
            seqs = [record["seq"] for record in scan_update_log(path)]
            assert seqs == ([0, 1, 2, 2, 3] if complete else [0, 1, 2, 2])
            with metrics.collecting() as registry:
                with UpdateLogWriter(path) as writer:
                    assert writer.seq == seqs[-1]
                    assert path.read_bytes() == b"".join(lines if complete else prefix)
                    writer.append(GraphUpdate())
            assert registry.counter_value("log.torn_tails_truncated") == (0 if complete else 1)
            assert [r.seq for r in read_update_log(path)] == seqs + [seqs[-1] + 1]


class TestDocumentedCheckpoint:
    def test_example_is_the_writers_record(self, tmp_path):
        """docs/update-log.md §1.2 shows what the writer writes."""
        import pathlib
        import re

        from repro.graph import GraphBuilder

        graph = (
            GraphBuilder()
            .node("u1", "user", {"score": 2})
            .node("i3", "item", {"region": "eu"})
            .node("u2", "user", {"score": 2, "fav": "i3"})
            .edge("u2", "buys", "i3")
            .edge("u1", "buys", "i3")
            .build()
        )
        path = tmp_path / "log.jsonl"
        with UpdateLogWriter(path, seq=4) as writer:
            writer.checkpoint(graph)
        doc = (pathlib.Path(__file__).parents[2] / "docs" / "update-log.md").read_text()
        section = doc[doc.index("### 1.2"):doc.index("### 1.3")]
        (block,) = re.findall(r"```json\n(.*?)```", section, re.S)
        assert json.loads(block) == json.loads(path.read_text())


class TestMalformedCheckpoint:
    """A checkpoint whose columns do not fit together raises GraphError
    instead of decoding to a different graph (docs/update-log.md §1.2)."""

    def checkpoint(self, tmp_path):
        """The arrays of a real checkpoint of a -r-> b plus an isolated c."""
        from repro.graph import GraphBuilder

        graph = (
            GraphBuilder()
            .node("a", "L", {"x": 1})
            .node("b", "L")
            .node("c", "L")
            .edge("a", "r", "b")
            .build()
        )
        path = tmp_path / "base.jsonl"
        with UpdateLogWriter(path) as writer:
            writer.write_base(graph)
        (record,) = scan_update_log(path)
        return record["arrays"]

    def test_well_formed_checkpoint_decodes(self, tmp_path):
        graph = graph_from_arrays(self.checkpoint(tmp_path))
        assert graph.node_ids == ["a", "b", "c"]
        assert graph.edges == {("a", "r", "b")}

    def test_short_label_column_refused(self, tmp_path):
        arrays = self.checkpoint(tmp_path)
        arrays["node_labels"].pop()
        with pytest.raises(GraphError, match="node_ids and node_labels differ"):
            graph_from_arrays(arrays)

    def test_empty_edge_label_column_refused(self, tmp_path):
        arrays = self.checkpoint(tmp_path)
        arrays["edge_label"] = []
        with pytest.raises(GraphError, match="edge_src, edge_label and edge_dst differ"):
            graph_from_arrays(arrays)

    def test_negative_position_refused(self, tmp_path):
        arrays = self.checkpoint(tmp_path)
        arrays["edge_dst"] = [-1]  # would wrap to the last node, c
        with pytest.raises(GraphError, match="edge_dst holds an index outside range"):
            graph_from_arrays(arrays)

    def test_position_past_the_nodes_refused(self, tmp_path):
        arrays = self.checkpoint(tmp_path)
        arrays["edge_dst"] = [99]
        with pytest.raises(GraphError, match="edge_dst holds an index outside range"):
            graph_from_arrays(arrays)

    @pytest.mark.parametrize("column", ["pool", "node_ids", "attr_value", "edge_dst"])
    def test_missing_column_refused(self, tmp_path, column):
        arrays = self.checkpoint(tmp_path)
        del arrays[column]
        with pytest.raises(GraphError, match="needs a pool list and the integer columns"):
            graph_from_arrays(arrays)

    def test_non_list_column_refused(self, tmp_path):
        arrays = self.checkpoint(tmp_path)
        arrays["edge_src"] = "0"
        with pytest.raises(GraphError, match="needs a pool list"):
            graph_from_arrays(arrays)
        with pytest.raises(GraphError, match="needs a pool list"):
            graph_from_arrays(["not", "a", "mapping"])

    def test_replay_refuses_malformed_checkpoint(self, tmp_path):
        arrays = self.checkpoint(tmp_path)
        arrays["edge_dst"] = [-1]
        path = tmp_path / "log.jsonl"
        record = {"format": UPDATE_LOG_FORMAT, "type": "checkpoint", "seq": 0, "arrays": arrays}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(GraphError, match="edge_dst"):
            replay_update_log(path)


class TestRecordSeq:
    """Every record's seq is a non-negative int, on replay as on reopen."""

    @pytest.mark.parametrize("seq", [-1, "3", 2.0, True, None])
    def test_bad_seq_refused(self, tmp_path, seq):
        path = tmp_path / "log.jsonl"
        record = {"format": UPDATE_LOG_FORMAT, "type": "update", "seq": seq, "update": {}}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(GraphError, match="bad seq"):
            list(read_update_log(path))
        with pytest.raises(GraphError, match="bad seq"):
            replay_update_log(path, Graph())
        with pytest.raises(GraphError, match="bad seq"):
            UpdateLogWriter(path)

    def test_writer_takes_a_known_seq_without_reading(self, tmp_path):
        """A caller that just replayed the log hands its last seq over;
        the writer then does not read the file (here: unreadable)."""
        path = tmp_path / "log.jsonl"
        path.write_text("garbage\n")
        with UpdateLogWriter(path, seq=7) as writer:
            assert writer.append(GraphUpdate(nodes=[("n", "L", {})])) == 8
