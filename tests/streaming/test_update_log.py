"""The durable update log: JSONL round trips, checkpoints, replay."""

import base64
import json
import pathlib
import re
import shutil

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
from tests.packed_columns import as_lists, integers, pack, respell


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

    @pytest.mark.parametrize("stamp", [0, 3, "2", 2.0, True, None])
    def test_only_formats_1_and_2_are_read(self, tmp_path, stamp):
        path = tmp_path / "log.jsonl"
        records = [{"format": version, "type": "update", "seq": seq, "update": {}}
                   for seq, version in enumerate([1, 2, stamp], start=1)]
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        with pytest.raises(GraphError, match=":3: unsupported update-log format"):
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


class TestCheckpointCollector:
    """The writer builds and dumps a checkpoint with the cyclic collector
    paused, and leaves the collector as it found it, after an error
    too."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_paused_while_encoding_and_restored(self, tmp_path, monkeypatch, enabled):
        import gc

        from repro.graph import GraphBuilder
        from repro.graph import io as graph_io

        seen = []
        encode = graph_io._checkpoint_arrays

        def spy(graph):
            seen.append(gc.isenabled())
            return encode(graph)

        monkeypatch.setattr(graph_io, "_checkpoint_arrays", spy)
        graph = GraphBuilder().node("a", "L", {"x": 1}).build()
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with UpdateLogWriter(tmp_path / "log.jsonl") as writer:
                writer.write_base(graph)
                writer.checkpoint(graph)
                after = gc.isenabled()
                graph.set_attribute("a", "y", object())  # not JSON-representable
                with pytest.raises(TypeError):
                    writer.checkpoint(graph)
                after_error = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False, False, False]
        assert after is after_error is enabled


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
        """docs/update-log.md §1.2 shows what the writer writes, and its
        table unpacks the example's columns."""
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
        record = json.loads(path.read_text())
        assert json.loads(block) == record
        table = dict(re.findall(r"^\| `(\w+)` \| `(\[[\d, ]*\])` \|$", section, re.M))
        assert {name: json.loads(entries) for name, entries in table.items()} == {
            name: integers(column) for name, column in record["arrays"].items() if name != "pool"
        }


#: A format-1 log (integer columns spelled as JSON lists), written by the
#: format-1 writer: a 40-node churn stream of 12 batches, checkpointed at
#: seq 0, 5 and 10, whose seventh batch writes float, bool, list and
#: id-valued attributes.  ``replayed.json`` is the graph the format-1
#: code replayed from it (nodes, attributes and edges in table order),
#: and ``stream.ndjson`` its ``cli stream`` output without the
#: ``wall_seconds`` timings.
FORMAT1 = pathlib.Path(__file__).parent / "format1"


def typed_state(nodes, edges) -> tuple[list, list]:
    """Nodes with typed attributes, and edges, in table order."""
    return (
        [(node_id, label, [(name, type(value), value) for name, value in attrs])
         for node_id, label, attrs in nodes],
        [tuple(edge) for edge in edges],
    )


def graph_state(graph: Graph) -> tuple[list, list]:
    return typed_state(
        ((node.id, node.label, node.attributes.items()) for node in graph.nodes), graph._edges
    )


def stream_lines(text: str) -> list[dict]:
    """``cli stream`` output lines, without their timings."""
    lines = [json.loads(line) for line in text.splitlines()]
    for line in lines:
        line.pop("wall_seconds", None)
    return lines


class TestFormat1Log:
    """Logs already on disk in format 1 still replay, to the same graph
    and the same ``cli stream`` output, and a writer reopening one
    continues it in format 2."""

    def recorded_state(self):
        recorded = json.loads((FORMAT1 / "replayed.json").read_text())
        return typed_state(recorded["nodes"], recorded["edges"])

    def test_fixture_is_format_1(self):
        records = list(scan_update_log(FORMAT1 / "log.jsonl"))
        assert {record["format"] for record in records} == {1}
        checkpoints = [record for record in records if record["type"] == "checkpoint"]
        assert [record["seq"] for record in checkpoints] == [0, 5, 10]
        assert all(isinstance(column, list)
                   for record in checkpoints for column in record["arrays"].values())

    def test_replays_to_the_recorded_graph(self):
        result = replay_update_log(FORMAT1 / "log.jsonl")
        assert (result.resumed_from, result.last_seq, result.applied) == (10, 12, 2)
        assert graph_state(result.graph) == self.recorded_state()
        (base, *_) = scan_update_log(FORMAT1 / "log.jsonl")
        from_base = replay_update_log(
            FORMAT1 / "log.jsonl", graph_from_arrays(base["arrays"]), use_checkpoints=False
        )
        assert from_base.applied == 12
        assert from_base.graph == result.graph

    def test_cli_stream_output_is_unchanged(self, capsys):
        from repro.cli import main

        argv = ["stream", "--log", str(FORMAT1 / "log.jsonl"),
                "--rules", str(FORMAT1 / "rules.json")]
        assert main(argv) == 1  # violations remain
        assert stream_lines(capsys.readouterr().out) == stream_lines(
            (FORMAT1 / "stream.ndjson").read_text()
        )

    def test_reopened_log_continues_in_format_2(self, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        shutil.copyfile(FORMAT1 / "log.jsonl", path)
        graph = replay_update_log(path).graph
        more = [
            GraphUpdate(attrs=[("t1", "score", 2.5)], del_edges=[next(iter(graph._edges))]),
            GraphUpdate(nodes=[("t2", "item", {"alias": "t1", "region": 2})],
                        edges=[("t1", "buys", "t2")]),
        ]
        with UpdateLogWriter(path) as writer:
            assert writer.seq == 12
            for update in more:
                writer.append(update)
                apply_update_indexed(graph, update)
            # The latest checkpoint is still format 1; the tail mixes formats.
            assert replay_update_log(path).graph == graph
            assert graph_state(replay_update_log(path).graph) == graph_state(graph)
            writer.checkpoint(graph)
        records = list(scan_update_log(path))
        assert [record["format"] for record in records[-3:]] == [2, 2, 2]
        assert {record["format"] for record in records[:-3]} == {1}
        result = replay_update_log(path)
        assert (result.resumed_from, result.applied) == (14, 0)
        assert graph_state(result.graph) == graph_state(graph)
        # The graph recovered from the format-1 checkpoint re-encodes as
        # the writer encodes the same graph built afresh.
        fresh = tmp_path / "fresh.jsonl"
        with UpdateLogWriter(fresh, seq=14) as writer:
            writer.checkpoint(result.graph)
        assert path.read_bytes().splitlines()[-1] == fresh.read_bytes().strip()
        # cli stream reads the mixed log from its format-1 base.
        from repro.cli import main

        main(["stream", "--log", str(path), "--rules", str(FORMAT1 / "rules.json")])
        lines = stream_lines(capsys.readouterr().out)
        recorded = stream_lines((FORMAT1 / "stream.ndjson").read_text())
        assert lines[:13] == recorded[:13]
        assert [line["log_seq"] for line in lines[13:-1]] == [13, 14]
        assert lines[-1]["batches"] == 14


def malformed_base_checkpoint(tmp_path) -> dict:
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


class TestMalformedCheckpoint:
    """A checkpoint whose columns do not fit together raises GraphError
    instead of decoding to a different graph (docs/update-log.md §1.2).
    Here the integer columns are packed, as the writer spells them;
    :class:`TestMalformedFormat1Checkpoint` runs the same cases on
    format-1 JSON lists."""

    @pytest.fixture
    def arrays(self, tmp_path):
        return malformed_base_checkpoint(tmp_path)

    def test_well_formed_checkpoint_decodes(self, arrays):
        graph = graph_from_arrays(arrays)
        assert graph.node_ids == ["a", "b", "c"]
        assert graph.edges == {("a", "r", "b")}

    def test_short_label_column_refused(self, arrays):
        respell(arrays, "node_labels", integers(arrays["node_labels"])[:-1])
        with pytest.raises(GraphError, match="node_ids and node_labels differ"):
            graph_from_arrays(arrays)

    def test_empty_edge_label_column_refused(self, arrays):
        respell(arrays, "edge_label", [])
        with pytest.raises(GraphError, match="edge_src, edge_label and edge_dst differ"):
            graph_from_arrays(arrays)

    def test_negative_position_refused(self, arrays):
        # A list may hold -1, which would wrap to the last node, c; a
        # packed column holds it as the uint32 2**32 - 1.
        respell(arrays, "edge_dst", [-1] if isinstance(arrays["edge_dst"], list) else [2**32 - 1])
        with pytest.raises(GraphError, match="edge_dst holds an index outside range"):
            graph_from_arrays(arrays)

    def test_position_past_the_nodes_refused(self, arrays):
        respell(arrays, "edge_dst", [99])
        with pytest.raises(GraphError, match="edge_dst holds an index outside range"):
            graph_from_arrays(arrays)

    @pytest.mark.parametrize("column", ["pool", "node_ids", "attr_value", "edge_dst"])
    def test_missing_column_refused(self, arrays, column):
        del arrays[column]
        with pytest.raises(GraphError, match="needs a pool list and the integer columns"):
            graph_from_arrays(arrays)

    def test_non_list_column_refused(self, arrays):
        arrays["edge_src"] = 0
        with pytest.raises(GraphError, match="needs a pool list"):
            graph_from_arrays(arrays)
        with pytest.raises(GraphError, match="needs a pool list"):
            graph_from_arrays(["not", "a", "mapping"])
        with pytest.raises(GraphError, match="needs a pool list"):
            graph_from_arrays({**arrays, "edge_src": [0], "pool": "abc"})

    def test_replay_refuses_malformed_checkpoint(self, arrays, tmp_path):
        respell(arrays, "edge_dst", [99])
        path = tmp_path / "log.jsonl"
        stamp = 2 if isinstance(arrays["node_ids"], str) else 1
        record = {"format": stamp, "type": "checkpoint", "seq": 0, "arrays": arrays}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(GraphError, match="edge_dst"):
            replay_update_log(path)


class TestMalformedFormat1Checkpoint(TestMalformedCheckpoint):
    """The same refusals when the integer columns are JSON lists, as a
    format-1 checkpoint spells them."""

    @pytest.fixture
    def arrays(self, tmp_path):
        return as_lists(malformed_base_checkpoint(tmp_path))


class TestMalformedPackedColumn:
    """A packed column that is not base64 of whole uint32s, or that
    holds a slot outside the pool, raises GraphError, and ``cli serve``
    on a log whose checkpoint holds one exits 2."""

    #: Packed columns that are not the writer's base64: a stray
    #: character count, a character outside the alphabet, whitespace the
    #: lenient decoder would skip, excess padding, and non-ASCII text.
    BAD_BASE64 = ["AAAAA", "AA!A", "AAAA AAAA", "AAAA=", "AAAé"]

    @pytest.mark.parametrize("text", BAD_BASE64)
    def test_bad_base64_refused(self, tmp_path, text):
        arrays = malformed_base_checkpoint(tmp_path)
        arrays["attr_value"] = text
        with pytest.raises(GraphError, match="attr_value is not a base64 packed column"):
            graph_from_arrays(arrays)

    def test_partial_uint32_refused(self, tmp_path):
        arrays = malformed_base_checkpoint(tmp_path)
        arrays["edge_dst"] = base64.b64encode(bytes(6)).decode("ascii")
        with pytest.raises(GraphError, match="edge_dst holds 6 bytes, not whole uint32s"):
            graph_from_arrays(arrays)

    def test_out_of_range_packed_slot_refused(self, tmp_path):
        arrays = malformed_base_checkpoint(tmp_path)
        for slot in (len(arrays["pool"]), 2**32 - 1):  # past the pool; -1 as a uint32
            respell(arrays, "attr_value", [slot])
            with pytest.raises(GraphError, match="attr_value holds an index outside range"):
                graph_from_arrays(arrays)

    @pytest.mark.parametrize(
        "column, text",
        [
            ("attr_value", "AA!A"),
            ("edge_dst", base64.b64encode(bytes(6)).decode("ascii")),
            ("edge_label", pack([2**32 - 1])),
        ],
        ids=["bad-base64", "partial-uint32", "out-of-range-slot"],
    )
    def test_serve_exits_2_on_a_malformed_packed_column(self, tmp_path, capsys, column, text):
        from repro.cli import main

        arrays = malformed_base_checkpoint(tmp_path)
        arrays[column] = text
        path = tmp_path / "log.jsonl"
        record = {"format": 2, "type": "checkpoint", "seq": 0, "arrays": arrays}
        path.write_text(json.dumps(record) + "\n")
        rules = tmp_path / "rules.json"
        rules.write_text("[]")
        assert main(["serve", "--log", str(path), "--rules", str(rules)]) == 2
        assert column in capsys.readouterr().err


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
