"""The durable update log: JSONL round trips, checkpoints, replay."""

import json

import pytest

from repro.errors import GraphError
from repro.graph.io import (
    UPDATE_LOG_FORMAT,
    UpdateLogWriter,
    read_update_log,
    replay_update_log,
    update_from_dict,
    update_to_dict,
)
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
