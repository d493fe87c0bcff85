"""End-to-end distributed tracing through a real `cli serve` process.

The acceptance scenario: one published batch produces one assembled
causal tree under the trace id the ack carries — validate, log append,
graph apply, introduced scan and push delivery — and a client that
sends its own ``TraceContext`` over the wire finds the server's tree
under that id.

A batch with a checkpoint shows the batch's own layers as children of
``serve.batch``, the graph apply and the checkpoint write included;
the shutdown checkpoint has a span outside the batch.

Plus the incremental-flush fix: the exported NDJSON must hold the
batch's spans *before* the server exits, so a SIGKILLed server leaves
usable traces.
"""

import asyncio
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.deps import GED, ConstantLiteral
from repro.deps.io import ged_to_dict
from repro.graph import GraphBuilder
from repro.graph.io import graph_to_json
from repro.graph.update import GraphUpdate
from repro.patterns import Pattern
from repro.serve import ServeClient
from repro.telemetry import assemble_traces
from repro.telemetry.trace import ref_process

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@pytest.fixture
def fixture_files(tmp_path):
    graph = (
        GraphBuilder()
        .node("c1", "city", {"pop": 1})
        .node("p1", "person", {"age": 0})
        .edge("p1", "lives_in", "c1")
        .build()
    )
    rule = GED(
        Pattern({"p": "person", "c": "city"}, [("p", "lives_in", "c")]),
        [],
        [ConstantLiteral("p", "age", 30)],
        name="resident-age",
    )
    graph_path = tmp_path / "kb.json"
    graph_path.write_text(graph_to_json(graph))
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps([ged_to_dict(rule)]))
    return graph_path, rules_path, tmp_path / "updates.jsonl"


def start_serve(args) -> tuple[subprocess.Popen, dict]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=subprocess_env(),
    )
    listening = json.loads(proc.stdout.readline())
    assert listening["type"] == "listening"
    return proc, listening


def subscribe_and_publish(port: int, update: GraphUpdate) -> dict:
    """One subscriber (push delivery) + one publisher; returns the ack."""

    async def run():
        watcher = await ServeClient.connect("127.0.0.1", port)
        publisher = await ServeClient.connect("127.0.0.1", port)
        try:
            await watcher.subscribe()
            ack = await publisher.send_update(update)
            event = await watcher.next_event()
            assert event.get("type") in ("delta", "resync")
            return ack
        finally:
            await publisher.close()
            await watcher.close()

    return asyncio.run(run())


def trace_records(path: pathlib.Path) -> list[dict]:
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def two_node_update() -> GraphUpdate:
    return GraphUpdate(
        nodes=[("p2", "person", {"age": 30}), ("p3", "person", {"age": 0})]
    )


class TestAssembledTraceAcrossProcesses:
    def test_one_batch_one_tree_under_the_acked_trace_id(self, fixture_files, tmp_path):
        graph_path, rules_path, log_path = fixture_files
        trace_path = tmp_path / "trace.ndjson"
        proc, listening = start_serve(
            [
                "--log", str(log_path), "--rules", str(rules_path),
                "--graph", str(graph_path),
                "--telemetry", f"ndjson:{trace_path}",
                "--max-batches", "1",
            ]
        )
        try:
            ack = subscribe_and_publish(listening["port"], two_node_update())
            assert ack["type"] == "ack" and ack["seq"] == 1
            # the ack echoes the batch's trace id (new optional field)
            assert "trace_id" in ack
        finally:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise

        forests = assemble_traces(trace_records(trace_path))
        assert ack["trace_id"] in forests
        (root,) = forests[ack["trace_id"]]
        assert root.name == "serve.batch"

        names = set()
        processes = set()
        for _, node in root.walk():
            names.add(node.name)
            if node.ref:
                processes.add(ref_process(node.ref))
        # the serve pipeline, in one tree
        assert {
            "serve.validate",
            "serve.log_append",
            "stream.apply",
            "stream.introduce",
            "serve.push",
        } <= names
        # the server applies the batch in-process: one process tag
        assert processes == {ref_process(root.ref)}

    def test_ack_trace_id_matches_client_supplied_context(self, fixture_files, tmp_path):
        # A client that is itself traced propagates its context over
        # the wire; the server adopts it instead of minting a new one.
        from repro.telemetry.trace import TraceContext

        graph_path, rules_path, log_path = fixture_files
        trace_path = tmp_path / "trace.ndjson"
        proc, listening = start_serve(
            [
                "--log", str(log_path), "--rules", str(rules_path),
                "--graph", str(graph_path),
                "--telemetry", f"ndjson:{trace_path}",
                "--max-batches", "1",
            ]
        )
        try:

            async def publish():
                client = await ServeClient.connect("127.0.0.1", listening["port"])
                try:
                    ctx = TraceContext("cafe0123deadbeef", "client-proc:7")
                    return await client.send_update(two_node_update(), trace=ctx)
                finally:
                    await client.close()

            ack = asyncio.run(publish())
            assert ack["trace_id"] == "cafe0123deadbeef"
        finally:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise

        forests = assemble_traces(trace_records(trace_path))
        (root,) = forests["cafe0123deadbeef"]
        assert root.name == "serve.batch"


class TestBatchSpanTree:
    def test_apply_and_checkpoint_spans_under_the_batch(self, fixture_files, tmp_path):
        # A checkpoint after every batch: the graph
        # apply (inside the ledger refresh) and the checkpoint write
        # each get their own span under ``serve.batch``.
        graph_path, rules_path, log_path = fixture_files
        trace_path = tmp_path / "trace.ndjson"
        proc, listening = start_serve(
            [
                "--log", str(log_path), "--rules", str(rules_path),
                "--graph", str(graph_path),
                "--checkpoint-every", "1",
                "--telemetry", f"ndjson:{trace_path}",
                "--max-batches", "1",
            ]
        )
        try:
            ack = subscribe_and_publish(listening["port"], two_node_update())
            assert ack["type"] == "ack" and ack["seq"] == 1
        finally:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise

        (root,) = assemble_traces(trace_records(trace_path))[ack["trace_id"]]
        assert root.name == "serve.batch"
        assert {child.name for child in root.children} >= {
            "serve.validate",
            "serve.log_append",
            "stream.apply",
            "stream.retire_check",
            "stream.introduce",
            "serve.checkpoint",
        }

    def test_shutdown_checkpoint_has_its_own_span(self, fixture_files, tmp_path):
        # No periodic checkpoint: the one checkpoint is
        # the shutdown one after --max-batches, outside the batch tree.
        graph_path, rules_path, log_path = fixture_files
        trace_path = tmp_path / "trace.ndjson"
        proc, listening = start_serve(
            [
                "--log", str(log_path), "--rules", str(rules_path),
                "--graph", str(graph_path),
                "--telemetry", f"ndjson:{trace_path}",
                "--max-batches", "1",
            ]
        )
        try:
            ack = subscribe_and_publish(listening["port"], two_node_update())
            assert ack["type"] == "ack" and ack["seq"] == 1
        finally:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise

        records = trace_records(trace_path)
        checkpoints = [r for r in records if r.get("name") == "serve.checkpoint"]
        assert [r["attrs"] for r in checkpoints] == [{"seq": 1, "shutdown": True}]
        (span,) = checkpoints
        (parent,) = [r for r in records if r.get("span_id") == span["parent_id"]]
        assert parent["name"] == "cli.serve"
        (root,) = assemble_traces(records)[ack["trace_id"]]
        assert "serve.checkpoint" not in {child.name for child in root.children}


class TestIncrementalFlush:
    def test_killed_server_leaves_usable_traces(self, fixture_files, tmp_path):
        graph_path, rules_path, log_path = fixture_files
        trace_path = tmp_path / "trace.ndjson"
        # no --max-batches: the server would run forever; we kill it
        proc, listening = start_serve(
            [
                "--log", str(log_path), "--rules", str(rules_path),
                "--graph", str(graph_path),
                "--telemetry", f"ndjson:{trace_path}",
            ]
        )
        try:
            ack = subscribe_and_publish(listening["port"], two_node_update())
            assert ack["type"] == "ack"

            # the batch's spans must reach disk without waiting for
            # exit — poll briefly, then hard-kill
            deadline = time.time() + 10
            while time.time() < deadline:
                if trace_path.exists() and any(
                    r.get("name") == "serve.batch"
                    for r in trace_records(trace_path)
                ):
                    break
                time.sleep(0.05)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        records = trace_records(trace_path)
        names = {r.get("name") for r in records if r.get("type") == "span"}
        assert "serve.batch" in names, (
            "killed server left no usable trace on disk"
        )
        forests = assemble_traces(records)
        assert ack["trace_id"] in forests
        # no metrics line: close_export never ran, and that is fine
        assert all(r.get("type") != "metrics" for r in records)
