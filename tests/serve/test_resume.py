"""Kill the server mid-stream, resume from the durable log.

The acceptance property (``docs/serve-protocol.md`` §7.2–7.3): every
acked batch survives the crash, ``seq`` numbering continues monotonely
across incarnations, and a client that folds (bootstrap A + deltas up
to the crash) then re-attaches sees a bootstrap that equals its folded
state — seq-verified, so nothing was lost and nothing was duplicated.
Covered both without a checkpoint (recovery = full tail replay) and
with periodic checkpoints + deletions in the stream.
"""

import asyncio
import json

import pytest

from repro.graph.io import UpdateLogWriter
from repro.graph.update import apply_update_plain
from repro.matching.view import peek_view
from repro.reasoning import find_violations
from repro.serve import ServeClient, ViolationServer
from repro.streaming import ViolationLedger, canonical_report, violation_to_dict
from repro.workloads import churn_stream

SEED = 25
CRASH_AFTER = 3  # batches applied before the kill


def stream_fixture():
    return churn_stream(n_nodes=30, batches=6, batch_size=6, rng=SEED)


def state_key(v: dict) -> tuple:
    return (v["rule"], json.dumps(v["match"]))


def fold(state: dict, delta: dict) -> None:
    for v in delta["retired"]:
        del state[state_key(v)]
    for v in delta["updated"]:
        state[state_key(v)] = v
    for v in delta["introduced"]:
        assert state_key(v) not in state
        state[state_key(v)] = v


def canonical(state_or_list) -> str:
    values = (
        list(state_or_list.values())
        if isinstance(state_or_list, dict)
        else list(state_or_list)
    )
    return json.dumps(
        sorted(values, key=lambda v: json.dumps(v, sort_keys=True)), sort_keys=True
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {},  # crash recovery = base + full tail replay
        {"checkpoint_every": 2},  # recovery = latest checkpoint + tail
    ],
    ids=["tail-replay", "checkpointed"],
)
def test_crash_and_resume_loses_and_duplicates_nothing(tmp_path, kwargs):
    stream = stream_fixture()
    log = tmp_path / "updates.jsonl"

    async def phase_a():
        """Serve, ack CRASH_AFTER batches, then die without a shutdown
        checkpoint (the crash simulation)."""
        server = ViolationServer.from_log(
            log, stream.sigma, base_graph=stream.base.copy(), **kwargs
        )
        await server.start()
        client = await ServeClient.connect("127.0.0.1", server.port)
        bootstrap = await client.subscribe()
        state = {state_key(v): v for v in bootstrap["violations"]}
        seqs = []
        for update in stream.updates[:CRASH_AFTER]:
            ack = await client.send_update(update)
            delta = await client.next_event(timeout=5)
            assert delta["seq"] == ack["seq"]
            seqs.append(delta["seq"])
            fold(state, delta)
        await server.stop(checkpoint=False)
        assert (await client.next_event(timeout=5))["type"] == "bye"
        await client.close()
        return state, seqs, server.epoch

    async def phase_b(folded_state):
        """Resume from the log alone; verify continuity, then finish the
        stream and check the final state against a from-scratch report."""
        server = ViolationServer.from_log(log, stream.sigma, **kwargs)
        await server.start()
        client = await ServeClient.connect("127.0.0.1", server.port)
        bootstrap = await client.subscribe()
        hello = client.hello
        # seq numbering continued; the epoch records the resume point.
        assert hello["seq"] == CRASH_AFTER
        assert hello["epoch"] == CRASH_AFTER
        assert bootstrap["seq"] == CRASH_AFTER
        # No lost, no duplicated deltas: the resumed snapshot IS the
        # folded pre-crash view.
        assert canonical(bootstrap["violations"]) == canonical(folded_state)

        state = {state_key(v): v for v in bootstrap["violations"]}
        for n, update in enumerate(stream.updates[CRASH_AFTER:], start=CRASH_AFTER + 1):
            ack = await client.send_update(update)
            assert ack["seq"] == n  # gap-free across the crash
            delta = await client.next_event(timeout=5)
            assert delta["seq"] == n
            fold(state, delta)
        await client.close()
        await server.stop()  # clean: writes a shutdown checkpoint
        return state

    state_a, seqs_a, epoch_a = asyncio.run(phase_a())
    assert seqs_a == list(range(1, CRASH_AFTER + 1))
    assert epoch_a == 0
    state_b = asyncio.run(phase_b(state_a))

    # The end state equals a from-scratch validation of base + all batches.
    reference = stream.base.copy()
    for update in stream.updates:
        apply_update_plain(reference, update)
    expected = [
        violation_to_dict(v)
        for v in canonical_report(stream.sigma, find_violations(reference, stream.sigma))
    ]
    assert canonical(state_b) == canonical(expected)

    # And a third incarnation (after the clean stop) resumes at seq 6
    # from the shutdown checkpoint.
    async def phase_c():
        server = ViolationServer.from_log(log, stream.sigma, **kwargs)
        await server.start()
        client = await ServeClient.connect("127.0.0.1", server.port)
        bootstrap = await client.subscribe()
        assert client.hello["seq"] == len(stream.updates)
        await client.close()
        await server.stop(checkpoint=False)
        return bootstrap["violations"]

    assert canonical(asyncio.run(phase_c())) == canonical(expected)


def test_start_and_resume_keep_no_candidate_pools(tmp_path):
    """The ledger bootstrap is the one full scan a ledger runs, so it
    releases the candidate pools it derived: neither a start nor a
    recovery from the log (replay, then bootstrap) leaves a pool cache
    behind for a graph version the ledger has moved past."""
    stream = stream_fixture()
    graph = stream.base.copy()
    ledger = ViolationLedger(graph, stream.sigma)
    assert ledger.bootstrap()
    assert peek_view(graph) is None

    log = tmp_path / "updates.jsonl"
    with UpdateLogWriter(log) as writer:
        writer.write_base(stream.base)
        for update in stream.updates[:CRASH_AFTER]:
            writer.append(update)
    server = ViolationServer.from_log(log, stream.sigma)
    try:
        assert server.seq == CRASH_AFTER
        assert len(server.ledger)
        assert peek_view(server.graph) is None
    finally:
        asyncio.run(server.stop(checkpoint=False))


def test_recovery_reads_the_log_once_and_forks_no_worker(tmp_path, monkeypatch):
    """A recovery hands the replay's last seq to its log writer, which
    then does not read the file again, and starts no worker process,
    so no child inherits the collector that ``cli serve`` pauses for
    recovery."""
    import multiprocessing

    stream = stream_fixture()
    log = tmp_path / "updates.jsonl"
    with UpdateLogWriter(log) as writer:
        writer.write_base(stream.base)
        for update in stream.updates[:CRASH_AFTER]:
            writer.append(update)

    def no_second_read(path):
        raise AssertionError(f"{path} read again to resume its seq")

    monkeypatch.setattr(UpdateLogWriter, "_resume_seq", staticmethod(no_second_read))
    children = set(multiprocessing.active_children())
    server = ViolationServer.from_log(log, stream.sigma)
    try:
        assert server.seq == CRASH_AFTER
        assert set(multiprocessing.active_children()) <= children
    finally:
        asyncio.run(server.stop(checkpoint=False))


def test_resume_requires_base_graph_for_fresh_log(tmp_path):
    from repro.errors import GraphError

    with pytest.raises(GraphError, match="base_graph"):
        ViolationServer.from_log(tmp_path / "missing.jsonl", stream_fixture().sigma)


def test_ephemeral_server_has_no_durability(tmp_path):
    """Without a log path nothing is written anywhere (ephemeral mode)."""
    stream = stream_fixture()
    graph = stream.base.copy()

    async def scenario():
        async with ViolationServer(graph, stream.sigma) as server:
            client = await ServeClient.connect("127.0.0.1", server.port)
            await client.send_update(stream.updates[0])
            await client.close()

    asyncio.run(scenario())
    assert list(tmp_path.iterdir()) == []


class TestTornFinalRecord:
    """A SIGKILL mid-write leaves the log's last record cut short (the
    crash model of Pillai et al., "All File Systems Are Not Created
    Equal", OSDI 2014).  ``from_log`` resumes from the intact prefix,
    and the next append leaves a log that replays cleanly."""

    @staticmethod
    def checkpointed_log(tmp_path, last):
        """A log whose last record is a checkpoint (seq 4) or the update
        batch after it (seq 5); returns its path and its lines."""
        stream = stream_fixture()
        live = stream.base.copy()
        log = tmp_path / "updates.jsonl"
        with UpdateLogWriter(log, checkpoint_every=2) as writer:
            writer.write_base(live)
            for update in stream.updates[: 4 if last == "checkpoint" else 5]:
                apply_update_plain(live, update)
                writer.append(update, live)
        lines = log.read_bytes().splitlines(keepends=True)
        assert json.loads(lines[-1])["type"] == last
        return stream, log, lines

    @pytest.mark.parametrize("last", ["checkpoint", "update"])
    @pytest.mark.parametrize("kept", [1, 0.5, -2, -1], ids=["1B", "half", "no-brace", "no-newline"])
    def test_resume_from_the_intact_prefix(self, tmp_path, last, kept):
        from repro.graph.io import replay_update_log

        stream, log, lines = self.checkpointed_log(tmp_path, last)
        final = lines[-1]
        cut = int(len(final) * kept) if isinstance(kept, float) else kept % len(final)
        log.write_bytes(b"".join(lines[:-1]) + final[:cut])
        complete = kept == -1  # only the "\n" is missing: the record parses
        reference = tmp_path / "reference.jsonl"
        reference.write_bytes(b"".join(lines if complete else lines[:-1]))
        expected = replay_update_log(reference)

        server = ViolationServer.from_log(log, stream.sigma)
        try:
            assert server.seq == expected.last_seq == (5 if last == "update" and complete else 4)
            assert server.graph == expected.graph
            assert server.graph.node_ids == expected.graph.node_ids
            assert list(server.graph._edges) == list(expected.graph._edges)
            next_update = stream.updates[server.seq]
            server._apply(next_update)
        finally:
            asyncio.run(server.stop(checkpoint=False))

        replayed = replay_update_log(log)
        assert replayed.last_seq == expected.last_seq + 1
        apply_update_plain(expected.graph, next_update)
        assert replayed.graph == expected.graph == server.graph
        text = log.read_text()
        assert text.endswith("\n")
        assert [json.loads(line)["seq"] for line in text.splitlines()][-1] == replayed.last_seq

    @pytest.mark.parametrize("kept", [1, 0.5, -2], ids=["1B", "half", "no-brace"])
    def test_torn_base_checkpoint_is_rewritten(self, tmp_path, kept):
        """A crash that tears the seq-0 base checkpoint, the log's only
        record, leaves nothing to recover from: restarting with the base
        graph writes the base checkpoint again, so the log replays on
        its own."""
        from repro.graph.io import replay_update_log

        stream = stream_fixture()
        log = tmp_path / "updates.jsonl"
        with UpdateLogWriter(log) as writer:
            writer.write_base(stream.base)
        (base,) = log.read_bytes().splitlines(keepends=True)
        cut = int(len(base) * kept) if isinstance(kept, float) else kept % len(base)
        log.write_bytes(base[:cut])

        server = ViolationServer.from_log(log, stream.sigma, base_graph=stream.base.copy())
        try:
            assert server.seq == 0
            assert log.read_bytes() == base
            server._apply(stream.updates[0])
        finally:
            asyncio.run(server.stop(checkpoint=False))

        replayed = replay_update_log(log)
        assert (replayed.resumed_from, replayed.last_seq) == (0, 1)
        assert replayed.graph == server.graph
