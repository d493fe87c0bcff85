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


@pytest.mark.parametrize("backend", ["engine", "fragment"])
def test_recovery_reads_the_log_once_and_forks_no_worker(tmp_path, monkeypatch, backend):
    """A recovery hands the replay's last seq to its log writer, which
    then does not read the file again, and starts no worker process:
    the engine and fragment pools start on the first batch, so no child
    inherits the collector that ``cli serve`` pauses for recovery."""
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
    server = ViolationServer.from_log(log, stream.sigma, backend=backend, workers=2)
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
