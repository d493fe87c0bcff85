"""The bounded-queue overflow policy (``docs/serve-protocol.md`` §4.2).

Driven deterministically: the subscriber's writer task writes into a
gated fake transport, so the test controls exactly when the queue
drains.  While the gate is shut the apply path keeps enqueueing —
the queue overflows, the backlog is dropped, and one resync marker
takes its place.  When the gate opens, the wire must show: resync
(with an accurate ``dropped`` count), a fresh bootstrap at drain-time
seq, then only deltas *beyond* that bootstrap — no gap, no duplicate.
"""

import asyncio

from repro.serve.protocol import LINE_DELIMITED, decode_frames
from repro.serve.server import DEFAULT_QUEUE_SIZE, ViolationServer, _Subscriber
from repro.workloads import churn_stream


class GatedWriter:
    """A fake StreamWriter whose ``drain`` blocks until the gate opens."""

    def __init__(self):
        self.buffer = bytearray()
        self.gate = asyncio.Event()

    def write(self, data: bytes) -> None:
        self.buffer.extend(data)

    async def drain(self) -> None:
        await self.gate.wait()


def make_stream():
    return churn_stream(n_nodes=30, batches=12, batch_size=6, rng=25)


def attach(server: ViolationServer, queue_size: int) -> tuple[_Subscriber, GatedWriter]:
    wire = GatedWriter()
    subscriber = _Subscriber(server, wire, LINE_DELIMITED, queue_size)
    server._subscribers.append(subscriber)
    subscriber.enqueue_frame(server._bootstrap_frame(subscriber.filter))
    subscriber.start()
    return subscriber, wire


def test_overflow_emits_one_resync_then_rebased_gap_free_stream():
    stream = make_stream()
    graph = stream.base.copy()

    async def scenario():
        server = ViolationServer(graph, stream.sigma, queue_size=4)
        subscriber, wire = attach(server, queue_size=4)
        await asyncio.sleep(0)  # writer task picks up the bootstrap, blocks in drain

        for update in stream.updates:  # 12 batches >> queue of 4: overflow
            server._apply(update)
        assert server.stats()["serve.frames_dropped"] > 0

        wire.gate.set()
        while not subscriber.queue.empty():
            await asyncio.sleep(0.01)
        await asyncio.sleep(0.05)  # let the last write land
        subscriber.alive = False
        if subscriber.task:
            subscriber.task.cancel()
        return bytes(wire.buffer), server.seq

    wire_bytes, final_seq = asyncio.run(scenario())
    frames = decode_frames(wire_bytes, LINE_DELIMITED)
    kinds = [f["type"] for f in frames]

    # Shape: initial bootstrap, exactly one resync + re-base, then deltas.
    assert kinds[0] == "bootstrap" and frames[0]["seq"] == 0
    assert kinds.count("resync") == 1
    resync_at = kinds.index("resync")
    resync, rebase = frames[resync_at], frames[resync_at + 1]
    assert resync["dropped"] > 0
    assert rebase["type"] == "bootstrap"
    # The re-base snapshot is taken at drain time — every batch had
    # already been applied, so it carries the final seq ...
    assert rebase["seq"] == final_seq
    # ... and every queued delta at or below it is suppressed: nothing
    # follows that would gap or duplicate the re-based stream.
    tail = frames[resync_at + 2 :]
    seqs = [f["seq"] for f in tail]
    assert all(f["type"] == "delta" for f in tail)
    assert seqs == list(range(rebase["seq"] + 1, rebase["seq"] + 1 + len(tail)))


def test_slow_but_not_overflowing_subscriber_sees_everything():
    """Queue large enough for the burst: the same gated drain, but no
    overflow — the whole stream arrives gap-free with no resync."""
    stream = make_stream()
    graph = stream.base.copy()

    async def scenario():
        server = ViolationServer(graph, stream.sigma)
        subscriber, wire = attach(server, queue_size=DEFAULT_QUEUE_SIZE)
        await asyncio.sleep(0)

        for update in stream.updates:
            server._apply(update)

        wire.gate.set()
        while not subscriber.queue.empty():
            await asyncio.sleep(0.01)
        await asyncio.sleep(0.05)
        subscriber.alive = False
        if subscriber.task:
            subscriber.task.cancel()
        return bytes(wire.buffer)

    frames = decode_frames(asyncio.run(scenario()), LINE_DELIMITED)
    assert [f["type"] for f in frames] == ["bootstrap"] + ["delta"] * len(
        make_stream().updates
    )
    assert [f["seq"] for f in frames] == list(range(len(make_stream().updates) + 1))


def test_close_sentinel_survives_overflow():
    """A shutdown queued behind a full backlog must still say bye."""
    stream = make_stream()
    graph = stream.base.copy()

    async def scenario():
        server = ViolationServer(graph, stream.sigma, queue_size=2)
        subscriber, wire = attach(server, queue_size=2)
        await asyncio.sleep(0)
        for update in stream.updates[:6]:
            server._apply(update)
        subscriber.enqueue_close()
        # More overflow *after* the close is queued must not lose it.
        for update in stream.updates[6:]:
            server._apply(update)
        wire.gate.set()
        if subscriber.task:
            await asyncio.wait_for(subscriber.task, timeout=5)
        return bytes(wire.buffer)

    frames = decode_frames(asyncio.run(scenario()), LINE_DELIMITED)
    assert frames[-1]["type"] == "bye"
