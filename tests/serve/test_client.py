"""ServeClient's side of the contract: the greeting and bootstrap it
insists on, a connection that drops under a pending request, and the
iterator, filter-object and context-manager surfaces.

The contract checks run against scripted peers (a bare asyncio listener
that writes chosen frames), the surfaces against a real
:class:`~repro.serve.server.ViolationServer`.
"""

import asyncio

import pytest

from repro.graph.update import GraphUpdate
from repro.serve import ProtocolError, ServeClient, SubscriptionFilter, ViolationServer
from repro.serve.protocol import LENGTH_PREFIXED, encode_frame, read_frame
from repro.workloads import churn_stream


def run(coro):
    """Run a scenario, failing it instead of hanging past 30 s."""
    return asyncio.run(asyncio.wait_for(coro, 30))


async def scripted_peer(frames):
    """A listener that reads the client's first frame, answers with
    ``frames`` (length-prefixed) and hangs up."""

    async def handle(reader, writer):
        await read_frame(reader, LENGTH_PREFIXED)
        for frame in frames:
            writer.write(encode_frame(frame, LENGTH_PREFIXED))
        await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


HELLO = {"type": "hello", "protocol": 1, "seq": 0, "epoch": 0, "rules": 0, "violations": 0}


class TestScriptedPeers:
    def test_a_first_frame_other_than_hello_is_refused(self):
        async def scenario():
            server, port = await scripted_peer(
                [{"type": "bootstrap", "seq": 0, "epoch": 0, "violations": []}]
            )
            async with server:
                client = await ServeClient.connect("127.0.0.1", port)
                with pytest.raises(ProtocolError, match="expected hello, got 'bootstrap'"):
                    await client.subscribe()
                await client.close()

        run(scenario())

    def test_a_subscribe_answered_by_a_delta_is_refused(self):
        async def scenario():
            server, port = await scripted_peer(
                [HELLO, {"type": "delta", "seq": 1, "introduced": [], "retired": [], "updated": []}]
            )
            async with server:
                client = await ServeClient.connect("127.0.0.1", port)
                with pytest.raises(ProtocolError, match="expected bootstrap, got 'delta'"):
                    await client.subscribe()
                await client.close()

        run(scenario())

    def test_a_pending_update_fails_when_the_connection_drops(self):
        async def scenario():
            server, port = await scripted_peer([HELLO])
            async with server:
                client = await ServeClient.connect("127.0.0.1", port)
                with pytest.raises(ConnectionError, match="connection closed"):
                    await client.send_update(GraphUpdate(del_nodes=["ghost"]))
                assert client.closed
                # The reader task ends the event stream with a bye.
                assert (await client.next_event(timeout=5))["type"] == "bye"
                await client.close()

        run(scenario())


def stream_fixture():
    return churn_stream(n_nodes=30, batches=3, batch_size=6, rng=25)


class TestSurfaces:
    def test_events_iterates_until_the_server_says_bye(self):
        stream = stream_fixture()

        async def scenario():
            server = ViolationServer(stream.base.copy(), stream.sigma)
            await server.start()
            sub = await ServeClient.connect("127.0.0.1", server.port)
            pub = await ServeClient.connect("127.0.0.1", server.port)
            await sub.subscribe()
            for update in stream.updates:
                await pub.send_update(update)
            await pub.close()
            await server.stop()
            seen = [frame async for frame in sub.events()]
            await sub.close()
            return seen

        seen = run(scenario())
        assert [frame["type"] for frame in seen] == ["delta"] * len(stream.updates) + ["bye"]
        assert [frame["seq"] for frame in seen[:-1]] == list(range(1, len(stream.updates) + 1))

    def test_a_filter_object_subscribes_like_its_dictionary(self):
        stream = stream_fixture()
        rule = stream.sigma[0].name

        async def scenario():
            async with ViolationServer(stream.base.copy(), stream.sigma) as server:
                by_object = await ServeClient.connect("127.0.0.1", server.port)
                by_dict = await ServeClient.connect("127.0.0.1", server.port)
                first = await by_object.subscribe(SubscriptionFilter.from_dict({"rules": [rule]}))
                second = await by_dict.subscribe({"rules": [rule]})
                unfiltered = await by_dict.subscribe()
                await by_object.close()
                await by_dict.close()
            return first, second, unfiltered

        first, second, unfiltered = run(scenario())
        assert first == second
        assert first["violations"] and all(v["rule"] == rule for v in first["violations"])
        assert len(unfiltered["violations"]) > len(first["violations"])

    def test_context_manager_closes_the_connection(self):
        stream = stream_fixture()

        async def scenario():
            async with ViolationServer(stream.base.copy(), stream.sigma) as server:
                async with await ServeClient.connect("127.0.0.1", server.port) as client:
                    await client.subscribe()
                    assert not client.closed
                assert client.closed
                # The server noticed the bye and detached the subscriber.
                for _ in range(100):
                    if server.subscriber_count == 0:
                        break
                    await asyncio.sleep(0.01)
                return server.subscriber_count

        assert run(scenario()) == 0
