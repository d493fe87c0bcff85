"""End-to-end tests for :class:`~repro.serve.server.ViolationServer`.

Real TCP on localhost, real clients, both framings.  The scenarios map
onto the guarantees of ``docs/serve-protocol.md`` §7: serial
application, ack ⇒ durable, gap-free per-subscriber streams, snapshot
consistency, cross-subscriber agreement — plus the failure paths
(malformed frames, rejected updates, dead subscribers, queue overflow,
and server crash + resume from the durable log).
"""

import asyncio
import json

import pytest

from repro.graph.update import GraphUpdate
from repro.reasoning import find_violations
from repro.serve import ProtocolError, ServeClient, ViolationServer
from repro.serve.protocol import LENGTH_PREFIXED, LINE_DELIMITED, decode_frames, encode_frame
from repro.streaming import ViolationLedger, canonical_report, violation_to_dict
from repro.workloads import churn_stream

# rng=25: 6 bootstrap violations across all three named rules, and the
# update batches introduce/retire violations (nonzero delta activity).
SEED = 25


def stream_fixture():
    return churn_stream(n_nodes=30, batches=6, batch_size=6, rng=SEED)


def run(coro):
    return asyncio.run(coro)


def expected_report(graph, sigma):
    """The from-scratch violation set, in the wire representation."""
    return [
        violation_to_dict(v)
        for v in canonical_report(sigma, find_violations(graph, sigma))
    ]


def fold(state: dict, delta_frame: dict) -> dict:
    """Fold one delta frame over a bootstrap-derived state dict, asserting
    the introduced/retired/updated key discipline along the way."""
    def key(v):
        return (v["rule"], json.dumps(v["match"]))

    for v in delta_frame["retired"]:
        assert key(v) in state, f"retired unknown violation {v}"
        del state[key(v)]
    for v in delta_frame["updated"]:
        assert key(v) in state, f"updated unknown violation {v}"
        state[key(v)] = v
    for v in delta_frame["introduced"]:
        assert key(v) not in state, f"introduced duplicate violation {v}"
        state[key(v)] = v
    return state


def as_state(bootstrap_frame: dict) -> dict:
    return {
        (v["rule"], json.dumps(v["match"])): v
        for v in bootstrap_frame["violations"]
    }


def sorted_values(state: dict) -> list[dict]:
    return sorted(state.values(), key=lambda v: json.dumps(v, sort_keys=True))


class TestSessionBasics:
    def test_hello_bootstrap_and_ack_delta_agreement(self):
        """One subscriber, one publisher: the bootstrap equals the
        from-scratch report, acks and deltas share gap-free seqs, and
        folding the deltas over the bootstrap reproduces the end state."""
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                sub = await ServeClient.connect("127.0.0.1", server.port)
                pub = await ServeClient.connect("127.0.0.1", server.port)
                bootstrap = await sub.subscribe()
                assert sub.hello["protocol"] == 1
                assert sub.hello["rules"] == len(stream.sigma)
                assert bootstrap["seq"] == 0 and bootstrap["epoch"] == 0
                assert bootstrap["violations"] == expected_report(graph, stream.sigma)

                state = as_state(bootstrap)
                for n, update in enumerate(stream.updates, start=1):
                    ack = await pub.send_update(update)
                    assert ack["type"] == "ack" and ack["seq"] == n
                    delta = await sub.next_event(timeout=5)
                    assert delta["type"] == "delta" and delta["seq"] == n
                    assert len(delta["introduced"]) == ack["introduced"]
                    assert len(delta["retired"]) == ack["retired"]
                    assert len(delta["updated"]) == ack["updated"]
                    fold(state, delta)

                assert sorted_values(state) == sorted(
                    expected_report(graph, stream.sigma),
                    key=lambda v: json.dumps(v, sort_keys=True),
                )
                await sub.close()
                await pub.close()

        run(scenario())

    def test_mixed_framings_same_session(self):
        """A length-prefixed subscriber and a line-delimited publisher
        interoperate; the server answers each in its own framing."""
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                sub = await ServeClient.connect(
                    "127.0.0.1", server.port, framing=LENGTH_PREFIXED
                )
                pub = await ServeClient.connect(
                    "127.0.0.1", server.port, framing=LINE_DELIMITED
                )
                await sub.subscribe()
                ack = await pub.send_update(stream.updates[0])
                assert ack["seq"] == 1
                delta = await sub.next_event(timeout=5)
                assert delta["type"] == "delta" and delta["seq"] == 1
                await sub.close()
                await pub.close()

        run(scenario())

    def test_late_attach_bootstrap_is_snapshot_consistent(self):
        """A subscriber attaching after k batches bootstraps at seq k
        with exactly the state an early subscriber folded to (§7.4)."""
        stream = stream_fixture()
        graph = stream.base.copy()
        k = 3

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                early = await ServeClient.connect("127.0.0.1", server.port)
                pub = await ServeClient.connect("127.0.0.1", server.port)
                state = as_state(await early.subscribe())
                for update in stream.updates[:k]:
                    await pub.send_update(update)
                    fold(state, await early.next_event(timeout=5))

                late = await ServeClient.connect("127.0.0.1", server.port)
                bootstrap = await late.subscribe()
                assert bootstrap["seq"] == k
                assert sorted_values(as_state(bootstrap)) == sorted_values(state)

                # Both streams continue gap-free and agree (§7.5).
                await pub.send_update(stream.updates[k])
                early_delta = await early.next_event(timeout=5)
                late_delta = await late.next_event(timeout=5)
                assert early_delta == late_delta
                assert late_delta["seq"] == k + 1
                for client in (early, late, pub):
                    await client.close()

        run(scenario())

    def test_publisher_can_also_subscribe(self):
        """One connection acting as both roles gets its own deltas."""
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                both = await ServeClient.connect("127.0.0.1", server.port)
                await both.subscribe()
                ack = await both.send_update(stream.updates[0])
                delta = await both.next_event(timeout=5)
                assert delta["type"] == "delta" and delta["seq"] == ack["seq"]
                await both.close()

        run(scenario())

    def test_served_stream_matches_the_in_process_ledger(self):
        """The wire stream carries exactly the ledger's deltas: a
        subscriber's frames equal an in-process ledger's deltas over the
        same batches, minus the fields only the ledger reports."""
        stream = stream_fixture()
        ledger = ViolationLedger(stream.base.copy(), stream.sigma)
        expected = [expected_report(ledger.graph, stream.sigma)]
        ledger.bootstrap()
        for update in stream.updates:
            payload = ledger.refresh(update).to_dict()
            for field in ("rechecked", "touched", "wall_seconds"):
                del payload[field]
            expected.append({"type": "delta", **payload})

        async def scenario():
            async with ViolationServer(stream.base.copy(), stream.sigma) as server:
                sub = await ServeClient.connect("127.0.0.1", server.port)
                pub = await ServeClient.connect("127.0.0.1", server.port)
                frames = [(await sub.subscribe())["violations"]]
                for update in stream.updates:
                    await pub.send_update(update)
                    frames.append(await sub.next_event(timeout=5))
                await sub.close()
                await pub.close()
            return frames

        frames = run(asyncio.wait_for(scenario(), 30))
        assert frames == expected
        assert any(frame["introduced"] or frame["retired"] for frame in frames[1:])


class TestLifecycle:
    def test_port_is_unknown_before_start(self):
        stream = stream_fixture()
        server = ViolationServer(stream.base.copy(), stream.sigma)
        with pytest.raises(RuntimeError, match="not started"):
            server.port

    def test_run_binds_and_stops_after_max_batches(self, tmp_path):
        """``run`` binds an unstarted server and, bounded, stops itself
        (checkpointing the log) once the last allowed batch is acked."""
        stream = stream_fixture()
        log = tmp_path / "updates.jsonl"
        server = ViolationServer(stream.base.copy(), stream.sigma, log_path=log)

        async def scenario():
            serving = asyncio.create_task(server.run(max_batches=2))
            for _ in range(500):
                try:
                    port = server.port
                    break
                except RuntimeError:
                    await asyncio.sleep(0.01)
            else:
                raise AssertionError("run() never bound the listener")
            client = await ServeClient.connect("127.0.0.1", port)
            await client.subscribe()
            acks = [await client.send_update(update) for update in stream.updates[:2]]
            await asyncio.wait_for(serving, timeout=5)
            frames = [await client.next_event(timeout=5) for _ in range(3)]
            await client.close()
            return acks, frames

        acks, frames = run(asyncio.wait_for(scenario(), 30))
        assert [ack["seq"] for ack in acks] == [1, 2]
        assert [frame["type"] for frame in frames] == ["delta", "delta", "bye"]
        assert server.stats()["batches_applied"] == 2
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [(r["type"], r["seq"]) for r in records] == [
            ("checkpoint", 0),
            ("update", 1),
            ("update", 2),
            ("checkpoint", 2),
        ]


class TestErrorPaths:
    def test_garbage_first_byte_closes_connection(self):
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"XYZZY\n")
                await writer.drain()
                assert await reader.read() == b""  # server hung up, silently
                writer.close()

        run(scenario())

    def test_unknown_http_path_gets_404_then_close(self):
        # GET/HEAD first bytes now select the ops surface (spec §9);
        # unknown paths answer 404 and the connection closes.
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                response = await reader.read()
                assert response.startswith(b"HTTP/1.1 404")
                assert b"Connection: close" in response
                writer.close()

        run(scenario())

    def test_malformed_frame_gets_fatal_error_then_bye(self):
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"{this is not json\n")
                await writer.drain()
                frames = decode_frames(await reader.read(), LINE_DELIMITED)
                assert [f["type"] for f in frames] == ["hello", "error", "bye"]
                assert frames[1]["code"] == "bad-frame" and frames[1]["fatal"]
                writer.close()

        run(scenario())

    def test_server_only_frame_type_is_rejected_nonfatally(self):
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(encode_frame({"type": "delta", "seq": 9}, LINE_DELIMITED))
                writer.write(encode_frame({"type": "bye"}, LINE_DELIMITED))
                await writer.drain()
                frames = decode_frames(await reader.read(), LINE_DELIMITED)
                assert [f["type"] for f in frames] == ["hello", "error"]
                assert frames[1]["code"] == "bad-type" and not frames[1]["fatal"]
                writer.close()

        run(scenario())

    def test_rejected_update_consumes_no_seq_and_leaves_no_trace(self, tmp_path):
        """A batch that fails validation is refused before the log
        append: no ack, no seq, no delta, no durable record (§5.2)."""
        stream = stream_fixture()
        graph = stream.base.copy()
        log = tmp_path / "updates.jsonl"

        async def scenario():
            server = ViolationServer(graph, stream.sigma, log_path=log)
            async with server:
                client = await ServeClient.connect("127.0.0.1", server.port)
                await client.subscribe()
                with pytest.raises(ProtocolError, match="no-such-node"):
                    await client.send_update(GraphUpdate(del_nodes=["no-such-node"]))
                # The connection survives; the next good batch is seq 1.
                ack = await client.send_update(stream.updates[0])
                assert ack["seq"] == 1
                assert server.stats()["serve.updates_rejected"] == 1
                await client.close()

        run(scenario())
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["seq"] for r in records if r["type"] == "update"] == [1]

    def test_undecodable_update_is_rejected(self):
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                client = await ServeClient.connect("127.0.0.1", server.port)
                with pytest.raises(ProtocolError):
                    await client.send_update({"nodes": "not-a-list"})
                await client.close()

        run(scenario())


class TestSubscriberDeath:
    def test_killed_subscriber_detaches_and_service_continues(self):
        """An abrupt disconnect (no bye) detaches the subscriber; other
        clients keep their gap-free stream."""
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                victim = await ServeClient.connect("127.0.0.1", server.port)
                survivor = await ServeClient.connect("127.0.0.1", server.port)
                pub = await ServeClient.connect("127.0.0.1", server.port)
                await victim.subscribe()
                await survivor.subscribe()
                assert server.subscriber_count == 2

                await pub.send_update(stream.updates[0])
                assert (await survivor.next_event(timeout=5))["seq"] == 1

                # Kill the victim's socket without a bye frame.
                victim._writer.transport.abort()

                for n, update in enumerate(stream.updates[1:4], start=2):
                    await pub.send_update(update)
                    assert (await survivor.next_event(timeout=5))["seq"] == n

                # The dead connection has been reaped.
                for _ in range(50):
                    if server.subscriber_count == 1:
                        break
                    await asyncio.sleep(0.02)
                assert server.subscriber_count == 1
                await survivor.close()
                await pub.close()

        run(scenario())
