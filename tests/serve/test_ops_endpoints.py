"""The HTTP ops surface on the serve listener: /healthz and /metrics.

Plain HTTP/1.1 GETs share the TCP listener with the framed protocol
(docs/serve-protocol.md §9): the server routes on the first byte, so a
protocol client and a curl can coexist on one port.  These tests speak
raw HTTP over asyncio sockets — no client library — against an
in-process :class:`ViolationServer`.
"""

import asyncio
import json
import socket
import struct

import pytest

from repro.serve import ServeClient, ViolationServer
from repro.telemetry import metrics
from repro.workloads import churn_stream

from tests.telemetry.test_prometheus_parse import check_histogram, parse_exposition

SEED = 25


def stream_fixture():
    return churn_stream(n_nodes=30, batches=6, batch_size=6, rng=SEED)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    metrics.disable()
    metrics.reset()
    yield
    metrics.disable()
    metrics.reset()


async def http_request(port: int, request: str) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request.encode("ascii"))
    await writer.drain()
    response = await reader.read()
    writer.close()
    return response


def split_response(raw: bytes) -> tuple[str, dict, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("ascii").split("\r\n")
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(": ")
        headers[key.lower()] = value
    return lines[0], headers, body


class TestHealthz:
    def test_health_payload_fields(self):
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                raw = await http_request(
                    server.port, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                status, headers, body = split_response(raw)
                assert status == "HTTP/1.1 200 OK"
                assert headers["content-type"].startswith("application/json")
                assert int(headers["content-length"]) == len(body)
                assert headers["connection"] == "close"
                payload = json.loads(body)
                assert payload["status"] == "ok"
                assert payload["seq"] == server.seq
                assert payload["epoch"] == server.epoch
                assert "backend" not in payload
                assert payload["subscribers"] == 0
                assert payload["violations"] == len(server.ledger)
                assert "queue_depth_p99" in payload
                assert payload["telemetry"] is False

        run(scenario())

    def test_subscriber_count_is_live(self):
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                client = await ServeClient.connect("127.0.0.1", server.port)
                await client.subscribe()
                raw = await http_request(
                    server.port, "GET /healthz HTTP/1.1\r\n\r\n"
                )
                _, _, body = split_response(raw)
                assert json.loads(body)["subscribers"] == 1
                await client.close()

        run(scenario())


class TestMetrics:
    def test_exposition_parses_and_carries_serve_gauges(self):
        stream = stream_fixture()
        graph = stream.base.copy()
        metrics.enable()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                client = await ServeClient.connect("127.0.0.1", server.port)
                await client.send_update(stream.updates[0])
                raw = await http_request(
                    server.port, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                status, headers, body = split_response(raw)
                assert status == "HTTP/1.1 200 OK"
                assert headers["content-type"].startswith("text/plain")
                assert "version=0.0.4" in headers["content-type"]
                families = parse_exposition(body.decode("utf-8"))
                assert families["repro_serve_seq"]["samples"][0][2] == 1.0
                assert families["repro_serve_updates"]["type"] == "counter"
                assert "repro_serve_subscribers" in families
                check_histogram(
                    "repro_serve_apply_seconds",
                    families["repro_serve_apply_seconds"],
                )
                await client.close()

        run(scenario())

    def test_metrics_respond_even_when_telemetry_disabled(self):
        # The scrape must not 500 on a cold registry: serve.seq/epoch
        # gauges are folded in from server state at scrape time.
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                raw = await http_request(server.port, "GET /metrics HTTP/1.1\r\n\r\n")
                status, _, body = split_response(raw)
                assert status == "HTTP/1.1 200 OK"
                families = parse_exposition(body.decode("utf-8"))
                assert "repro_serve_seq" in families

        run(scenario())

    def test_reset_subscriber_is_counted_and_publisher_served(self):
        """A subscriber that resets its socket mid-stream shows up as a
        connection error on /metrics; the publisher keeps getting acks."""
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                victim = await ServeClient.connect("127.0.0.1", server.port)
                pub = await ServeClient.connect("127.0.0.1", server.port)
                await victim.subscribe()
                await pub.send_update(stream.updates[0])
                assert (await victim.next_event(timeout=5))["seq"] == 1

                # A zero linger makes the close send RST, not FIN.
                sock = victim._writer.get_extra_info("socket")
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                victim._writer.transport.abort()

                for seq, update in enumerate(stream.updates[1:4], start=2):
                    assert (await pub.send_update(update))["seq"] == seq

                def counted():
                    return sum(
                        value
                        for name, value in server.stats().items()
                        if name.startswith("serve.connection_errors.")
                    )

                for _ in range(50):
                    if counted():
                        break
                    await asyncio.sleep(0.02)
                assert counted() > 0
                raw = await http_request(server.port, "GET /metrics HTTP/1.1\r\n\r\n")
                families = parse_exposition(split_response(raw)[2].decode("utf-8"))
                exposed = [
                    name for name in families if name.startswith("repro_serve_connection_errors_")
                ]
                assert exposed
                assert all(families[name]["type"] == "counter" for name in exposed)
                assert server.subscriber_count == 0
                await pub.close()

        run(scenario())


class TestHttpEdges:
    def test_unknown_path_404s(self):
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                raw = await http_request(server.port, "GET /nope HTTP/1.1\r\n\r\n")
                status, _, body = split_response(raw)
                assert status == "HTTP/1.1 404 Not Found"
                assert json.loads(body) == {"error": "not found"}

        run(scenario())

    def test_head_sends_headers_only(self):
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                raw = await http_request(server.port, "HEAD /healthz HTTP/1.1\r\n\r\n")
                status, headers, body = split_response(raw)
                assert status == "HTTP/1.1 200 OK"
                assert int(headers["content-length"]) > 0
                assert body == b""

        run(scenario())

    def test_protocol_clients_unaffected_by_http_traffic(self):
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                await http_request(server.port, "GET /healthz HTTP/1.1\r\n\r\n")
                client = await ServeClient.connect("127.0.0.1", server.port)
                ack = await client.send_update(stream.updates[0])
                assert ack["type"] == "ack" and ack["seq"] == 1
                await client.close()

        run(scenario())

    def test_http_requests_counted(self):
        stream = stream_fixture()
        graph = stream.base.copy()
        metrics.enable()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                await http_request(server.port, "GET /healthz HTTP/1.1\r\n\r\n")
                raw = await http_request(server.port, "GET /metrics HTTP/1.1\r\n\r\n")
                families = parse_exposition(raw.partition(b"\r\n\r\n")[2].decode())
                assert families["repro_serve_http_requests"]["samples"][0][2] >= 2.0

        run(scenario())
