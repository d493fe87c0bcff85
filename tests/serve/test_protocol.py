"""Unit tests for the wire codec: canonical encoding, both framings,
first-byte auto-detection, and malformed-input rejection."""

import asyncio
import json

import pytest

from repro.serve.protocol import (
    LENGTH_PREFIXED,
    LINE_DELIMITED,
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frames,
    decode_payload,
    detect_framing,
    encode_frame,
    encode_payload,
    read_frame,
)


def run(coro):
    return asyncio.run(coro)


def feed(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


class TestCanonicalEncoding:
    def test_compact_sorted_utf8(self):
        payload = encode_payload({"type": "bye", "reason": "x", "a": 1})
        assert payload == b'{"a":1,"reason":"x","type":"bye"}'

    def test_key_order_independent(self):
        a = encode_payload({"type": "ack", "seq": 1, "introduced": 0})
        b = encode_payload({"introduced": 0, "seq": 1, "type": "ack"})
        assert a == b

    def test_roundtrip_preserves_value_types(self):
        frame = {
            "type": "update",
            "update": {"attrs": [["n", "score", 1.5], ["m", "flag", True], ["o", "x", None]]},
        }
        assert decode_payload(encode_payload(frame)) == frame

    def test_unknown_type_rejected_on_encode_and_decode(self):
        with pytest.raises(ProtocolError, match="unknown frame type"):
            encode_payload({"type": "gossip"})
        with pytest.raises(ProtocolError, match="unknown frame type"):
            decode_payload(b'{"type":"gossip"}')

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            encode_payload(["type", "bye"])
        with pytest.raises(ProtocolError):
            decode_payload(b"[1,2]")
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_payload(b"{nope")
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_payload(b"\xff\xfe")  # not UTF-8

    def test_unserializable_frame_rejected(self):
        with pytest.raises(ProtocolError, match="not JSON-representable"):
            encode_payload({"type": "bye", "reason": {1, 2}})


class TestFraming:
    def test_length_prefix_layout(self):
        frame = {"type": "bye"}
        wire = encode_frame(frame, LENGTH_PREFIXED)
        payload = encode_payload(frame)
        assert wire[:4] == len(payload).to_bytes(4, "big")
        assert wire[0] == 0  # the auto-detection invariant
        assert wire[4:] == payload

    def test_line_layout(self):
        wire = encode_frame({"type": "bye"}, LINE_DELIMITED)
        assert wire.endswith(b"\n") and wire.count(b"\n") == 1
        assert wire[0:1] == b"{"  # the auto-detection invariant

    def test_decode_frames_multiple(self):
        frames = [{"type": "bye"}, {"type": "ack", "seq": 2}]
        for framing in (LENGTH_PREFIXED, LINE_DELIMITED):
            wire = b"".join(encode_frame(f, framing) for f in frames)
            assert decode_frames(wire, framing) == frames

    def test_decode_frames_truncation(self):
        wire = encode_frame({"type": "bye"}, LENGTH_PREFIXED)
        with pytest.raises(ProtocolError, match="truncated"):
            decode_frames(wire[:-1], LENGTH_PREFIXED)
        with pytest.raises(ProtocolError, match="trailing bytes"):
            decode_frames(b'{"type":"bye"}', LINE_DELIMITED)  # no newline

    def test_bad_framing_name(self):
        with pytest.raises(ProtocolError, match="framing"):
            encode_frame({"type": "bye"}, "morse")
        with pytest.raises(ProtocolError, match="framing"):
            decode_frames(b"", "morse")

    def test_oversized_length_prefix_rejected(self):
        wire = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x"
        with pytest.raises(ProtocolError, match="cap"):
            decode_frames(wire, LENGTH_PREFIXED)

    def test_oversized_payload_rejected_on_encode_and_decode(self):
        frame = {"type": "bye", "reason": "x" * MAX_FRAME_BYTES}
        with pytest.raises(ProtocolError, match="exceeds the .*-byte cap"):
            encode_payload(frame)
        with pytest.raises(ProtocolError, match="exceeds the .*-byte cap"):
            decode_payload(b" " * (MAX_FRAME_BYTES + 1))

    def test_largest_payload_under_the_cap_round_trips(self):
        overhead = len(encode_payload({"type": "bye", "reason": ""}))
        frame = {"type": "bye", "reason": "x" * (MAX_FRAME_BYTES - overhead)}
        wire = encode_frame(frame, LENGTH_PREFIXED)
        assert int.from_bytes(wire[:4], "big") == MAX_FRAME_BYTES
        assert decode_frames(wire, LENGTH_PREFIXED) == [frame]

    def test_truncated_length_prefix_rejected(self):
        wire = encode_frame({"type": "bye"}, LENGTH_PREFIXED)
        with pytest.raises(ProtocolError, match="truncated length prefix"):
            decode_frames(wire + wire[:3], LENGTH_PREFIXED)


class TestStreamReaders:
    def test_detect_length_prefixed(self):
        async def scenario():
            reader = feed(encode_frame({"type": "bye"}, LENGTH_PREFIXED))
            framing = await detect_framing(reader)
            assert framing == LENGTH_PREFIXED
            # Detection must not consume the byte it peeked.
            assert await read_frame(reader, framing) == {"type": "bye"}

        run(scenario())

    def test_detect_line_delimited(self):
        async def scenario():
            reader = feed(encode_frame({"type": "bye"}, LINE_DELIMITED))
            framing = await detect_framing(reader)
            assert framing == LINE_DELIMITED
            assert await read_frame(reader, framing) == {"type": "bye"}

        run(scenario())

    def test_detect_garbage(self):
        async def scenario():
            with pytest.raises(ProtocolError, match="cannot detect framing"):
                await detect_framing(feed(b"GET / HTTP/1.1\r\n"))

        run(scenario())

    def test_read_frame_clean_eof_returns_none(self):
        async def scenario():
            assert await read_frame(feed(b""), LENGTH_PREFIXED) is None
            assert await read_frame(feed(b""), LINE_DELIMITED) is None

        run(scenario())

    def test_read_frame_mid_frame_eof_raises(self):
        async def scenario():
            wire = encode_frame({"type": "bye"}, LENGTH_PREFIXED)
            with pytest.raises(ProtocolError, match="mid length prefix"):
                await read_frame(feed(wire[:2]), LENGTH_PREFIXED)
            with pytest.raises(ProtocolError, match="mid frame payload"):
                await read_frame(feed(wire[:-2]), LENGTH_PREFIXED)
            with pytest.raises(ProtocolError, match="mid line-delimited"):
                await read_frame(feed(b'{"type":"bye"'), LINE_DELIMITED)

        run(scenario())

    def test_read_frame_oversized_length_prefix_rejected(self):
        async def scenario():
            wire = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"{}"
            with pytest.raises(ProtocolError, match="length prefix .* exceeds"):
                await read_frame(feed(wire), LENGTH_PREFIXED)

        run(scenario())

    def test_read_frame_unknown_framing_rejected(self):
        async def scenario():
            with pytest.raises(ProtocolError, match="framing must be one of"):
                await read_frame(feed(b'{"type":"bye"}\n'), "morse")

        run(scenario())

    def test_line_longer_than_the_stream_limit_rejected(self):
        async def scenario():
            reader = asyncio.StreamReader(limit=16)
            reader.feed_data(encode_frame({"type": "bye", "reason": "x" * 64}, LINE_DELIMITED))
            reader.feed_eof()
            with pytest.raises(ProtocolError, match="exceeds the stream limit"):
                await read_frame(reader, LINE_DELIMITED)

        run(scenario())

    def test_blank_line_reads_as_end_of_stream(self):
        async def scenario():
            assert await read_frame(feed(b"  \n"), LINE_DELIMITED) is None
            # Trailing whitespace after the last frame is a clean EOF too.
            reader = feed(encode_frame({"type": "bye"}, LINE_DELIMITED) + b"  ")
            assert await read_frame(reader, LINE_DELIMITED) == {"type": "bye"}
            assert await read_frame(reader, LINE_DELIMITED) is None

        run(scenario())

    def test_read_frame_sequence(self):
        async def scenario():
            frames = [{"type": "ack", "seq": n} for n in range(3)]
            reader = feed(b"".join(encode_frame(f, LENGTH_PREFIXED) for f in frames))
            seen = []
            while (frame := await read_frame(reader, LENGTH_PREFIXED)) is not None:
                seen.append(frame)
            assert seen == frames

        run(scenario())


def test_update_payload_matches_log_encoding():
    """The update frame body is exactly the update-log encoding —
    a log line's ``update`` field can be re-published verbatim."""
    from repro.graph.io import update_from_dict, update_to_dict
    from repro.graph.update import GraphUpdate

    update = GraphUpdate(
        nodes=[("u7", "user", {"score": 2})],
        edges=[("u7", "buys", "i3")],
        del_nodes=["u2"],
    )
    body = update_to_dict(update)
    frame = {"type": "update", "update": body}
    decoded = decode_payload(encode_payload(frame))
    assert update_to_dict(update_from_dict(decoded["update"])) == body
    assert json.dumps(decoded["update"], sort_keys=True) == json.dumps(body, sort_keys=True)
