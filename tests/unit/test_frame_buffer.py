"""One decoder, three readers: the buffer, and the stream and file readers
that feed it.

:class:`FrameBuffer` decodes bytes a socket has already delivered in one
synchronous pass; ``protocol.read_frame`` (over a ``StreamReader``) and
``read_frame_sync`` (over a file) feed a fresh buffer what it asks for
next.  What is held here: the three return the same frames and the same
errors for the same bytes, however the bytes are cut up on arrival; a
frame that has not fully arrived loses nothing and is resumed where it
stopped, so trickling it in costs one pass; nesting has no depth limit
on any reader; the line limit is the ``StreamReader``'s own, message
for message; and an error reply is cut to fit it.
``tests/properties/test_prop_frame_decoders.py`` holds the buffer to the
coroutine-stepped decoder it replaced, and the readers to the buffer,
over random bytes and deliveries.
"""

from __future__ import annotations

import asyncio
import io
import time
from typing import Any

import pytest

from repro.service import protocol
from repro.service.protocol import (
    FrameBuffer,
    IncompleteFrame,
    ProtocolError,
    ReplyError,
    encode_array,
    encode_bulk,
    encode_command,
    encode_error,
    encode_integer,
    encode_simple,
    read_frame_sync,
)

FRAMES = [
    encode_command("SET", "key", "väl\r\nue"),  # CRLF inside a bulk, UTF-8
    encode_command("PING"),
    encode_simple("OK @epoch=3"),
    encode_integer(-7),
    encode_bulk(None),
    encode_bulk(""),
    encode_array(["1", None]),
    b"*0\r\n",
    b"*2\r\n*1\r\n:1\r\n$1\r\nx\r\n",  # nested
]


def _via_stream_reader(data: bytes) -> list:
    async def read_all() -> list:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = []
        while True:
            try:
                frames.append(await protocol.read_frame(reader))
            except ConnectionError:
                return frames

    return asyncio.run(read_all())


def _via_file(data: bytes) -> list:
    stream = io.BytesIO(data)
    frames = []
    while True:
        try:
            frames.append(read_frame_sync(stream))
        except ConnectionError:
            return frames


def _via_buffer(data: bytes, chunk: int) -> list:
    buffer = FrameBuffer()
    frames = []
    for start in range(0, len(data), chunk):
        buffer.feed(data[start : start + chunk])
        while True:
            try:
                frames.append(buffer.read_frame())
            except IncompleteFrame:
                break
    buffer.eof = True
    with pytest.raises(ConnectionError):
        buffer.read_frame()
    return frames


def _comparable(frames: list) -> list:
    return [
        ("error", f.code, f.detail) if isinstance(f, ReplyError) else f
        for f in frames
    ]


def test_an_error_quoting_a_key_with_a_line_break_stays_one_frame():
    # A DELETE of the absent key "\n0" is answered -NOTFOUND <key>.
    data = encode_error("NOTFOUND", "\n0\r") + encode_simple("OK")
    stream = io.BytesIO(data)
    reply = read_frame_sync(stream)
    assert (reply.code, reply.detail) == ("NOTFOUND", "\\n0\\r")
    assert read_frame_sync(stream) == "OK"


@pytest.mark.parametrize("chunk", [1, 2, 7, 64, 10_000])
def test_three_readers_one_answer_however_the_bytes_arrive(chunk):
    data = b"".join(FRAMES) + encode_error("NOTFOUND", "some key")
    expected = _comparable(_via_stream_reader(data))
    assert len(expected) == len(FRAMES) + 1
    assert _comparable(_via_file(data)) == expected
    assert _comparable(_via_buffer(data, chunk)) == expected


def test_an_incomplete_frame_is_left_where_it_began():
    frame = encode_command("SET", "k", "v" * 100)
    buffer = FrameBuffer()
    for cut in range(len(frame)):
        buffer.feed(frame[cut : cut + 1])
        if cut < len(frame) - 1:
            with pytest.raises(IncompleteFrame):
                buffer.read_frame()
    assert buffer.read_frame() == ["SET", "k", "v" * 100]
    with pytest.raises(IncompleteFrame):
        buffer.read_frame()  # empty again, and not at end-of-file


@pytest.mark.parametrize(
    "garbage",
    [b"PING\r\n", b"$abc\r\n", b"*1\r\n$2\r\n\xff\xfe\r\n", b"?what\r\n",
     b"$99999999999\r\n", b"*-2\r\n", b"+no carriage return\n"],
)
def test_malformed_bytes_raise_what_the_stream_reader_path_raises(garbage):
    async def over_stream() -> str:
        reader = asyncio.StreamReader()
        reader.feed_data(garbage)
        reader.feed_eof()
        with pytest.raises(ProtocolError) as caught:
            await protocol.read_frame(reader)
        return str(caught.value)

    buffer = FrameBuffer()
    buffer.feed(garbage)
    with pytest.raises(ProtocolError) as caught:
        buffer.read_frame()
    assert str(caught.value) == asyncio.run(over_stream())


@pytest.mark.parametrize(
    "line",
    [
        b"x" * (protocol.LINE_LIMIT + 1),  # no terminator in sight
        b"+" + b"x" * (protocol.LINE_LIMIT + 1) + b"\r\n",  # one, too far out
    ],
)
def test_the_line_limit_is_the_stream_readers(line):
    async def over_stream() -> str:
        reader = asyncio.StreamReader()  # default limit: 64 KiB
        reader.feed_data(line)
        with pytest.raises(ProtocolError) as caught:
            await protocol.read_frame(reader)
        return str(caught.value)

    buffer = FrameBuffer()
    buffer.feed(line)
    with pytest.raises(ProtocolError) as caught:
        buffer.read_frame()
    assert str(caught.value) == asyncio.run(over_stream())
    assert "limit" in str(caught.value)


def test_a_line_at_the_limit_still_parses():
    text = "x" * (protocol.LINE_LIMIT - 2)  # "+", text, "\r": LINE_LIMIT bytes
    buffer = FrameBuffer()
    buffer.feed(encode_simple(text))
    assert buffer.read_frame() == text


def test_an_error_detail_is_cut_to_fit_the_line_limit():
    room = protocol.LINE_LIMIT - len("-NOTFOUND \r")
    longest = encode_error("NOTFOUND", "k" * room)
    assert longest == b"-NOTFOUND " + b"k" * room + b"\r\n"  # not cut
    assert encode_error("NOTFOUND", "k" * (room + 1)) == longest
    # A character that would straddle the limit is dropped whole.
    assert encode_error("NOTFOUND", "k" * (room - 2) + "é").endswith(
        "é\r\n".encode()
    )
    cut = encode_error("NOTFOUND", "k" * (room - 1) + "é")
    assert cut == b"-NOTFOUND " + b"k" * (room - 1) + b"\r\n"
    for data in (longest, cut):
        reply = read_frame_sync(io.BytesIO(data))
        assert reply.code == "NOTFOUND" and len(reply.detail) <= room


def test_end_of_file_inside_a_frame():
    # A short line is handed to the parser as it is (and is unterminated);
    # a short bulk or a missing element is the peer closing mid-frame.
    cases = {
        b"*2\r\n$3\r\nGE": ConnectionError,
        b"*2\r\n$3\r\nGET\r\n": ConnectionError,
        b"*2\r\n$3": ProtocolError,
    }
    for partial, error in cases.items():
        buffer = FrameBuffer()
        buffer.feed(partial)
        with pytest.raises(IncompleteFrame):
            buffer.read_frame()
        buffer.eof = True
        with pytest.raises(error):
            buffer.read_frame()


def _timed_feed(
    buffer: FrameBuffer, deliveries: "list[bytes]"
) -> "tuple[Any, float]":
    """Feed each delivery and read after it; the frame and the seconds
    taken."""
    frame, began = None, time.perf_counter()
    for data in deliveries:
        buffer.feed(data)
        try:
            frame = buffer.read_frame()
        except IncompleteFrame:
            pass
    return frame, time.perf_counter() - began


def test_a_frame_trickled_in_is_decoded_once():
    # 50 deliveries of 4,096 elements (28 KiB each) into one open array.
    # Decoded again from its first byte on every delivery, this took
    # 13.7 s on a 2-vCPU guest (EXPERIMENTS.md, E42).
    buffer = FrameBuffer()
    buffer.feed(b"*%d\r\n" % (50 * 4096))
    frame, took = _timed_feed(buffer, [b"$1\r\na\r\n" * 4096] * 50)
    assert took < 1.0, took
    assert frame == ["a"] * (50 * 4096) and buffer.command


def test_a_set_dripped_a_byte_at_a_time_is_decoded_once():
    key, value = "k" * protocol.LINE_LIMIT, "v" * protocol.LINE_LIMIT
    data = encode_command("SET", key, value)
    frame, took = _timed_feed(
        FrameBuffer(), [data[i : i + 1] for i in range(len(data))]
    )
    assert frame == ["SET", key, value]
    assert took < 1.0, took


@pytest.mark.parametrize("depth", [100, 5000])
def test_nesting_has_no_depth_limit(depth):
    data = b"*1\r\n" * depth + b":1\r\n" + encode_command("PING")
    buffer = FrameBuffer()
    buffer.feed(data)
    frame = buffer.read_frame()
    assert not buffer.command
    ping = buffer.read_frame()
    assert ping == ["PING"] and buffer.command
    # The stream and file readers decode through the same buffer.
    for frame, ping in (
        [frame, ping], _via_stream_reader(data), _via_file(data)
    ):
        for _ in range(depth):
            (frame,) = frame
        assert frame == 1 and ping == ["PING"]


@pytest.mark.parametrize(
    "data, command",
    [
        (encode_command("GET", "k"), True),
        (b"*1\r\n+GET\r\n", True),  # a simple string is a string too
        (b"*2\r\n$3\r\nGET\r\n$-1\r\n", False),
        (b"*2\r\n$3\r\nGET\r\n:1\r\n", False),
        (b"*2\r\n$3\r\nGET\r\n*0\r\n", False),
        (b"*2\r\n*1\r\n$1\r\nk\r\n$1\r\nk\r\n", False),
        (b"*1\r\n-ERR x\r\n", False),
        (b"*0\r\n", False),
        (encode_bulk("GET"), False),
        (encode_simple("GET"), False),
    ],
)
def test_the_command_verdict_is_the_isinstance_walk(data, command):
    buffer = FrameBuffer()
    buffer.feed(data)
    frame = buffer.read_frame()
    walk = (
        isinstance(frame, list)
        and bool(frame)
        and all(isinstance(part, str) for part in frame)
    )
    assert buffer.command is command is walk
