"""One decoder, three readers: the buffer-backed one agrees with the rest.

``protocol.read_frame`` is the only RESP parser; :class:`FrameBuffer`
runs it over bytes a socket has already delivered, the way
``read_frame_sync`` runs it over a file and the asyncio clients run it
over a ``StreamReader``.  What is held here: the three return the same
frames and the same errors for the same bytes, however the bytes are
cut up on arrival; a frame that has not fully arrived costs nothing and
loses nothing; and the line limit is the ``StreamReader``'s own, message
for message.
"""

from __future__ import annotations

import asyncio
import io

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
