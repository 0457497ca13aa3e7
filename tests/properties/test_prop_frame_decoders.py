"""Property: the one-pass buffer decoder reads what the stepped one read.

:class:`repro.service.protocol.FrameBuffer` decodes what a socket
delivered in one synchronous pass and resumes a frame that straddles
deliveries where it stopped.  It replaced a buffer that stepped the RESP
coroutine once per frame and decoded a straddling frame again from its
first byte (:mod:`stepped_framing`, a frozen copy).  Random bytes are
cut into random deliveries, with and without an end-of-file after them,
and fed to both; after each delivery each buffer is read until it raises
``IncompleteFrame`` or an error.  Every read must agree: the frame
(values and types, ``ReplyError`` code and detail), the command verdict
(the live buffer's ``command`` against the ``isinstance`` walk over the
old buffer's frame), the exception type and message, where
``IncompleteFrame`` was raised, and how many bytes each buffer left
unconsumed.

The two readers decode through a fresh buffer each frame, feeding it
only what it asks for.  ``protocol.read_frame`` over an
``asyncio.StreamReader`` fed the same deliveries must read the same
frames after the same deliveries, up to the same first error (it has no
``IncompleteFrame``: it waits instead).  ``protocol.read_frame_sync``
over a file holding every delivery (and so ending) must read those
frames and that first error too — where the stream is left waiting
without an end-of-file, the file's frames must begin with the stream's
— and after each frame the bytes it left unread in the file must be
those the stepped buffer left unconsumed plus those not yet delivered:
it never reads past a frame.
The file reader reads a line ``LINE_LIMIT + 1`` bytes at most, so it
refuses any line over the limit with the stream reader's "not found"
message, where a stream that held the whole line says "found, but ...
longer"; between those two legs the two limit messages count as one.

Inputs are byte soup (random bytes, and runs of RESP tokens), RESP
values of every type nested a few levels, chains of one-element arrays
up to 300 deep, command arrays with ``@``-metadata (now and then with a
null bulk), lengths out of range, lines around the 64 KiB limit, and
any of those mutated (bytes dropped, inserted or replaced, a range
repeated, the end cut off).  An input is discarded only if the stepped
decoder raised ``RecursionError`` on it, which the one-pass decoder
never does.  The property runs twice: at the real line limit, and with
the limit cut to 8 bytes (for both buffers and both readers alike),
so that ordinary frames cross it.
"""

from __future__ import annotations

import asyncio
import io
from typing import Any, Callable
from unittest import mock

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.service import protocol
from repro.service.protocol import (
    LINE_LIMIT,
    FrameBuffer,
    IncompleteFrame,
    ReplyError,
    encode_bulk,
    encode_error,
    encode_integer,
    encode_simple,
)
from tests.properties import stepped_framing
from tests.properties.stepped_framing import SteppedFrameBuffer

_TOKENS = [
    b"*", b"$", b"+", b"-", b":", b"\r\n", b"\r", b"\n", b"0", b"1", b"2",
    b"3", b"-1", b"-2", b"12", b"16777217", b" ", b"a", b"GET", b"\xff",
    b"\xc3\xa9", b"@epoch=1",
]
_soup = st.binary(max_size=48) | st.lists(
    st.sampled_from(_TOKENS), max_size=40
).map(b"".join)

_text = st.text(max_size=6)
_scalar = st.one_of(
    st.builds(encode_bulk, st.none() | _text),
    st.builds(encode_simple, _text),
    st.builds(encode_error, st.sampled_from(["ERR", "NOTFOUND", "x"]), _text),
    st.builds(encode_integer, st.integers(-(10**20), 10**20)),
)
_value = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, max_size=4).map(
        lambda items: b"*%d\r\n" % len(items) + b"".join(items)
    ),
    max_leaves=12,
)
_deep = st.builds(
    lambda depth, leaf: b"*1\r\n" * depth + leaf,
    st.integers(min_value=1, max_value=300),
    _scalar,
)
_meta = st.sampled_from(
    ["@trace=t1", "@trace=bad!", "@epoch=1", "@epoch=", "@", "@x=1"]
)
#: Command arrays, ``@``-metadata and all, now and then with a null.
_command = st.builds(
    lambda parts, meta: b"*%d\r\n" % (len(parts) + len(meta))
    + b"".join(map(encode_bulk, parts + meta)),
    st.lists(
        st.none() | st.sampled_from(["GET", "SET", "k", ""]) | _text,
        min_size=1,
        max_size=4,
    ),
    st.lists(_meta, max_size=3),
)
#: Headers whose length is out of range.
_out_of_range = st.sampled_from(
    [b"$-2\r\n", b"$16777217\r\n", b"*-1\r\n", b"*16777217\r\n"]
)
#: A line a few bytes either side of the limit, terminated or not.
_long = st.builds(
    lambda kind, extra, end: kind + b"x" * (LINE_LIMIT + extra) + end,
    st.sampled_from([b"+", b"-", b"$", b"?"]),
    st.integers(min_value=-2, max_value=4),
    st.sampled_from([b"\r\n", b"\n", b""]),
)


@st.composite
def _mutated(draw: Any, pieces: Any) -> bytes:
    data = bytearray(b"".join(draw(st.lists(pieces, min_size=1, max_size=3))))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        op = draw(
            st.sampled_from(["drop", "insert", "replace", "repeat", "cut"])
        )
        if op == "cut":
            del data[at:]
        elif op == "insert":
            data[at:at] = draw(st.sampled_from(_TOKENS))
        elif at < len(data):
            end = draw(st.integers(min_value=at + 1, max_value=len(data)))
            if op == "drop":
                del data[at:end]
            elif op == "replace":
                data[at:end] = draw(st.sampled_from(_TOKENS))
            else:
                data[at:at] = data[at:end]
    return bytes(data)


_streams = _mutated(
    st.one_of(_soup, _value, _deep, _command, _out_of_range, _long)
)


@st.composite
def _deliveries(draw: Any) -> "list[bytes]":
    data = draw(_streams)
    if not data:
        return []
    if len(data) <= 512 and draw(st.booleans()):
        return [data[at : at + 1] for at in range(len(data))]  # a drip
    # Cuts fall anywhere, and often either side of a line feed; a long
    # input may also be cut just past the line limit from every line
    # start, so a line over the limit arrives without its terminator.
    feeds = [at for at, byte in enumerate(data) if byte == 10]
    cut = st.integers(min_value=1, max_value=len(data))
    near = sorted({at + d for at in feeds for d in (0, 1)} - {0, len(data)})
    if near:
        cut |= st.sampled_from(near)
    cuts = draw(st.lists(cut, max_size=12))
    if len(data) > LINE_LIMIT and draw(st.booleans()):
        cuts += [at + LINE_LIMIT + 2 for at in [-1, *feeds]]
    edges = [0, *sorted({at for at in cuts if 0 < at < len(data)}), len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:])]


# -- what a read looks like -----------------------------------------------------


def _plain(value: Any) -> Any:
    """A frame as comparable data, every value tagged with its type."""
    if isinstance(value, ReplyError):
        return ("ReplyError", value.code, value.detail)
    if isinstance(value, list):
        return ("list", [_plain(item) for item in value])
    return (type(value).__name__, value)


def _walk(frame: Any) -> bool:
    """The front door's own command check, over a decoded frame."""
    return (
        isinstance(frame, list)
        and bool(frame)
        and all(isinstance(part, str) for part in frame)
    )


def _buffer_log(
    buffer: Any, deliveries: "list[bytes]", eof: bool,
    verdict: "Callable[[Any, Any], bool]",
) -> "list[tuple[Any, ...]]":
    """Every read of ``buffer``, delivery by delivery: the reads after
    each one run until ``IncompleteFrame`` or an error."""
    log: "list[tuple[Any, ...]]" = []
    for index, data in enumerate(deliveries + [b""] * eof):
        if index == len(deliveries):
            buffer.eof = True
        else:
            buffer.feed(data)
        while True:
            try:
                frame = buffer.read_frame()
            except IncompleteFrame:
                log.append(("incomplete", index, _left(buffer)))
                break
            except RecursionError:
                raise
            except Exception as exc:
                log.append(
                    ("error", index, type(exc).__name__, str(exc), _left(buffer))
                )
                break
            log.append(
                ("frame", index, _plain(frame), verdict(buffer, frame),
                 _left(buffer))
            )
    return log


def _left(buffer: Any) -> int:
    """Bytes the buffer holds that no read has consumed."""
    return len(buffer._data) - buffer._pos


def _stream_log(
    deliveries: "list[bytes]", eof: bool, limit: int
) -> "list[tuple[Any, ...]]":
    """``protocol.read_frame`` over a ``StreamReader`` fed the deliveries,
    each read tagged with the delivery after which it finished."""

    async def run() -> "list[tuple[Any, ...]]":
        reader = asyncio.StreamReader(limit=limit)
        log: "list[tuple[Any, ...]]" = []
        index = 0

        async def consume() -> None:
            while True:
                try:
                    frame = await protocol.read_frame(reader)
                except Exception as exc:
                    log.append(("error", index, type(exc).__name__, str(exc)))
                    return
                log.append(("frame", index, _plain(frame), _walk(frame)))

        task = asyncio.get_running_loop().create_task(consume())
        for index, data in enumerate(deliveries + [b""] * eof):
            if index == len(deliveries):
                reader.feed_eof()
            else:
                reader.feed_data(data)
            for _ in range(3):  # the reader's wake-up, then its reads
                await asyncio.sleep(0)
        task.cancel()
        return log

    return asyncio.run(run())


def _as_stream(log: "list[tuple[Any, ...]]") -> "list[tuple[Any, ...]]":
    """A buffer's log as a stream reads it: no ``IncompleteFrame``, no
    buffer positions, nothing after the first error."""
    seen = []
    for entry in log:
        if entry[0] == "incomplete":
            continue
        seen.append(entry[:-1])
        if entry[0] == "error":
            break
    return seen


#: The two ``StreamReader`` line-limit messages, as a decoder words them.
_LIMIT_MESSAGES = {
    "malformed frame: Separator is not found, and chunk exceed the limit",
    "malformed frame: Separator is found, but chunk is longer than limit",
}


def _limits_as_one(message: str) -> str:
    return "line over the limit" if message in _LIMIT_MESSAGES else message


def _file_log(deliveries: "list[bytes]") -> "list[tuple[Any, ...]]":
    """``protocol.read_frame_sync`` over a file of every delivery, up to
    its first error; each frame with the bytes it left unread."""
    data = b"".join(deliveries)
    stream = io.BufferedReader(io.BytesIO(data))
    log: "list[tuple[Any, ...]]" = []
    while True:
        try:
            frame = protocol.read_frame_sync(stream)
        except Exception as exc:
            log.append(("error", type(exc).__name__, _limits_as_one(str(exc))))
            return log
        log.append(
            ("frame", _plain(frame), _walk(frame), len(data) - stream.tell())
        )


def _as_file(
    stream: "list[tuple[Any, ...]]", stepped: "list[tuple[Any, ...]]",
    deliveries: "list[bytes]",
) -> "list[tuple[Any, ...]]":
    """The stream's reads as the file reader makes them: each frame's
    unread bytes are what the stepped buffer left unconsumed after it
    plus the deliveries still to come."""
    unread = [
        entry[-1] + sum(map(len, deliveries[entry[1] + 1 :]))
        for entry in stepped
        if entry[0] == "frame"
    ]
    seen = []
    for entry in stream:
        if entry[0] == "frame":
            seen.append(("frame", *entry[2:], unread[len(seen)]))
        else:
            seen.append(("error", entry[2], _limits_as_one(entry[3])))
    return seen


@pytest.mark.parametrize("limit", [LINE_LIMIT, 8])
@settings(deadline=None)
@given(deliveries=_deliveries(), eof=st.booleans())
def test_the_one_pass_decoder_reads_what_the_stepped_one_read(
    limit, deliveries, eof
):
    with mock.patch.object(protocol, "LINE_LIMIT", limit), mock.patch.object(
        stepped_framing, "LINE_LIMIT", limit
    ):
        try:
            stepped = _buffer_log(
                SteppedFrameBuffer(), deliveries, eof,
                lambda buffer, frame: _walk(frame),
            )
        except RecursionError:
            reject()
        one_pass = _buffer_log(
            FrameBuffer(), deliveries, eof,
            lambda buffer, frame: buffer.command,
        )
        stream = _stream_log(deliveries, eof, limit)
        file = _file_log(deliveries)
    assert one_pass == stepped
    assert stream == _as_stream(stepped)
    expected = _as_file(stream, stepped, deliveries)
    if not eof and (not expected or expected[-1][0] != "error"):
        file = file[: len(expected)]  # a file ends; the stream still waits
    assert file == expected
