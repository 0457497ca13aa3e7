"""The redis-like line protocol both service surfaces speak.

A deliberately small subset of RESP (the Redis serialization protocol),
chosen because it is trivial to frame, human-debuggable with ``nc``, and
battle-tested for exactly this shape of workload:

* ``*N\\r\\n`` — array header, then N elements;
* ``$N\\r\\n<bytes>\\r\\n`` — bulk string (``$-1\\r\\n`` is null);
* ``+text\\r\\n`` — simple string (``+OK``, ``+PONG``);
* ``-CODE detail\\r\\n`` — error reply (``-NOTFOUND ...``, ``-ERR ...``);
* ``:N\\r\\n`` — integer reply.

Requests are always arrays of bulk strings (a command name plus its
arguments); replies are any of the above.  The *internal* RPC surface
(:mod:`repro.service.aio`) frames one JSON document per bulk string; the
*front door* (:mod:`repro.service.server`) uses plain strings, so a
session really does look like talking to a tiny redis.

Encoders return ``bytes`` to hand to a transport.  There is one
decoder, :func:`read_frame`, a coroutine written against the two reads
of an :class:`asyncio.StreamReader` (``readline``, ``readexactly``), and
three thin readers to run it over: the stream reader itself (the asyncio
clients), a blocking binary file (:func:`read_frame_sync`), and bytes
already received (:class:`FrameBuffer`, what the front door's
connections parse from).  Only the first ever suspends; over the other
two the coroutine is stepped once and finishes inside that step.  All
return the same Python shapes: ``list`` for arrays, ``str`` for
bulk/simple strings, ``None`` for null, ``int`` for integers, and
:class:`ReplyError` *instances* (returned, not raised — the caller
decides) for error replies.  Anything a peer can get wrong — an unknown
type byte, a length that is not a number, bytes that are not UTF-8, a
line past the reader's limit — raises :class:`ProtocolError` and
nothing else; the connection's framing is lost at that point, so
servers answer once and hang up.
"""

from __future__ import annotations

import asyncio
import re
from typing import Any, BinaryIO

from repro.core.errors import ReproError

#: Upper bound on one bulk string / array, a guard against a corrupt or
#: hostile length header allocating unbounded memory (16 MiB).
MAX_FRAME = 16 * 1024 * 1024


class ProtocolError(ReproError):
    """The peer sent bytes that are not valid protocol frames."""


class ReplyError(ReproError):
    """An error reply (``-CODE detail``) from the peer.

    ``code`` is the first token (``NOTFOUND``, ``KEYEXISTS``, ``ERR``,
    ...); ``detail`` the rest of the line.
    """

    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code} {detail}".strip())
        self.code = code
        self.detail = detail


# -- encoding (shared by client and server) ---------------------------------


def encode_command(*parts: str) -> bytes:
    """Frame a request: an array of bulk strings."""
    chunks = [f"*{len(parts)}\r\n".encode()]
    for part in parts:
        data = part.encode("utf-8")
        chunks.append(b"$%d\r\n%s\r\n" % (len(data), data))
    return b"".join(chunks)


def encode_bulk(text: "str | None") -> bytes:
    """Frame a bulk-string reply (``None`` frames the null bulk)."""
    if text is None:
        return b"$-1\r\n"
    data = text.encode("utf-8")
    return b"$%d\r\n%s\r\n" % (len(data), data)


def encode_simple(text: str) -> bytes:
    """Frame a simple-string reply (``+OK``)."""
    return f"+{text}\r\n".encode()


def encode_error(code: str, detail: str = "") -> bytes:
    """Frame an error reply (``-CODE detail``)."""
    line = f"-{code} {detail}".rstrip()
    return f"{line}\r\n".encode()


def encode_integer(n: int) -> bytes:
    """Frame an integer reply (``:N``)."""
    return f":{n}\r\n".encode()


def encode_array(parts: "list[str | None]") -> bytes:
    """Frame an array-of-bulk-strings reply."""
    return b"*%d\r\n" % len(parts) + b"".join(
        encode_bulk(part) for part in parts
    )


# -- request metadata --------------------------------------------------------

#: Trailing request elements starting with ``@`` are reserved metadata,
#: not command arguments.  Two fields are defined today: the trace id
#: and the client's cached shard-map epoch.
TRACE_META = re.compile(r"@trace=([A-Za-z0-9][A-Za-z0-9._:~-]{0,127})\Z")

#: ``@epoch=<n>``: the shard-map epoch the sender's cached routing map
#: carries.  On requests it lets the server answer ``-MOVED`` when the
#: key's owner changed; on replies (see :func:`stamp_epoch`) it tells
#: the client the server's current epoch.
EPOCH_META = re.compile(r"@epoch=(\d{1,18})\Z")


def split_meta(
    frame: "list[str]",
) -> "tuple[list[str], str | None, int | None]":
    """Split a request array into command parts, trace id and epoch.

    Strips *every* trailing ``@``-prefixed element — the reserved
    metadata namespace — and returns ``(command_parts, trace_id,
    epoch)``.  Compatibility is deliberately one-sided and forgiving: a
    client that stamps no metadata parses unchanged (``epoch`` is None
    for an epoch-unaware client, which must keep working), and metadata
    the server does not understand (an unknown ``@field``, a malformed
    ``@trace=``) is dropped silently, never answered with an error, so
    old clients keep working against new servers and vice versa.  When
    a field appears several times, the innermost (last-stamped, i.e.
    rightmost) one wins.
    """
    parts = list(frame)
    trace: "str | None" = None
    epoch: "int | None" = None
    while parts and parts[-1].startswith("@"):
        token = parts.pop()
        match = TRACE_META.fullmatch(token)
        if match is not None and trace is None:
            trace = match.group(1)
            continue
        match = EPOCH_META.fullmatch(token)
        if match is not None and epoch is None:
            epoch = int(match.group(1))
    return parts, trace, epoch


def stamp_epoch(reply: bytes, epoch: int) -> bytes:
    """Stamp ``@epoch=<n>`` reply metadata onto an encoded reply frame.

    Only frames with room for trailing metadata are stamped: simple
    strings gain a `` @epoch=<n>`` suffix and arrays a trailing
    ``@epoch=<n>`` bulk element.  Bulk, integer, and error frames pass
    through untouched — their bytes *are* the payload.  Servers stamp
    only replies to requests that themselves carried an ``@epoch=``
    field, so epoch-unaware clients never see the metadata.
    """
    if reply.startswith(b"+"):
        return b"%s @epoch=%d\r\n" % (reply[:-2], epoch)
    if reply.startswith(b"*"):
        head, _, rest = reply.partition(b"\r\n")
        return b"*%d\r\n%s%s" % (
            int(head[1:]) + 1,
            rest,
            encode_bulk(f"@epoch={epoch}"),
        )
    return reply


# -- decoding ----------------------------------------------------------------


async def read_frame(reader: asyncio.StreamReader) -> Any:
    """Read one frame; raises ``ConnectionError`` at clean EOF.

    Error replies are *returned* as :class:`ReplyError` instances.
    """
    try:
        line = await reader.readline()
        if not line:
            raise ConnectionError("peer closed the connection")
        return await _parse(line, reader)
    except ValueError as exc:
        # int() on a bad length, a bulk that is not UTF-8, or the
        # reader's line limit: the peer's doing, all of them.
        raise ProtocolError(f"malformed frame: {exc}") from None


async def _parse(line: bytes, reader: asyncio.StreamReader) -> Any:
    if not line.endswith(b"\r\n"):
        raise ProtocolError(f"unterminated frame line: {line[:64]!r}")
    kind, body = line[:1], line[1:-2]
    if kind == b"+":
        return body.decode("utf-8")
    if kind == b"-":
        code, _, detail = body.decode("utf-8").partition(" ")
        return ReplyError(code, detail)
    if kind == b":":
        return int(body)
    if kind == b"$":
        n = int(body)
        if n == -1:
            return None
        if not 0 <= n <= MAX_FRAME:
            raise ProtocolError(f"bulk length out of range: {n}")
        data = await reader.readexactly(n + 2)
        return data[:-2].decode("utf-8")
    if kind == b"*":
        n = int(body)
        if not 0 <= n <= MAX_FRAME:
            raise ProtocolError(f"array length out of range: {n}")
        items = []
        for _ in range(n):
            element = await reader.readline()
            if not element:
                raise ConnectionError("peer closed mid-array")
            items.append(await _parse(element, reader))
        return items
    raise ProtocolError(f"unknown frame type {kind!r}")


class _FileReader:
    """The two reads :func:`_parse` awaits, over a blocking binary file.

    Neither coroutine ever suspends, which is what lets
    :func:`read_frame_sync` run the parser to completion in one step.
    """

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream

    async def readline(self) -> bytes:
        return self._stream.readline()

    async def readexactly(self, n: int) -> bytes:
        data = self._stream.read(n)
        if len(data) != n:
            raise ConnectionError("peer closed mid-bulk")
        return data


def read_frame_sync(stream: BinaryIO) -> Any:
    """:func:`read_frame` over a buffered binary file, blocking.

    The same parser, not a copy: the coroutine is stepped once and, its
    reader never suspending, finishes inside that step.
    """
    try:
        read_frame(_FileReader(stream)).send(None)
    except StopIteration as done:
        return done.value


#: The longest line a :class:`FrameBuffer` accepts, terminator excluded:
#: the limit (and, below, the two messages) of the
#: :class:`asyncio.StreamReader` the front door used to read through.
LINE_LIMIT = 2**16


class IncompleteFrame(Exception):
    """The buffered bytes end inside a frame; the rest has yet to arrive."""


class FrameBuffer:
    """The two reads :func:`_parse` awaits, over bytes already received.

    ``feed`` appends what a socket delivered; :meth:`read_frame` takes
    one frame off the front.  Neither coroutine ever suspends: a read
    past the end of the buffer raises :class:`IncompleteFrame` instead,
    and :meth:`read_frame` leaves the buffer where the frame began, so a
    frame that straddles two deliveries is parsed again from its start
    once more bytes are in.  Once ``eof`` is set the buffer reads like a
    file at end-of-file: a short line is returned as it is and a short
    bulk is the peer closing mid-frame.
    """

    __slots__ = ("_data", "_pos", "eof")

    def __init__(self) -> None:
        self._data = bytearray()
        self._pos = 0
        #: Set by the owner when the peer has sent its last byte.
        self.eof = False

    def feed(self, data: bytes) -> None:
        if self._pos:
            del self._data[: self._pos]
            self._pos = 0
        self._data += data

    async def readline(self) -> bytes:
        start = self._pos
        newline = self._data.find(b"\n", start)
        if newline < 0:
            if len(self._data) - start > LINE_LIMIT:
                raise ValueError(
                    "Separator is not found, and chunk exceed the limit"
                )
            if not self.eof:
                raise IncompleteFrame
            newline = len(self._data) - 1
        elif newline - start > LINE_LIMIT:
            raise ValueError(
                "Separator is found, but chunk is longer than limit"
            )
        self._pos = newline + 1
        return bytes(self._data[start : self._pos])

    async def readexactly(self, n: int) -> bytes:
        start, end = self._pos, self._pos + n
        if end > len(self._data):
            if self.eof:
                raise ConnectionError("peer closed mid-bulk")
            raise IncompleteFrame
        self._pos = end
        return bytes(self._data[start:end])

    def read_frame(self) -> Any:
        """:func:`read_frame` over the buffer, without blocking.

        Raises :class:`IncompleteFrame` (buffer untouched) when the
        frame's last byte has not arrived, ``ConnectionError`` at a
        clean end-of-file, :class:`ProtocolError` as the decoder does.
        """
        start = self._pos
        if start == len(self._data) and not self.eof:
            raise IncompleteFrame  # every burst ends here: skip the parse
        try:
            read_frame(self).send(None)
        except StopIteration as done:
            return done.value
        except IncompleteFrame:
            self._pos = start
            raise
