"""The redis-like line protocol the front door and its clients speak.

A deliberately small subset of RESP (the Redis serialization protocol),
chosen because it is trivial to frame, human-debuggable with ``nc``, and
battle-tested for exactly this shape of workload:

* ``*N\\r\\n`` — array header, then N elements;
* ``$N\\r\\n<bytes>\\r\\n`` — bulk string (``$-1\\r\\n`` is null);
* ``+text\\r\\n`` — simple string (``+OK``, ``+PONG``);
* ``-CODE detail\\r\\n`` — error reply (``-NOTFOUND ...``, ``-ERR ...``);
* ``:N\\r\\n`` — integer reply.

Requests are always arrays of bulk strings (a command name plus its
arguments); replies are any of the above.  The front door
(:mod:`repro.service.server`) carries plain strings in them, so a
session really does look like talking to a tiny redis.

Encoders return ``bytes`` to hand to a transport.  There is one
decoder, :class:`FrameBuffer`: bytes already received, read
synchronously in one pass, nesting kept on an explicit stack (so no
depth is too deep), and a frame that straddles its feeds resumed where
it stopped.  The front door's connections feed it what their sockets
deliver, and it also says whether a frame is a command array, so the
server need not walk it.  The clients read a frame with
:func:`read_frame` (over an :class:`asyncio.StreamReader`) or
:func:`read_frame_sync` (over a blocking binary file): each feeds a
fresh buffer exactly what it asks for next — a line, or the rest of a
bulk — so neither takes a byte past the frame off its stream.  Frames
decode to ``list`` for arrays, ``str`` for bulk/simple strings, ``None``
for null, ``int`` for integers, and :class:`ReplyError` *instances*
(returned, not raised — the caller decides) for error replies.
Anything a peer can get wrong — an unknown type byte, a length that is
not a number, bytes that are not UTF-8, a line past :data:`LINE_LIMIT`
— raises :class:`ProtocolError` and nothing else; the connection's
framing is lost at that point, so servers answer once and hang up.
``tests/properties/test_prop_frame_decoders.py`` holds the buffer to the
coroutine-stepped decoder it replaced, and the two readers to the
buffer, read for read, over random bytes cut into random deliveries.
"""

from __future__ import annotations

import asyncio
import re
from typing import Any, BinaryIO

from repro.core.errors import ReproError

#: Upper bound on one bulk string / array, a guard against a corrupt or
#: hostile length header allocating unbounded memory (16 MiB).
MAX_FRAME = 16 * 1024 * 1024

#: The longest line any reader accepts, terminator excluded: the limit
#: (and, in :class:`FrameBuffer`, the two messages) of an
#: :class:`asyncio.StreamReader`, whether the line came off a socket's
#: deliveries or a reader's line-by-line reads.  :func:`encode_error`
#: cuts a detail so its line fits.
LINE_LIMIT = 2**16


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
    """Frame an error reply (``-CODE detail``).  A detail can quote a
    client's key, which may hold CR or LF and be of any length: CR and
    LF are escaped, so the reply stays one line, and a detail too long
    for :data:`LINE_LIMIT` is cut, at a character boundary, to fit."""
    detail = detail.replace("\r", "\\r").replace("\n", "\\n")
    line = f"-{code} {detail}".rstrip().encode()
    if len(line) >= LINE_LIMIT:  # the "\r" counts against the limit too
        line = line[: LINE_LIMIT - 1].decode("utf-8", "ignore").encode()
    return line + b"\r\n"


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


class IncompleteFrame(Exception):
    """The buffered bytes end inside a frame; the rest has yet to arrive."""


class FrameBuffer:
    """Bytes received, decoded one frame at a time, never blocking.

    ``feed`` appends what a socket delivered; :meth:`read_frame` takes
    one frame off the front, synchronously and in one pass: nested
    arrays are an explicit stack, not recursion, so no depth is too
    deep, and a frame whose last byte has not arrived raises
    :class:`IncompleteFrame` and is resumed where it stopped once more
    bytes are in — its open arrays and its offset are kept — so a frame
    trickled in over many deliveries costs one pass, not one per
    delivery.  Its bytes stay buffered until it completes, so the
    unconsumed part of the buffer is what it would be had the frame been
    parsed again from its start.  Once ``eof`` is set the buffer reads
    like a file at end-of-file: a short line is taken as it is (and is
    unterminated) and a short bulk is the peer closing mid-frame.  A
    reader that must not take bytes past a frame off its stream asks
    :meth:`wanted` what to read next and hands the result to
    :meth:`take` (:func:`read_frame`, :func:`read_frame_sync`).
    """

    __slots__ = ("_data", "_pos", "_partial", "eof", "command")

    def __init__(self) -> None:
        self._data = bytearray()
        #: Where the next frame, or the one in progress, begins.
        self._pos = 0
        #: Where the frame in progress stopped, offsets relative to
        #: ``_pos`` (see :meth:`read_frame`).
        self._partial: "tuple[Any, ...] | None" = None
        #: Set by the owner when the peer has sent its last byte.
        self.eof = False
        #: Whether the frame last returned is a command array: a
        #: non-empty array whose every element is a string.
        self.command = False

    def feed(self, data: bytes) -> None:
        if self._pos:
            del self._data[: self._pos]
            self._pos = 0
        self._data += data

    def wanted(self) -> int:
        """What the frame in progress needs next: 0 for a line, else the
        bytes of its pending bulk not yet fed, terminator included."""
        if self._partial is None:
            return 0
        scan, _, bulk = self._partial[:3]  # as :meth:`read_frame` keeps them
        if bulk is None:
            return 0
        return self._pos + scan + bulk + 2 - len(self._data)

    def take(self, data: bytes, size: int) -> Any:
        """Feed what one read of :meth:`wanted`'s ``size`` returned, and
        read on as :meth:`read_frame` does.  A read that came up short —
        a line with no ``"\\n"``, a bulk cut off — means end-of-file."""
        self.feed(data)
        if (len(data) < size) if size else not data.endswith(b"\n"):
            self.eof = True
        return self.read_frame()

    def read_frame(self) -> Any:
        """Take one frame off the buffer.

        Raises :class:`IncompleteFrame` (nothing consumed) when the
        frame's last byte has not arrived, ``ConnectionError`` at a
        clean end-of-file (``"peer closed the connection"``, or
        ``"... mid-array"`` / ``"... mid-bulk"`` inside a frame), and
        :class:`ProtocolError` for bytes that are no frame; after an
        error the buffer has consumed the line or bulk it failed on.
        Sets :attr:`command`.
        """
        data, pos = self._data, self._pos
        size = len(data)
        if self._partial is None:
            # The next line starts at scan, and holds no "\n" before
            # seen; bulk is the length of a bulk whose bytes start at
            # scan; items is the innermost open array, with left
            # elements to go, and outer holds the arrays around it.
            scan = seen = pos
            bulk = items = None
            left, outer, command = 0, [], False
        else:
            scan, seen, bulk, items, left, outer, command = self._partial
            self._partial = None
            scan += pos
            seen += pos
        try:
            while True:
                if bulk is None:
                    nl = data.find(b"\n", seen)
                    if nl < 0:
                        if size - scan > LINE_LIMIT:
                            raise ValueError(
                                "Separator is not found, and chunk exceed "
                                "the limit"
                            )
                        if not self.eof:
                            self._partial = (
                                scan - pos, size - pos, None, items, left,
                                outer, command,
                            )
                            raise IncompleteFrame
                        start, scan = scan, size
                        if start == size:
                            raise ConnectionError(
                                "peer closed the connection"
                                if items is None
                                else "peer closed mid-array"
                            )
                        raise _unterminated(data[start:size])
                    if nl - scan > LINE_LIMIT:
                        raise ValueError(
                            "Separator is found, but chunk is longer than "
                            "limit"
                        )
                    start = scan
                    scan = seen = nl + 1
                    if nl == start or data[nl - 1] != 13:  # no "\r\n"
                        raise _unterminated(data[start:scan])
                    kind, body = data[start], data[start + 1 : nl - 1]
                    if kind == 36:  # "$"
                        bulk = int(body)
                        if bulk == -1:
                            bulk = value = None
                            plain = False
                        elif not 0 <= bulk <= MAX_FRAME:
                            raise ProtocolError(
                                f"bulk length out of range: {bulk}"
                            )
                    elif kind == 42:  # "*"
                        n = int(body)
                        if not 0 <= n <= MAX_FRAME:
                            raise ProtocolError(
                                f"array length out of range: {n}"
                            )
                        if n:
                            if items is None:
                                command = True  # until a non-string
                            else:
                                outer.append((items, left))
                            items, left = [], n
                            continue
                        value, plain = [], False
                    elif kind == 43:  # "+"
                        value, plain = body.decode(), True
                    elif kind == 45:  # "-"
                        code, _, detail = body.decode().partition(" ")
                        value, plain = ReplyError(code, detail), False
                    elif kind == 58:  # ":"
                        value, plain = int(body), False
                    else:
                        kind = bytes(data[start : start + 1])
                        raise ProtocolError(f"unknown frame type {kind!r}")
                if bulk is not None:
                    end = scan + bulk
                    if end + 2 > size:
                        if self.eof:
                            raise ConnectionError("peer closed mid-bulk")
                        self._partial = (
                            scan - pos, scan - pos, bulk, items, left,
                            outer, command,
                        )
                        raise IncompleteFrame
                    start, bulk = scan, None
                    scan = seen = end + 2  # the terminator is not checked
                    value, plain = data[start:end].decode(), True
                # Place the value, closing every array it completes.
                while items is not None:
                    if not (plain or outer):
                        command = False
                    items.append(value)
                    left -= 1
                    if left:
                        break
                    value, plain = items, False
                    items, left = outer.pop() if outer else (None, 0)
                if items is None:
                    self._pos = scan
                    self.command = command
                    return value
        except ValueError as exc:
            # int() on a bad length, bytes that are not UTF-8, or the
            # line limit: the peer's doing, all of them.
            self._pos = scan
            raise ProtocolError(f"malformed frame: {exc}") from None
        except (ProtocolError, ConnectionError):
            self._pos = scan
            raise


def _unterminated(line: bytearray) -> ProtocolError:
    return ProtocolError(f"unterminated frame line: {bytes(line[:64])!r}")


async def read_frame(reader: asyncio.StreamReader) -> Any:
    """Read one frame off a stream; raises ``ConnectionError`` at EOF.

    Error replies are *returned* as :class:`ReplyError` instances.  The
    stream's line-limit ``ValueError`` is a :class:`ProtocolError`.
    """
    buffer = FrameBuffer()
    while True:
        size = buffer.wanted()
        try:
            data = await (
                reader.readexactly(size) if size else reader.readline()
            )
        except asyncio.IncompleteReadError as short:
            data = short.partial
        except ValueError as exc:
            raise ProtocolError(f"malformed frame: {exc}") from None
        try:
            return buffer.take(data, size)
        except IncompleteFrame:
            pass


def read_frame_sync(stream: BinaryIO) -> Any:
    """:func:`read_frame` over a buffered binary file, blocking.

    A line is read :data:`LINE_LIMIT` + 1 bytes at most, so one past
    the limit is refused without being read whole.
    """
    buffer = FrameBuffer()
    while True:
        size = buffer.wanted()
        data = stream.read(size) if size else stream.readline(LINE_LIMIT + 1)
        try:
            return buffer.take(data, size)
        except IncompleteFrame:
            pass
