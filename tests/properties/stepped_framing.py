"""The front door's frame decoder as it was: a coroutine stepped over a buffer.

A frozen copy, for the properties that referee the one-pass
:class:`repro.service.protocol.FrameBuffer`: the RESP coroutine
``read_frame``/``_parse`` (written against ``readline`` and
``readexactly``), and a buffer that offers those two reads over bytes
already received and steps the coroutine once per frame.  A read past
the end raises ``IncompleteFrame`` and the buffer goes back to where the
frame began, so a frame that straddles deliveries is decoded again from
its first byte each time more arrive; nesting is recursion.  Only the
exception and limit definitions are shared with the live module, so
both decoders raise the same types.
"""

from __future__ import annotations

from typing import Any

from repro.service.protocol import (
    LINE_LIMIT,
    MAX_FRAME,
    IncompleteFrame,
    ProtocolError,
    ReplyError,
)


async def _read_frame(reader: Any) -> Any:
    try:
        line = await reader.readline()
        if not line:
            raise ConnectionError("peer closed the connection")
        return await _parse(line, reader)
    except ValueError as exc:
        raise ProtocolError(f"malformed frame: {exc}") from None


async def _parse(line: bytes, reader: Any) -> Any:
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


class SteppedFrameBuffer:
    """``feed`` / ``eof`` / ``read_frame`` as the live buffer has them."""

    __slots__ = ("_data", "_pos", "eof")

    def __init__(self) -> None:
        self._data = bytearray()
        self._pos = 0
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
        start = self._pos
        if start == len(self._data) and not self.eof:
            raise IncompleteFrame
        try:
            _read_frame(self).send(None)
        except StopIteration as done:
            return done.value
        except IncompleteFrame:
            self._pos = start
            raise
