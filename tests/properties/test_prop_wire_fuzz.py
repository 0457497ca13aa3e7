"""Property: nothing a client can send makes the front door fail inside.

Random bytes, and random request arrays built from the verb table with
``@``-metadata (trace ids, epochs, unknown fields) and arguments of any
text, are written pipelined to a served directory.  The oracle holds
the front door to its contract: every reply is a reply the protocol
defines — never ``-ERR internal …``, which is what an exception the
server did not expect becomes — nothing is logged on the serving loop
and nothing reaches stderr (no traceback anywhere), and a connection
opened afterwards is still answered ``+PONG``.  Bytes that are not
frames are answered ``-ERR protocol …`` and hung up on; that is the
contract too.  Requests also arrive nested thousands of arrays deep
and trickled in pieces cut at random offsets, so frames straddle the
server's reads.
"""

from __future__ import annotations

import io
import logging
import socket
import time
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.service import protocol
from repro.service.protocol import ReplyError, encode_command
from repro.service.server import DirectoryService
from repro.shard.maps import ShardMap
from repro.shard.sharded import ShardedDirectory

VERBS = sorted(DirectoryService._VERBS) + ["FOO", ""]

_text = st.text(
    alphabet=st.characters(exclude_categories=("Cs",)), max_size=12
)
_key = st.sampled_from(["", "a", "m", "z"]) | _text
#: Arguments shaped for each verb, so that most requests reach the
#: verb's own branches (replica names with and without a shard prefix,
#: windows and counts, the ``RESHARD`` sub-verbs) instead of its usage
#: check; any argument may still be any text.
_SHAPED = {
    "REJOIN": st.tuples(
        st.sampled_from(["A", "s0/A", "s1/C", "s9/A", "s/A", "x/y"]) | _text
    ),
    "RESHARD": st.just(("STATUS",)) | st.tuples(st.just("SPLIT"), _key),
    "STATS": st.tuples(st.sampled_from(["10", "-1", "1e400", "nan"]) | _text),
    "SLOW": st.tuples(st.sampled_from(["1", "0", "99999999999"]) | _text),
    **{
        verb: st.tuples(_key, _text)
        for verb in ("INSERT", "UPDATE", "SET")
    },
    **{verb: st.tuples(_key) for verb in ("LOOKUP", "GET", "DELETE", "DEL")},
}
_meta = st.one_of(
    st.builds("@trace={}".format, _text),
    st.builds("@epoch={}".format, st.integers(min_value=0, max_value=10**25)),
    st.sampled_from(["@epoch=0", "@epoch=1", "@epoch=", "@", "@x=1"]),
    st.builds("@{}".format, _text),
)


@st.composite
def _frame(draw: Any) -> bytes:
    verb = draw(st.sampled_from(VERBS))
    if verb in _SHAPED and draw(st.booleans()):
        args = list(draw(_SHAPED[verb]))
    else:
        args = draw(st.lists(_text, max_size=3))
    if draw(st.booleans()):
        verb = verb.lower()
    return encode_command(verb, *args, *draw(st.lists(_meta, max_size=3)))


def _served() -> "tuple[ShardedDirectory, DirectoryService]":
    spec = ClusterSpec(
        config="3-2-2", seed=5, transport="asyncio", fanout="parallel"
    )
    d = ShardedDirectory.create(spec, shards=2, shard_map=ShardMap.range(["m"]))
    return d, DirectoryService(d).start()


def _exchange(address: Any, *pieces: bytes) -> "list[Any]":
    """Write the pieces a moment apart, half-close, and parse every
    reply frame."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for i, piece in enumerate(pieces):
                if i:
                    time.sleep(0.0005)
                sock.sendall(piece)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # hung up on: the bytes before were not frames
        chunks = []
        while True:
            try:
                data = sock.recv(65536)
            except ConnectionResetError:
                break  # hung up with bytes of ours unread
            if not data:
                break
            chunks.append(data)
    stream = io.BytesIO(b"".join(chunks))
    replies = []
    while stream.tell() < len(stream.getbuffer()):
        replies.append(protocol.read_frame_sync(stream))
    return replies


def _internal(replies: "list[Any]") -> "list[Any]":
    def errors(reply: Any) -> "list[ReplyError]":
        if isinstance(reply, ReplyError):
            return [reply]
        if isinstance(reply, list):
            return [e for item in reply for e in errors(item)]
        return []

    return [
        e
        for reply in replies
        for e in errors(reply)
        if e.code == "ERR" and e.detail.startswith("internal")
    ]


def _fuzz(payloads: Any, caplog: Any, capfd: Any) -> None:
    d, svc = _served()
    address = (svc.host, svc.port)
    try:
        with caplog.at_level(logging.WARNING):

            @settings(deadline=None)
            @given(pieces=payloads)
            def check(pieces: "list[bytes]") -> None:
                replies = _exchange(address, *pieces)
                assert not _internal(replies), (pieces, replies)
                assert _exchange(address, encode_command("PING")) == ["PONG"]

            check()
    finally:
        svc.close()
        d.close()
    assert not caplog.records, caplog.text
    assert "Traceback" not in capfd.readouterr().err


def test_random_bytes_never_fail_inside(caplog, capfd):
    _fuzz(
        st.one_of(
            st.binary(max_size=64),
            st.builds(
                bytes.__add__,
                st.lists(_frame(), max_size=3).map(b"".join),
                st.binary(max_size=24),
            ),
        ).map(lambda payload: [payload]),
        caplog,
        capfd,
    )


def test_random_requests_with_metadata_never_fail_inside(caplog, capfd):
    _fuzz(
        st.lists(_frame(), min_size=1, max_size=6).map(
            lambda frames: [b"".join(frames)]
        ),
        caplog,
        capfd,
    )


#: A value nested ``depth`` arrays deep: one-element arrays, or pairs
#: whose first element is an integer or a bulk.
_nested = st.builds(
    lambda level, depth, leaf: level * depth + leaf,
    st.sampled_from([b"*1\r\n", b"*2\r\n:1\r\n", b"*2\r\n$1\r\nk\r\n"]),
    st.integers(min_value=1, max_value=5000),
    st.sampled_from([b":1\r\n", b"$-1\r\n", b"*0\r\n", b"$3\r\nGET\r\n"]),
)


def test_deeply_nested_frames_never_fail_inside(caplog, capfd):
    _fuzz(
        st.builds(
            lambda nested, frames: [nested + b"".join(frames)],
            _nested,
            st.lists(_frame(), max_size=2),
        ),
        caplog,
        capfd,
    )


@st.composite
def _trickled(draw: Any) -> "list[bytes]":
    """Requests (and now and then bytes that are not frames) cut into
    pieces at random offsets, so frames straddle the server's reads."""
    payload = b"".join(draw(st.lists(_frame(), min_size=1, max_size=4)))
    payload += draw(st.just(b"") | st.binary(max_size=8) | _nested)
    cuts = draw(
        st.lists(st.integers(min_value=1, max_value=len(payload)), max_size=16)
    )
    edges = sorted({0, len(payload), *cuts})
    return [payload[a:b] for a, b in zip(edges, edges[1:])]


def test_trickled_requests_never_fail_inside(caplog, capfd):
    _fuzz(_trickled(), caplog, capfd)
