"""JSON codec for the values a replica RPC carries across a socket.

A codec in waiting: co-located replicas are called directly
(:mod:`repro.service.aio`), so nothing under ``src/`` encodes an RPC
today.  It stays for the transport that puts replicas in their own
processes — and because ``benchmarks/perf`` measures it — and is to be
adopted or deleted when that transport lands (ROADMAP, "choose a
process model").

The internal RPC surface (suite front-end → representative) exchanges a
small, closed set of shapes: bounded keys, entries, the Figure 6 reply
records, coalesce results, and the repo's error hierarchy.  This module
maps each onto a tagged JSON form and back, so a RESP frame
(:mod:`repro.service.protocol`) can carry it as plain UTF-8 text.

Tags are single short keys on a wrapper object (``{"__k": ...}`` for a
key, ``{"__e": ...}`` for an entry, ...), chosen so plain JSON scalars
and arrays pass through untouched.  Plain dicts are wrapped too
(``{"__m": {...}}``) so user values can never collide with a tag.

Errors encode as ``["ClassName", [ctor args...]]`` and decode by looking
the class up in :mod:`repro.core.errors` — the *type* survives the trip
(retry policies branch on it), and so do the constructor attributes of
the classes the algorithm inspects (``node_id``, ``blockers``, ...).
An unknown class decodes to :class:`RemoteError` carrying the message.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core import errors as _errors
from repro.core.entries import Entry, LookupReply, NeighborReply
from repro.core.keys import BoundedKey, _Sentinel
from repro.storage.interface import CoalesceResult, Segment, StoreSnapshot


class RemoteError(_errors.ReproError):
    """A service-side exception whose class this client does not know."""

    def __init__(self, class_name: str, message: str) -> None:
        super().__init__(f"{class_name}: {message}")
        self.class_name = class_name


class WireError(_errors.ReproError):
    """A frame or payload could not be decoded."""


def encode_value(value: Any) -> Any:
    """The JSON-ready form of ``value`` (see module docstring)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, BoundedKey):
        return {"__k": [int(value.rank), encode_value(value.payload)]}
    if isinstance(value, Entry):
        return {
            "__e": [
                encode_value(value.key),
                value.version,
                encode_value(value.value),
            ]
        }
    if isinstance(value, LookupReply):
        return {
            "__lr": [value.present, value.version, encode_value(value.value)]
        }
    if isinstance(value, NeighborReply):
        return {
            "__nr": [
                encode_value(value.key),
                value.entry_version,
                value.gap_version,
                encode_value(value.value),
            ]
        }
    if isinstance(value, Segment):
        return {
            "__seg": [
                [encode_value(e) for e in value.entries],
                list(value.gap_versions),
            ]
        }
    if isinstance(value, StoreSnapshot):
        return {
            "__snap": [
                [encode_value(e) for e in value.entries],
                list(value.gap_versions),
            ]
        }
    if isinstance(value, CoalesceResult):
        return {"__cr": [encode_value(value.removed), value.new_version]}
    if isinstance(value, tuple):
        return {"__t": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {"__m": {str(k): encode_value(v) for k, v in value.items()}}
    raise WireError(f"cannot encode {type(value).__name__} for the wire")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        if len(value) == 1:
            (tag, body), = value.items()
            if tag == "__k":
                return BoundedKey(_Sentinel(body[0]), decode_value(body[1]))
            if tag == "__e":
                return Entry(decode_value(body[0]), body[1], decode_value(body[2]))
            if tag == "__lr":
                return LookupReply(body[0], body[1], decode_value(body[2]))
            if tag == "__nr":
                return NeighborReply(
                    decode_value(body[0]), body[1], body[2], decode_value(body[3])
                )
            if tag == "__seg":
                return Segment(
                    tuple(decode_value(e) for e in body[0]), tuple(body[1])
                )
            if tag == "__snap":
                return StoreSnapshot(
                    tuple(decode_value(e) for e in body[0]), tuple(body[1])
                )
            if tag == "__cr":
                return CoalesceResult(decode_value(body[0]), body[1])
            if tag == "__t":
                return tuple(decode_value(v) for v in body)
            if tag == "__m":
                return {k: decode_value(v) for k, v in body.items()}
        raise WireError(f"unknown wire tag in {sorted(value)!r}")
    raise WireError(f"cannot decode {type(value).__name__} from the wire")


#: Per-class constructor-argument extractors, for errors whose attributes
#: the algorithm inspects after the trip.  Anything not listed encodes
#: message-only and reconstructs as ``cls(message)`` when the class's
#: constructor is plain, else as :class:`RemoteError`.
_CTOR_ARGS: dict[type, Any] = {
    _errors.KeyAlreadyPresentError: lambda e: (e.key,),
    _errors.KeyNotPresentError: lambda e: (e.key,),
    _errors.SentinelKeyError: lambda e: (e.key,),
    _errors.CoalesceBoundsError: lambda e: (e.bound,),
    _errors.TransactionAbortedError: lambda e: (e.txn_id, e.reason),
    _errors.DeadlockError: lambda e: (e.txn_id, e.cycle),
    _errors.WouldBlockError: lambda e: (e.txn_id, e.blockers),
    _errors.NodeDownError: lambda e: (e.node_id,),
    _errors.OriginDownError: lambda e: (e.node_id,),
    _errors.RpcTimeoutError: lambda e: (e.node_id, e.method, e.lost),
    _errors.SnapshotUnavailableError: lambda e: (e.rep_name, e.in_flight),
    _errors.QuorumUnavailableError: lambda e: (e.needed, e.available, e.kind),
    _errors.StaleEpochError: lambda e: (e.epoch, e.key),
}


def encode_error(exc: BaseException) -> list[Any]:
    """``[class_name, [ctor args]]`` for an exception."""
    extractor = _CTOR_ARGS.get(type(exc))
    if extractor is not None:
        args = [encode_value(a) for a in extractor(exc)]
    else:
        args = [str(exc)]
    return [type(exc).__name__, args]


def decode_error(payload: list[Any]) -> BaseException:
    """Reconstruct the exception :func:`encode_error` captured."""
    class_name, args = payload[0], [decode_value(a) for a in payload[1]]
    cls = getattr(_errors, class_name, None)
    if cls is None or not (
        isinstance(cls, type) and issubclass(cls, BaseException)
    ):
        return RemoteError(class_name, ", ".join(map(str, args)))
    try:
        return cls(*args)
    except TypeError:
        return RemoteError(class_name, ", ".join(map(str, args)))


def dump(value: Any) -> str:
    """Compact JSON text of an encoded value."""
    return json.dumps(value, separators=(",", ":"))


def load(text: str | bytes) -> Any:
    """Parse JSON text (raises :class:`WireError` on malformed input)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise WireError(f"malformed wire JSON: {exc}") from None
