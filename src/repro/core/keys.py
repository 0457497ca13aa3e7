"""Key model for replicated directories.

The paper requires every directory representative to contain two
distinguished keys, ``LOW`` and ``HIGH``::

    HIGH is greater than any key that can be inserted into the
    representative, and LOW is less than any key.  HIGH and LOW simplify
    the directory suite delete operation by ensuring that all keys have a
    real successor and real predecessor.

This module provides :class:`BoundedKey`, a total-order wrapper that embeds
arbitrary (mutually comparable) user keys between the two sentinels, and
:class:`KeyRange`, the closed/open interval algebra used by the range-lock
manager (Figure 7 of the paper) and by the coalesce operation.

A :class:`BoundedKey` is a ``(rank, payload)`` tuple.  Every store bisect,
neighbour search, lock-range test and wave-dict lookup compares or hashes
keys, so the order and the hash are tuple's own, in C: rank first, then
payload.  The price is that a key equals the plain tuple with the same two
items (``wrap("k") == (_Sentinel.NORMAL, "k")``), so no container may mix
:class:`BoundedKey` instances with raw tuples; every key a representative
holds is wrapped.

A :class:`KeyRange` is a ``(low, high)`` tuple for the same reason: the
lock table tests two ranges for intersection with four C comparisons of
``r[0]``/``r[1]``, and a point lock on the hot path is the plain pair
``(key, key)``.  It carries the same caveat: a range equals the plain pair
of its two keys.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Any, Iterable


class _Sentinel(enum.IntEnum):
    """Ordering rank of a :class:`BoundedKey`.

    ``LOW < NORMAL < HIGH``; two NORMAL keys compare by their payload.
    """

    LOW = 0
    NORMAL = 1
    HIGH = 2


class BoundedKey(tuple):
    """A user key embedded in the bounded key space of a representative.

    Instances are immutable, hashable, and totally ordered.  The two
    sentinel instances are exposed as module-level constants :data:`LOW`
    and :data:`HIGH`; user keys are wrapped with :func:`wrap` (or the
    :meth:`of` constructor).

    The key is the tuple ``(rank, payload)``, so comparison is tuple
    comparison: rank first (``LOW < NORMAL < HIGH``; a sentinel's payload
    is ``None``, so equal sentinels are equal), then payload.  The payload
    of a NORMAL key may be any value that is totally ordered against the
    other payloads used in the same directory (strings, integers,
    tuples, ...).  Mixing incomparable payload types in one directory
    raises ``TypeError`` at comparison time, which is the correct, loud
    failure mode.  ``hash(key) == hash((rank, payload))``.

    Being a tuple, a key also equals the plain tuple ``(rank, payload)``
    and hashes like it.  Nothing relies on that, and nothing may: a
    container that mixed keys with raw tuples would conflate
    ``wrap("k")`` with a user's tuple ``(1, "k")``.
    """

    __slots__ = ()

    def __new__(cls, rank: _Sentinel, payload: Any = None) -> "BoundedKey":
        return tuple.__new__(cls, (rank, payload))

    def __getnewargs__(self) -> tuple[_Sentinel, Any]:
        # tuple's own would hand ``__new__`` the whole pair as ``rank``;
        # pickle and copy rebuild the key from its two items instead.
        return tuple(self)  # type: ignore[return-value]

    #: Ordering rank (a :class:`_Sentinel` member).
    rank = property(itemgetter(0))
    #: The user payload; ``None`` for a sentinel.
    payload = property(itemgetter(1))

    # -- constructors -----------------------------------------------------

    @classmethod
    def of(cls, payload: Any) -> "BoundedKey":
        """Wrap ``payload`` as a normal (non-sentinel) key."""
        if isinstance(payload, BoundedKey):
            return payload
        return cls(_Sentinel.NORMAL, payload)

    # -- predicates -------------------------------------------------------

    @property
    def is_low(self) -> bool:
        """True if this is the LOW sentinel."""
        return self[0] is _Sentinel.LOW

    @property
    def is_high(self) -> bool:
        """True if this is the HIGH sentinel."""
        return self[0] is _Sentinel.HIGH

    @property
    def is_sentinel(self) -> bool:
        """True if this is either sentinel."""
        return self[0] is not _Sentinel.NORMAL

    def __repr__(self) -> str:
        if self.is_low:
            return "LOW"
        if self.is_high:
            return "HIGH"
        return f"Key({self[1]!r})"


#: The distinguished key smaller than every insertable key.
LOW = BoundedKey(_Sentinel.LOW)

#: The distinguished key greater than every insertable key.
HIGH = BoundedKey(_Sentinel.HIGH)


def wrap(payload: Any) -> BoundedKey:
    """Wrap a user payload as a :class:`BoundedKey` (idempotent)."""
    return BoundedKey.of(payload)


def unwrap(key: BoundedKey) -> Any:
    """Return the user payload of a normal key.

    Raises ``ValueError`` for sentinels, which have no user payload.
    """
    if key.is_sentinel:
        raise ValueError(f"sentinel key {key!r} has no payload")
    return key.payload


def wrap_all(payloads: Iterable[Any]) -> list[BoundedKey]:
    """Wrap an iterable of payloads, preserving order."""
    return [BoundedKey.of(p) for p in payloads]


class KeyRange(tuple):
    """A closed interval ``[low .. high]`` of bounded keys.

    The lock classes of the paper (RepLookup(sigma, tau) and
    RepModify(sigma, tau)) lock "those keys greater than or equal to sigma
    and less than or equal to tau" — closed intervals — and lock
    compatibility depends only on whether two ranges *intersect*.  This
    class implements exactly that algebra.

    The range is the tuple ``(low, high)``, as a key is ``(rank,
    payload)``: building one is a validated ``tuple.__new__`` and reading
    its ends is indexing, so the lock table (which reads ``r[0]`` and
    ``r[1]``) also takes the plain pair ``(key, key)`` for a point range
    and a representative's hot path builds no range object at all.  The
    same caveat as :class:`BoundedKey` applies: a range equals and hashes
    like the plain pair of its ends, so no container may mix the two.
    """

    __slots__ = ()

    def __new__(cls, low: BoundedKey, high: BoundedKey) -> "KeyRange":
        if high < low:
            raise ValueError(f"invalid key range: low {low!r} > high {high!r}")
        return tuple.__new__(cls, (low, high))

    def __getnewargs__(self) -> tuple[BoundedKey, BoundedKey]:
        # As for BoundedKey: rebuild from the two ends, not the pair.
        return tuple(self)  # type: ignore[return-value]

    #: The smallest key in the range.
    low = property(itemgetter(0))
    #: The largest key in the range.
    high = property(itemgetter(1))

    # -- constructors -----------------------------------------------------

    @classmethod
    def point(cls, key: BoundedKey) -> "KeyRange":
        """The degenerate range ``[key .. key]`` (a single key)."""
        return tuple.__new__(cls, (key, key))

    @classmethod
    def of(cls, low: Any, high: Any) -> "KeyRange":
        """Build a range from user payloads or BoundedKeys."""
        return cls(BoundedKey.of(low), BoundedKey.of(high))

    @classmethod
    def full(cls) -> "KeyRange":
        """The whole key space, ``[LOW .. HIGH]``."""
        return cls(LOW, HIGH)

    # -- queries ----------------------------------------------------------

    def contains(self, key: BoundedKey) -> bool:
        """True if ``key`` lies inside the closed interval."""
        return self[0] <= key <= self[1]

    def contains_strictly(self, key: BoundedKey) -> bool:
        """True if ``key`` lies strictly inside the interval."""
        return self[0] < key < self[1]

    def intersects(self, other: "KeyRange") -> bool:
        """True if the two closed intervals share at least one key.

        This is the predicate the Figure 7 lock-compatibility matrix is
        built on.
        """
        return self[0] <= other[1] and other[0] <= self[1]

    def covers(self, other: "KeyRange") -> bool:
        """True if ``other`` is entirely inside this range."""
        return self[0] <= other[0] and other[1] <= self[1]

    def is_point(self) -> bool:
        """True if the range holds exactly one key."""
        return self[0] == self[1]

    def union_hull(self, other: "KeyRange") -> "KeyRange":
        """The smallest range covering both ranges (their convex hull)."""
        return KeyRange(min(self[0], other[0]), max(self[1], other[1]))

    def __repr__(self) -> str:
        return f"[{self[0]!r} .. {self[1]!r}]"


def hull(ranges: Iterable[KeyRange]) -> KeyRange:
    """Convex hull of a non-empty iterable of ranges."""
    it = iter(ranges)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("hull() of an empty iterable") from None
    for r in it:
        acc = acc.union_hull(r)
    return acc
