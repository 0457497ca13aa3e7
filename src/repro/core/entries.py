"""Entry and gap records exchanged between representatives and suites.

A directory representative stores *entries* — (key, version, value)
triples — and associates a *gap version* with every maximal interval of
keys between consecutive entries.  The record types in this module are the
wire-level shapes of the replies in Figure 6 of the paper:

* ``DirRepLookup``   returns (boolean, version, value)            → :class:`LookupReply`
* ``DirRepPredecessor`` returns (key, version, version)           → :class:`NeighborReply`
* ``DirRepSuccessor``   returns (key, version, version)           → :class:`NeighborReply`
  (which also carries the neighbouring entry's value)

plus :class:`Entry`, the stored triple itself, and :class:`SuiteLookupReply`,
the result of the suite-level lookup in Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.keys import BoundedKey
from repro.core.versions import Version


@dataclass(frozen=True, slots=True)
class Entry:
    """A stored directory entry: a (key, value) pair with a version number.

    The sentinels LOW and HIGH are stored as ordinary entries with value
    ``None`` and version 0; they are permanent and invisible to users.
    """

    key: BoundedKey
    version: Version
    value: Any

    def with_version(self, version: Version) -> "Entry":
        """Copy of this entry carrying a different version number."""
        return Entry(self.key, version, self.value)

    def with_value(self, value: Any) -> "Entry":
        """Copy of this entry carrying a different value."""
        return Entry(self.key, self.version, value)


@dataclass(frozen=True, slots=True)
class LookupReply:
    """Reply of ``DirRepLookup(x)`` (Figure 6).

    If there is an entry for ``x``: ``present`` is True, ``version`` is the
    entry's version and ``value`` its value.  Otherwise ``present`` is
    False, ``version`` is the version of the *gap containing x*, and
    ``value`` is None.  Either way a version number is always returned —
    this is the whole point of the algorithm.
    """

    present: bool
    version: Version
    value: Any = None

    def beats(self, other: "LookupReply | None") -> bool:
        """True if this reply should supersede ``other`` in a quorum merge.

        The suite keeps the reply with the largest version number
        (Figure 8).  Ties are kept-first: with correct version assignment,
        two replies with equal versions for the same key carry identical
        information.
        """
        return other is None or self.version > other.version


@dataclass(frozen=True, slots=True)
class NeighborReply:
    """Reply of ``DirRepPredecessor(x)`` / ``DirRepSuccessor(x)`` (Figure 6).

    ``key``, ``entry_version`` and ``value`` describe the neighboring
    entry (largest key < x, or smallest key > x); ``gap_version`` is the
    version of the gap between ``x`` and that neighbor.

    The reply is therefore also what ``DirRepLookup`` would return, at
    this representative, for any key ``y`` between ``x`` and the
    neighbor inclusive: the entry itself for the neighbor, the gap's
    version for every key before it.  A wave's neighbour search judges
    its candidates from these replies, under the RepLookup lock the
    reply already took over that range
    (:meth:`repro.core.suite._NeighborSearch.verdict`).
    """

    key: BoundedKey
    entry_version: Version
    gap_version: Version
    value: Any = None


@dataclass(frozen=True, slots=True)
class SuiteLookupReply:
    """Reply of ``DirSuiteLookup(x)`` (Figure 8).

    The version number is used internally by RealPredecessor,
    DirSuiteInsert and DirSuiteDelete; "a user would ignore this number"
    (paper, footnote 4).
    """

    present: bool
    version: Version
    value: Any = None


@dataclass(frozen=True, slots=True)
class RealNeighbor:
    """Result of the RealPredecessor / RealSuccessor search (Figure 12).

    ``key``/``value``/``version`` describe the neighbor entry that is
    actually present in the suite; ``max_gap_version`` is the largest gap
    version number encountered while searching, which feeds the version
    number assigned to the coalesced gap.
    """

    key: BoundedKey
    value: Any
    version: Version
    max_gap_version: Version
