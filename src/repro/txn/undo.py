"""Undo records: how a representative rolls back an aborted transaction.

Every state-changing representative operation captures, at execution time,
the exact inverse action needed to restore the prior state.  On abort the
records are applied in reverse order.  The two record types correspond to
the two mutators of Figure 6:

* :class:`UndoInsert` reverses ``DirRepInsert`` — either the key was new
  (remove it and re-merge the gap it split) or it overwrote an entry
  (put the old entry back).
* :class:`UndoCoalesce` reverses ``DirRepCoalesce`` — re-install the
  removed segment (entries plus their interleaved gap versions).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

from repro.core.entries import Entry
from repro.core.keys import BoundedKey
from repro.core.versions import Version
from repro.storage.interface import RepresentativeStore, Segment


class UndoRecord(abc.ABC):
    """One inverse action, applied to a store during abort."""

    @abc.abstractmethod
    def apply(self, store: RepresentativeStore) -> None:
        """Reverse the original operation on ``store``."""


@dataclass(frozen=True, slots=True)
class UndoInsert(UndoRecord):
    """Inverse of a DirRepInsert.

    Exactly one of ``replaced`` / ``split_gap_version`` is set, mirroring
    :class:`repro.storage.interface.InsertResult`.  ``copied_for`` names
    the coalesce ``(low, high, version)`` a boundary copy was installed
    for (:meth:`repro.core.representative.DirectoryRepresentative.rep_write_many`),
    and is None for any other insert.
    """

    key: BoundedKey
    replaced: Entry | None = None
    split_gap_version: Version | None = None
    copied_for: "tuple | None" = None

    def apply(self, store: RepresentativeStore) -> None:
        if self.replaced is not None:
            # Overwrite: put the previous entry back.
            store.insert(self.replaced.key, self.replaced.version, self.replaced.value)
            return
        assert self.split_gap_version is not None
        store.remove_entry(self.key, self.split_gap_version)


@dataclass(frozen=True, slots=True)
class UndoCoalesce(UndoRecord):
    """Inverse of a DirRepCoalesce: restore the deleted segment.

    ``version`` is the one the coalesce gave its gap; with ``low`` and
    ``high`` it names the coalesce within its transaction.
    """

    low: BoundedKey
    high: BoundedKey
    removed: Segment
    version: Version | None = None

    def apply(self, store: RepresentativeStore) -> None:
        store.restore_segment(self.low, self.high, self.removed)


@dataclass(frozen=True, slots=True)
class UndoValue(UndoRecord):
    """Inverse of a whole-object overwrite (used by the file-voting baseline)."""

    setter: Any  # callable(value) restoring the previous state
    previous: Any

    def apply(self, store: RepresentativeStore) -> None:  # store unused
        self.setter(self.previous)
