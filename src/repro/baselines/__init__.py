"""Replication strategies the paper compares against or develops from.

* :mod:`repro.baselines.file_voting` — Gifford's weighted voting for
  files, the algorithm the paper generalizes;
* :mod:`repro.baselines.directory_as_file` — the whole directory as one
  voted file: correct but fully serialized and whole-object shipped;
* :mod:`repro.baselines.unanimous` — write-all/read-one, the delete-cost
  comparison point of section 4;
* :mod:`repro.baselines.primary_copy` — primary/secondary copies with
  observable staleness;
* :mod:`repro.baselines.naive_entry_versions` — the broken per-entry
  version scheme of section 2, with the paper's
  extra-representative resolution as an option;
* :mod:`repro.baselines.static_partition` — fixed key-range partitions,
  each a mini voted file;
* :mod:`repro.baselines.tombstone` — §2's mark-deleted + periodic
  garbage collection alternative, with its measurable space and
  availability costs.

Each hosts its replicas on a fresh simulated network through
:mod:`repro.baselines.hosted`, which is also their one availability
filter; the four voting baselines (file voting, naive per-entry
versions, static partitions, tombstones) draw read and write quorums
with :class:`~repro.core.quorum.RandomQuorumPolicy`, exactly as the
suite does by default.
"""

from repro.baselines.directory_as_file import DirectoryAsFile, build_directory_as_file
from repro.core.interface import register_directory
from repro.baselines.file_voting import FileSuite, build_file_suite
from repro.baselines.naive_entry_versions import (
    NaiveReplicatedDirectory,
    build_naive,
)
from repro.baselines.primary_copy import PrimaryCopyDirectory, build_primary_copy
from repro.baselines.static_partition import (
    StaticPartitionedDirectory,
    build_static_partitioned,
)
from repro.baselines.tombstone import TombstoneDirectory, build_tombstone
from repro.baselines.unanimous import UnanimousDirectory, build_unanimous

__all__ = [
    "TombstoneDirectory",
    "build_tombstone",
    "FileSuite",
    "build_file_suite",
    "DirectoryAsFile",
    "build_directory_as_file",
    "UnanimousDirectory",
    "build_unanimous",
    "PrimaryCopyDirectory",
    "build_primary_copy",
    "NaiveReplicatedDirectory",
    "build_naive",
    "StaticPartitionedDirectory",
    "build_static_partitioned",
]

# -- conformance registration (see repro.core.interface) -----------------------
#
# Every baseline that implements the full Directory surface registers a
# seeded factory here, so the conformance suite exercises them all with
# one op sequence.  Notes on the choices:
#
# * ``naive-consult`` uses "3-3-3" (read and write quorums cover all
#   three replicas): with partial quorums the naive per-entry-version
#   scheme is *known* to mis-serve reinserted keys — that brokenness is
#   the baseline's point, but it would fail conformance, which tests the
#   contract, not the pathology.  At full quorums it is exact.
# * ``primary-copy`` registers in read_primary_only mode for the same
#   reason: async secondary reads are deliberately stale.

register_directory(
    "directory-as-file", lambda: build_directory_as_file("3-2-2", seed=0)
)
register_directory("unanimous", lambda: build_unanimous(3, seed=0))
register_directory(
    "primary-copy",
    lambda: build_primary_copy(2, seed=0, read_primary_only=True),
)
register_directory(
    "naive-consult",
    lambda: build_naive("3-3-3", seed=0, resolution="consult")[0],
)
register_directory("tombstone", lambda: build_tombstone("3-2-2", seed=0)[0])
register_directory(
    "static-partitioned",
    lambda: build_static_partitioned("3-2-2", n_partitions=4, seed=0),
)
