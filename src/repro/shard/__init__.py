"""Sharding: the replicated directory, scaled out.

See :mod:`repro.shard.sharded` for the design notes.  The public
surface:

* :class:`ShardedDirectory` — N independent replica suites behind one
  :class:`~repro.core.interface.Directory` front-end.
* :class:`ShardMap` / :class:`RangeShardMap` / :class:`HashShardMap` —
  pluggable key → shard routing.
* :class:`VersionedShardMap` / :class:`ShardMapDelta` — epoch-stamped
  maps whose ``split``/``merge`` derive successor epochs for live
  resharding.
* :class:`Resharder` — the COPY → CUTOVER → DRAIN state machine
  migrating one key range between shard suites online.
* :class:`ReshardController` — automatic hot-shard splitting from live
  windowed routing rates.
* :class:`ShardAuditor` — merged invariant auditing over every shard,
  including ``audit_reshard`` for completed migrations.
"""

from repro.shard.audit import ShardAuditor
from repro.shard.maps import (
    HashShardMap,
    RangeShardMap,
    ShardMap,
    ShardMapDelta,
    VersionedShardMap,
    resolve_shard_map,
)
from repro.shard.reshard import Resharder, ReshardController, ReshardRecord
from repro.shard.sharded import ShardedDirectory

__all__ = [
    "HashShardMap",
    "RangeShardMap",
    "Resharder",
    "ReshardController",
    "ReshardRecord",
    "ShardAuditor",
    "ShardMap",
    "ShardMapDelta",
    "ShardedDirectory",
    "VersionedShardMap",
    "resolve_shard_map",
]
