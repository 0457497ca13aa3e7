"""Sharding: the replicated directory, scaled out.

See :mod:`repro.shard.sharded` for the design notes.  The public
surface:

* :class:`ShardedDirectory` — N independent replica suites behind one
  :class:`~repro.core.interface.Directory` front-end.
* :class:`ShardMap` / :class:`ShardMapDelta` — immutable, epoch-stamped
  key → shard routing (range or hash form) whose ``split`` derives the
  successor epoch and names the range it moves onto a new shard.
* :class:`Resharder` — the COPY → CUTOVER → DRAIN state machine
  migrating one key range onto a new, empty shard suite online.
* :class:`ReshardController` — automatic hot-shard splitting from live
  windowed routing rates.
* :class:`ShardAuditor` — merged invariant auditing over every shard,
  including ``audit_reshard`` for completed migrations.
"""

from repro.shard.audit import ShardAuditor
from repro.shard.maps import ShardMap, ShardMapDelta, resolve_shard_map
from repro.shard.reshard import Resharder, ReshardController, ReshardRecord
from repro.shard.sharded import ShardedDirectory

__all__ = [
    "Resharder",
    "ReshardController",
    "ReshardRecord",
    "ShardAuditor",
    "ShardMap",
    "ShardMapDelta",
    "ShardedDirectory",
    "resolve_shard_map",
]
