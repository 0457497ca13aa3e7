"""Checkpoint policies bounding write-ahead-log replay time.

A checkpoint copies the store's logical state into the log and truncates
older records, so recovery replays from the checkpoint instead of from the
beginning of history.  Policies decide *when* a representative should
checkpoint; the representative itself ensures checkpoints are only taken
while quiescent (no transaction in flight locally).
"""

from __future__ import annotations

from dataclasses import dataclass


class CheckpointPolicy:
    """Base policy: never checkpoint (full-log replay)."""

    def should_checkpoint(self, commits_since: int, log_records: int) -> bool:
        """Decide given activity since the last checkpoint."""
        return False


@dataclass
class EveryNCommits(CheckpointPolicy):
    """Checkpoint after every ``n`` committed transactions."""

    n: int = 100

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {self.n}")

    def should_checkpoint(self, commits_since: int, log_records: int) -> bool:
        return commits_since >= self.n


@dataclass
class LogSizeBound(CheckpointPolicy):
    """Checkpoint when the log grows past ``max_records`` records."""

    max_records: int = 1000

    def __post_init__(self) -> None:
        if self.max_records < 1:
            raise ValueError(
                f"log size bound must be >= 1, got {self.max_records}"
            )

    def should_checkpoint(self, commits_since: int, log_records: int) -> bool:
        return log_records >= self.max_records
