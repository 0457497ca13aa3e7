"""Simulated time source shared by a cluster.

All components of a simulated cluster observe one logical clock.  The RPC
layer advances it by per-message latency, the failure injector schedules
crashes and recoveries against it, and the concurrency simulator uses it as
the event-queue time base.  Using simulated rather than wall-clock time
makes every experiment deterministic and independent of host speed.
:class:`Clock` is the slice of it a network needs, which the served
transport's :class:`~repro.service.aio.WallClock` provides in real time.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """The slice of a time source the algorithm consumes.

    The simulated clock is manually advanced by the network layer; the
    wall clock advances by itself (its ``advance`` sleeps and its
    ``advance_to`` waits — you cannot push real time around).
    """

    def now(self) -> float: ...

    def advance(self, delta: float) -> float: ...

    def advance_to(self, when: float) -> float: ...


class SimClock:
    """A monotone, manually advanced logical clock.

    Time is a float in arbitrary "ticks"; the latency model defines what a
    tick means (the defaults treat one tick as one millisecond).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move time forward by ``delta`` ticks and return the new time.

        Negative deltas are rejected: simulated time never flows backward.
        """
        if delta < 0:
            raise ValueError(f"cannot advance clock by negative delta {delta}")
        self._now += delta
        return self._now

    def advance_to(self, when: float) -> float:
        """Move time forward to ``when`` (no-op if already past it)."""
        if when > self._now:
            self._now = when
        return self._now

    def travel(self, when: float) -> float:
        """Set the clock to ``when``, even backward.

        Escape hatch for *overlap executors* only: the sharded
        directory's wave executor replays each shard's operation group
        from a common start instant and then settles the clock at the
        slowest group's finish, mirroring the scatter-gather engine's
        max-not-sum accounting.  Within any one shard's timeline time
        still only moves forward; protocol code must use
        :meth:`advance` / :meth:`advance_to`.
        """
        self._now = float(when)
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(t={self._now:.3f})"
