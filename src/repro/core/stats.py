"""Running statistics for the paper's three delete-overhead measurements.

Section 4 of the paper characterizes the algorithm with three statistics:

1. **Entries in ranges coalesced** — per representative, the number of
   entries that lie between the real predecessor and real successor of a
   deleted key (including the deleted entry if present and any ghosts;
   excluding the bounds themselves).
2. **Insertions while coalescing** — per suite per delete, how many real
   predecessors/successors had to be installed on write-quorum members
   that lacked them.
3. **Deletions while coalescing** — per suite per delete, how many ghost
   entries (keys other than the deleted one) were removed.

Figure 15 reports Avg / Max / Std Dev for each, so the collector keeps
Welford running moments plus the maximum; raw samples are optional (off by
default — a 100,000-operation run would otherwise hold every sample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


#: LCG multiplier/increment (Knuth's MMIX constants) for the reservoir's
#: private random stream — deterministic, so two runs over the same
#: sample sequence report identical percentiles.
_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def percentile(ordered: "list[float]", q: float) -> float:
    """The ``q``-th percentile (``q`` in [0, 100]) of an ascending list.

    The repo's one definition — ``RunningStat``, the live ``STATS``
    window and the load generator all report it: linear interpolation
    between the closest ranks, rank ``(n - 1) * q / 100`` (numpy's
    default), and 0.0 for no samples.
    """
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class RunningStat:
    """Welford online mean/variance plus max, optionally keeping samples.

    ``keep_samples`` retains every sample (unbounded memory).
    ``reservoir`` retains at most that many via deterministic reservoir
    sampling (Algorithm R over a private LCG stream), which is enough for
    percentile estimates at bounded memory; :meth:`percentile` reads
    whichever sample store is active.
    """

    keep_samples: bool = False
    n: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    max: float = 0.0
    samples: list[float] = field(default_factory=list)
    reservoir: int = 0
    _rsamples: list[float] = field(default_factory=list)
    _rstate: int = 0x9E3779B97F4A7C15

    def add(self, x: float) -> None:
        """Record one sample."""
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)
        if self.n == 1 or x > self.max:
            self.max = x
        if self.keep_samples:
            self.samples.append(x)
        elif self.reservoir:
            if len(self._rsamples) < self.reservoir:
                self._rsamples.append(x)
            else:
                self._rstate = (
                    self._rstate * _LCG_MUL + _LCG_INC
                ) & _LCG_MASK
                j = self._rstate % self.n
                if j < self.reservoir:
                    self._rsamples[j] = x

    @property
    def avg(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self.mean if self.n else 0.0

    @property
    def variance(self) -> float:
        """Population variance (the convention simulation papers report)."""
        return self._m2 / self.n if self.n else 0.0

    @property
    def std_dev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def retained_samples(self) -> tuple[float, ...]:
        """The samples available for percentile estimation.

        The full sample list under ``keep_samples``, the bounded
        reservoir otherwise (empty when neither retention mode is on).
        """
        return tuple(self.samples if self.keep_samples else self._rsamples)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``q`` in [0, 100]) of retained samples.

        :func:`percentile` over the sorted sample store (exact under
        ``keep_samples``, a reservoir estimate otherwise).  Returns 0.0
        when no samples have been recorded;
        raises ``ValueError`` if samples were recorded but none retained
        (construct with ``keep_samples=True`` or ``reservoir=k``).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q out of [0, 100]: {q}")
        data = self.samples if self.keep_samples else self._rsamples
        if self.n and not data:
            raise ValueError(
                "percentile() needs keep_samples=True or reservoir>0"
            )
        return percentile(sorted(data), q)

    def merge(self, other: "RunningStat") -> None:
        """Fold another collector's moments into this one."""
        if other.n == 0:
            return
        if self.n == 0:
            self.n, self.mean, self._m2 = other.n, other.mean, other._m2
            self.max = other.max
            if self.keep_samples:
                self.samples.extend(other.samples)
            self._merge_reservoir(other)
            return
        n = self.n + other.n
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / n
        self.mean += delta * other.n / n
        self.n = n
        self.max = max(self.max, other.max)
        if self.keep_samples:
            self.samples.extend(other.samples)
        self._merge_reservoir(other)

    def _merge_reservoir(self, other: "RunningStat") -> None:
        if self.reservoir and not self.keep_samples:
            room = self.reservoir - len(self._rsamples)
            if room > 0:
                self._rsamples.extend(other.retained_samples[:room])

    def as_row(self) -> dict[str, float]:
        """Avg/Max/StdDev dict in the shape Figure 15 prints."""
        return {"avg": self.avg, "max": self.max, "std_dev": self.std_dev}


@dataclass
class DeleteOverheadStats:
    """The paper's three statistics (section 4)."""

    keep_samples: bool = False
    entries_coalesced: RunningStat = field(default_factory=RunningStat)
    insertions_while_coalescing: RunningStat = field(default_factory=RunningStat)
    deletions_while_coalescing: RunningStat = field(default_factory=RunningStat)

    def __post_init__(self) -> None:
        for stat in self._stats():
            stat.keep_samples = self.keep_samples

    def _stats(self) -> tuple[RunningStat, RunningStat, RunningStat]:
        return (
            self.entries_coalesced,
            self.insertions_while_coalescing,
            self.deletions_while_coalescing,
        )

    def record_delete(
        self,
        per_rep_entries_coalesced: list[int],
        insertions: int,
        ghost_deletions: int,
    ) -> None:
        """Record one DirSuiteDelete's overhead."""
        for count in per_rep_entries_coalesced:
            self.entries_coalesced.add(count)
        self.insertions_while_coalescing.add(insertions)
        self.deletions_while_coalescing.add(ghost_deletions)

    def merge(self, other: "DeleteOverheadStats") -> None:
        """Fold another collector into this one."""
        for mine, theirs in zip(self._stats(), other._stats()):
            mine.merge(theirs)

    def as_table(self) -> dict[str, dict[str, float]]:
        """All three statistics as Avg/Max/StdDev rows."""
        return {
            "entries_in_ranges_coalesced": self.entries_coalesced.as_row(),
            "deletions_while_coalescing": self.deletions_while_coalescing.as_row(),
            "insertions_while_coalescing": self.insertions_while_coalescing.as_row(),
        }


@dataclass
class SuiteOpCounts:
    """How many of each public operation a suite has executed."""

    lookups: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    failed: int = 0

    @property
    def total(self) -> int:
        return self.lookups + self.inserts + self.updates + self.deletes
