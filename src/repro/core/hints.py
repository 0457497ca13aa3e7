"""Zero-vote hint representatives (Gifford's weak representatives).

Section 2 lists, among weighted voting's attractive attributes:
"representatives with zero votes may be used as hints [Lampson 79]."  A
hint holds a copy of the directory near the client but carries no votes,
so it can never decide anything — its data must be *validated* against a
real read quorum before use.  The validation is cheap because only
version numbers cross the network: the client reads (version, value)
from the nearby hint and version-only probes from a read quorum; if the
hint's version equals the quorum maximum, the hint's data is provably
current (quorum intersection: the maximum version in any read quorum is
the current version).  Otherwise the client falls back to a full lookup
— hints can be arbitrarily stale without ever being wrong.

:class:`HintedDirectory` wraps a suite with one or more hint
representatives, tracks hit/miss counters, and refreshes hints lazily
(copying the authoritative entry onto the hint after a miss) so a mostly
read workload converges to all-hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.errors import NetworkError
from repro.core.keys import BoundedKey
from repro.core.suite import DirectorySuite


@dataclass
class HintStats:
    """Effectiveness counters for one hinted directory."""

    hits: int = 0  # hint validated current: full value fetch avoided
    misses: int = 0  # hint stale or empty: fell back to a full lookup
    refreshes: int = 0  # entries copied onto the hint after misses
    hint_unavailable: int = 0  # hint node down: plain lookup

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict snapshot for the metrics registry."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "refreshes": self.refreshes,
            "hint_unavailable": self.hint_unavailable,
            "hit_rate": self.hit_rate,
        }


class HintedDirectory:
    """A directory suite fronted by a zero-vote hint representative.

    Parameters
    ----------
    suite:
        The underlying directory suite.
    hint:
        Name of the hint representative.  It must appear in the suite's
        placements with **zero votes** (so quorum policies never select
        it) and is typically co-located with the client.
    refresh_on_miss:
        Copy the authoritative entry onto the hint after each miss, so
        repeated reads become hits.
    """

    def __init__(
        self,
        suite: DirectorySuite,
        hint: str,
        refresh_on_miss: bool = True,
    ) -> None:
        if hint not in suite.placements:
            raise ValueError(f"unknown hint representative {hint!r}")
        if suite.config.votes.get(hint, 0) != 0:
            raise ValueError(
                f"hint representative {hint!r} must carry zero votes; "
                "a voting representative needs no validation protocol"
            )
        self.suite = suite
        self.hint = hint
        self.refresh_on_miss = refresh_on_miss
        self.stats = HintStats()
        # `self.stats` stays the public counter object; the cluster
        # registry reads it through a provider.
        suite.metrics.provider(f"hints.{hint}", self.stats.as_dict)

    # -- the hinted read protocol ------------------------------------------------

    def lookup(self, key: Any) -> tuple[bool, Any]:
        """Hint-validated lookup.

        One data read from the hint plus R version-only probes; a full
        lookup only when the hint is stale.  Never returns stale data:
        the hint is used only when its version equals the read quorum's
        maximum, which *is* the current version.
        """
        bkey = self.suite._user_key(key)
        self.suite.op_counts.lookups += 1
        with self.suite._op_span(
            "lookup", key=key, hinted=True
        ), self.suite._transaction() as txn:
            hint_reply = self._read_hint(txn, bkey)
            quorum = self.suite._collect_quorum("read")
            current_version = max(
                self.suite._round(
                    txn, [(rep, "rep_lookup_version", (bkey,)) for rep in quorum]
                )
            )
            if hint_reply is not None and hint_reply.version == current_version:
                self.stats.hits += 1
                return hint_reply.present, hint_reply.value
            self.stats.misses += 1
            reply = self.suite._suite_lookup(txn, bkey)
            if (
                self.refresh_on_miss
                and reply.present
                and hint_reply is not None
            ):
                self.suite._round(
                    txn,
                    [(self.hint, "rep_insert", (bkey, reply.version, reply.value))],
                )
                self.stats.refreshes += 1
            return reply.present, reply.value

    def _read_hint(self, txn, bkey: BoundedKey):
        """The hint's reply, or None when the hint node is unreachable.

        A hint that executed the read is enlisted, like any round member,
        so its locks release at commit.
        """
        try:
            return self.suite._round(txn, [(self.hint, "rep_lookup", (bkey,))])[0]
        except NetworkError:
            self.stats.hint_unavailable += 1
            return None

    # -- modifications pass straight through to the suite ------------------------

    def insert(self, key: Any, value: Any) -> None:
        """DirSuiteInsert (hints receive entries lazily, via misses)."""
        self.suite.insert(key, value)

    def update(self, key: Any, value: Any) -> None:
        """DirSuiteUpdate."""
        self.suite.update(key, value)

    def delete(self, key: Any) -> None:
        """DirSuiteDelete."""
        self.suite.delete(key)
