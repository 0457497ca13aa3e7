"""Quorum collection policies.

Weighted voting only requires that a read quorum carry R votes and a write
quorum W votes; *which* representatives are chosen is a policy decision
with large performance consequences that section 5 of the paper discusses:

* the paper's simulations choose quorum members "randomly from a uniform
  distribution" (:class:`RandomQuorumPolicy`);
* "if the memberships of write quorums change infrequently, coalescing
  during deletions will not be costly" (:class:`StickyQuorumPolicy`);
* "if transactions ... exhibit locality of reference ... quorums can be
  chosen that permit reads to be done locally and non-local writes to be
  distributed among all the non-local representatives" — Figure 16
  (:class:`LocalityQuorumPolicy`).

A policy receives the currently *available* representatives (up and
reachable) with their votes, and must return members carrying enough
votes, or raise :class:`~repro.core.errors.QuorumUnavailableError`.
Suites call :meth:`QuorumPolicy.choose`, which first consults a bound
failure detector (see :mod:`repro.net.detector`) so that retries under
fault injection avoid representatives recently seen dead, instead of
re-rolling the same doomed quorum.

A served wave (:mod:`repro.core.batch`) draws its write quorum *inside*
the read quorum it drew first (``within`` on :meth:`QuorumPolicy.choose`):
at R ≥ W a W-vote prefix of it, at R < W all of it topped up by the
policy.  Every member the wave writes is then one it read, and at R = W
the two quorums are one: no member is left only read, to be sent a
read-only ``prepare`` and to keep the ghosts of the wave's deletes — the
section 5 remark above, applied within one transaction.  The classic
path draws the two independently, as the paper's simulations do.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field

from repro.core.config import SuiteConfig
from repro.core.errors import QuorumUnavailableError


class QuorumPolicy(abc.ABC):
    """Strategy deciding which representatives form each quorum."""

    #: Optional metrics registry the owning suite binds; policies with
    #: interesting internal decisions (e.g. sticky reuse) publish into it.
    metrics = None
    #: Optional failure detector (see :mod:`repro.net.detector`): when
    #: bound, :meth:`choose` screens suspected representatives out of the
    #: candidate list so retries stop re-rolling known-bad quorums.
    detector = None
    _node_of = None

    def bind_metrics(self, registry) -> None:
        """Attach the cluster's :class:`~repro.obs.metrics.MetricsRegistry`."""
        self.metrics = registry

    def bind_detector(self, detector, node_of=None) -> None:
        """Attach a failure detector.

        ``node_of`` maps a representative name to the node id the
        detector tracks (a suite passes its placement map); identity by
        default.
        """
        self.detector = detector
        self._node_of = node_of or (lambda name: name)

    def choose(
        self,
        kind: str,
        available: list[str],
        config: SuiteConfig,
        rng: random.Random,
        within: "list[str] | None" = None,
    ) -> list[str]:
        """Screen suspects out of ``available``, then :meth:`select`.

        Screening is advisory: if the trusted survivors cannot carry a
        quorum, the full candidate list is used unchanged (and a
        ``suite.quorum.<kind>.suspect_fallbacks`` counter ticks), so a
        stale suspicion can never make an operation less available.

        ``within`` (a served wave passes its read quorum when it draws
        its write quorum) nests the draw: the quorum is the shortest
        prefix of ``within``'s screened members that carries the votes,
        with no draw of its own; only when they carry too few is it
        all of them topped up, in the order :meth:`select` draws, from
        the rest.
        """
        if self.detector is not None:
            trusted = [
                n for n in available
                if not self.detector.is_suspect(self._node_of(n))
            ]
            if len(trusted) < len(available):
                needed = self.quorum_size(kind, config)
                if sum(config.votes[n] for n in trusted) >= needed:
                    if self.metrics is not None:
                        self.metrics.counter(
                            f"suite.quorum.{kind}.suspects_screened"
                        ).inc(len(available) - len(trusted))
                    available = trusted
                elif self.metrics is not None:
                    self.metrics.counter(
                        f"suite.quorum.{kind}.suspect_fallbacks"
                    ).inc()
        if within is None:
            return self.select(kind, available, config, rng)
        needed = self.quorum_size(kind, config)
        inner = [name for name in within if name in available]
        if sum(config.votes[name] for name in inner) < needed:
            inner += [
                name for name in self.select(kind, available, config, rng)
                if name not in inner
            ]
        return self._greedy_fill(inner, config, needed, kind)

    @abc.abstractmethod
    def select(
        self,
        kind: str,  # "read" | "write"
        available: list[str],
        config: SuiteConfig,
        rng: random.Random,
    ) -> list[str]:
        """Pick quorum members from ``available`` (names, in any order)."""

    @staticmethod
    def _greedy_fill(
        ordered: list[str], config: SuiteConfig, needed: int, kind: str
    ) -> list[str]:
        """Take representatives in order until their votes reach ``needed``."""
        chosen: list[str] = []
        votes = 0
        for name in ordered:
            weight = config.votes[name]
            if weight <= 0:
                continue  # zero-vote hints can never help a quorum
            chosen.append(name)
            votes += weight
            if votes >= needed:
                return chosen
        raise QuorumUnavailableError(needed, votes, kind=f"{kind} quorum")

    @staticmethod
    def quorum_size(kind: str, config: SuiteConfig) -> int:
        """Votes needed for a quorum of ``kind``."""
        if kind == "read":
            return config.read_quorum
        if kind == "write":
            return config.write_quorum
        raise ValueError(f"unknown quorum kind {kind!r}")


class RandomQuorumPolicy(QuorumPolicy):
    """Uniform-random members — the paper's simulation setup."""

    def select(
        self,
        kind: str,
        available: list[str],
        config: SuiteConfig,
        rng: random.Random,
    ) -> list[str]:
        order = list(available)
        rng.shuffle(order)
        return self._greedy_fill(order, config, self.quorum_size(kind, config), kind)


@dataclass
class StickyQuorumPolicy(QuorumPolicy):
    """Reuse the previous quorum while its members remain available.

    ``switch_prob`` re-picks a random quorum with the given probability
    even when the old one is usable, interpolating between fully sticky
    (0.0, a moving-primary-like regime) and the paper's fully random
    simulations (1.0).
    """

    switch_prob: float = 0.0
    _last: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.switch_prob <= 1.0:
            raise ValueError(f"switch_prob out of [0,1]: {self.switch_prob}")

    def select(
        self,
        kind: str,
        available: list[str],
        config: SuiteConfig,
        rng: random.Random,
    ) -> list[str]:
        previous = self._last.get(kind)
        available_set = set(available)
        reuse = (
            previous is not None
            and all(name in available_set for name in previous)
            and rng.random() >= self.switch_prob
        )
        if reuse:
            assert previous is not None
            if self.metrics is not None:
                self.metrics.counter(f"suite.quorum.{kind}.sticky_reuses").inc()
            return list(previous)
        order = list(available)
        rng.shuffle(order)
        chosen = self._greedy_fill(
            order, config, self.quorum_size(kind, config), kind
        )
        self._last[kind] = list(chosen)
        return chosen


@dataclass
class PreferredQuorumPolicy(QuorumPolicy):
    """Fixed priority order (local representatives first).

    Reads come from the front of ``preference``; unavailable members are
    skipped.  Deterministic, so all operations hit the same replicas while
    those are healthy.
    """

    preference: list[str] = field(default_factory=list)

    def select(
        self,
        kind: str,
        available: list[str],
        config: SuiteConfig,
        rng: random.Random,
    ) -> list[str]:
        available_set = set(available)
        order = [n for n in self.preference if n in available_set]
        order += [n for n in available if n not in set(order)]
        return self._greedy_fill(order, config, self.quorum_size(kind, config), kind)


@dataclass
class LocalityQuorumPolicy(QuorumPolicy):
    """Figure 16: read locally; rotate the extra write among remote reps.

    ``local`` names the representatives co-located with this client type
    (e.g. A1, A2 for type-A transactions in the paper's 4-2-3 example).
    Read quorums are filled from the local members first.  Write quorums
    take all available local members, then spread the remaining votes
    round-robin over the remote members, so that "the non-local write that
    is required for modification operations is evenly distributed among
    the remote representatives."
    """

    local: list[str] = field(default_factory=list)
    _rotation: int = 0

    def select(
        self,
        kind: str,
        available: list[str],
        config: SuiteConfig,
        rng: random.Random,
    ) -> list[str]:
        available_set = set(available)
        local_avail = [n for n in self.local if n in available_set]
        remote_avail = [n for n in available if n not in set(self.local)]
        needed = self.quorum_size(kind, config)
        if kind == "read":
            order = local_avail + remote_avail
            return self._greedy_fill(order, config, needed, kind)
        # Write: local members first, then rotate through remote members so
        # consecutive writes spread across them.
        if remote_avail:
            start = self._rotation % len(remote_avail)
            rotated = remote_avail[start:] + remote_avail[:start]
        else:
            rotated = []
        self._rotation += 1
        order = local_avail + rotated
        return self._greedy_fill(order, config, needed, kind)
