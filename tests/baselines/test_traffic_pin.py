"""Every baseline's traffic on one seeded script, pinned.

Each ``build_*`` runs ~300 mixed operations over a 40-key universe.
Where the scheme stays available with a replica down, one replica
crashes half-way.  The messages, the RPC rounds, a digest of every
operation's outcome together with every replica's own state after it
(so which replicas each quorum wrote) and a digest of the final
contents were recorded before the voting baselines began drawing their
quorums through :class:`~repro.core.quorum.RandomQuorumPolicy` and
sharing one availability filter.  They must not move: the same rng draws must pick
the same quorums, replicas and consultations.  If a change is *meant*
to move them, re-record with :func:`record` and say why.
"""

import hashlib
import random

import pytest

from repro.baselines import (
    build_directory_as_file,
    build_file_suite,
    build_naive,
    build_primary_copy,
    build_static_partitioned,
    build_tombstone,
    build_unanimous,
)
from repro.core.errors import ReproError

OPS = 300
KEYS = [i / 40 for i in range(40)]


def _digest(items):
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def _replicas(network):
    """Each hosted replica's public state, node by node."""
    states = []
    for node in network.nodes():
        for name, replica in node.services().items():
            fields = sorted(
                (attr, repr(value))
                for attr, value in vars(replica).items()
                if not attr.startswith("_") and not callable(value)
            )
            states.append(f"{name}: {fields}")
    return states


def _pin(network, trajectory, final_read):
    """Traffic first: the final read sends messages of its own."""
    stats = network.stats
    traffic = (stats.messages, stats.rpc_rounds)
    return traffic, _digest(trajectory), _digest(final_read())


def _attempt(fn, *args):
    try:
        return repr(fn(*args))
    except ReproError as exc:
        return type(exc).__name__


def _directory_script(directory, network, victim, extra=None):
    rng = random.Random(7)
    trajectory = []
    for i in range(OPS):
        if victim is not None and i == OPS // 2:
            network.node(victim).crash()
        if extra is not None:
            extra(i, trajectory)
        verb = rng.choice(["lookup", "lookup", "insert", "update", "delete"])
        key = rng.choice(KEYS)
        args = (key,) if verb in ("lookup", "delete") else (key, i)
        trajectory.append(_attempt(getattr(directory, verb), *args))
        trajectory += _replicas(network)
    return _pin(
        network,
        trajectory,
        lambda: [_attempt(directory.lookup, key) for key in KEYS],
    )


def _file_suite():
    suite, _reps = build_file_suite("3-2-2", seed=3)
    rng = random.Random(7)
    trajectory = []
    for i in range(OPS):
        if i == OPS // 2:
            suite.network.node("node-C").crash()
        verb = rng.choice(["read", "current_version", "write"])
        args = (f"v{i}",) if verb == "write" else ()
        trajectory.append(_attempt(getattr(suite, verb), *args))
        trajectory += _replicas(suite.network)
    return _pin(suite.network, trajectory, lambda: [_attempt(suite.read)])


def _directory_as_file():
    directory = build_directory_as_file("3-2-2", seed=3)
    return _directory_script(directory, directory.file_suite.network, "node-C")


def _unanimous():
    # Writes need every replica, so nothing crashes.  Every replica holds
    # the same data, so which one a read picks leaves no trace here.
    directory = build_unanimous(3, seed=3)
    return _directory_script(directory, directory.network, None)


def _primary_copy():
    directory = build_primary_copy(2, seed=3)

    def propagate(i, trajectory):
        if i % 10 == 0:
            trajectory.append(_attempt(directory.propagate))

    return _directory_script(directory, directory.network, "node-S2", propagate)


def _naive():
    directory, _reps = build_naive("3-2-2", seed=3)
    return _directory_script(directory, directory.network, "node-C")


def _static_partitioned():
    directory = build_static_partitioned("3-2-2", n_partitions=8, seed=3)
    return _directory_script(directory, directory.network, "node-C")


def _tombstone():
    directory, _reps = build_tombstone("3-2-2", seed=3)

    def collect(i, trajectory):
        if i in (100, 200):  # once with every replica up, once without
            trajectory.append(_attempt(directory.collect))

    return _directory_script(directory, directory.network, "node-C", collect)


SCRIPTS = {
    "file_suite": _file_suite,
    "directory_as_file": _directory_as_file,
    "unanimous": _unanimous,
    "primary_copy": _primary_copy,
    "naive": _naive,
    "static_partitioned": _static_partitioned,
    "tombstone": _tombstone,
}


def record():
    """``{name: pin}`` for the table below."""
    return {name: script() for name, script in SCRIPTS.items()}


#: ((messages, rpc_rounds), trajectory digest, final-contents digest).
PINNED = {
    "directory_as_file": ((1744, 872), "ffb066d6155c5848", "c02061434012492c"),
    "file_suite": ((1584, 792), "a60d4a2cdd6617fe", "8560b50bf8663743"),
    "naive": ((2078, 1039), "084e498db37d7fcc", "996693a3e46ed2d3"),
    "primary_copy": ((994, 497), "f1649ee4f6d5e31b", "5a976f2730fe6779"),
    "static_partitioned": ((1744, 872), "090baf112fa160d6", "c02061434012492c"),
    "tombstone": ((1502, 751), "e968e00576881b08", "c02061434012492c"),
    "unanimous": ((1008, 504), "e0a93f6ad91d4e0d", "c02061434012492c"),
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_baseline_traffic_is_pinned(name):
    assert SCRIPTS[name]() == PINNED[name]
