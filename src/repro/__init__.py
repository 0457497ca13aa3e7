"""Replicated directories via weighted voting with per-range version numbers.

A production-quality reproduction of Daniels & Spector, *An Algorithm for
Replicated Directories* (PODC 1983 / CMU-CS-83-123): a replicated ordered
key→value directory built on Gifford-style weighted voting, where every
possible key — stored or not — has a version number on every replica,
because the key space of each replica is dynamically partitioned into
per-entry ranges and per-gap ranges.

Quick start::

    from repro import ClusterSpec, DirectoryCluster

    cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=7))
    directory = cluster.suite
    directory.insert("alice", "room 4101")
    present, value = directory.lookup("alice")
    directory.delete("alice")

Packages:

* :mod:`repro.core` — the paper's algorithm: suites, representatives,
  quorum policies, configuration, statistics.
* :mod:`repro.storage` — representative stores (sorted array, B-tree),
  write-ahead logging, checkpoints.
* :mod:`repro.txn` — range locks (Figure 7), strict two-phase locking,
  deadlock detection, undo, two-phase commit.
* :mod:`repro.net` — the simulated cluster: nodes, network, RPC,
  failure injection.
* :mod:`repro.baselines` — the strategies the paper compares against or
  develops from: Gifford file voting, unanimous update, primary copy,
  naive per-entry versions, static partitioning.
* :mod:`repro.sim` — workloads, simulation drivers, availability and
  concurrency analysis, paper-style table rendering.
* :mod:`repro.service` — the wall-clock substrate: co-located
  representatives called directly, the networked front door, client
  library, and load generator (``python -m repro serve`` / ``load``).
"""

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.config import SuiteConfig
from repro.core.interface import (
    Directory,
    directory_factories,
    register_directory,
)
from repro.core.hints import HintedDirectory
from repro.core.setdir import ReplicatedSet
from repro.core.errors import (
    AmbiguousLookupError,
    CoalesceBoundsError,
    ConfigurationError,
    DeadlockError,
    DirectoryError,
    InvalidTransactionStateError,
    KeyAlreadyPresentError,
    KeyNotPresentError,
    LockTimeoutError,
    NetworkError,
    NodeDownError,
    OriginDownError,
    QuorumUnavailableError,
    RecoveryError,
    ReproError,
    RpcTimeoutError,
    SentinelKeyError,
    StaleEpochError,
    StorageError,
    StoreCorruptionError,
    TransactionAbortedError,
    TransactionError,
    TwoPhaseCommitError,
    WouldBlockError,
)
from repro.core.quorum import (
    LocalityQuorumPolicy,
    PreferredQuorumPolicy,
    RandomQuorumPolicy,
    StickyQuorumPolicy,
)
from repro.core.resilient import ResilientSuite, RetryPolicy
from repro.core.suite import DirectorySuite
from repro.net.detector import FailureDetector
from repro.net.failures import LossEvent, LossyLinks, ScriptedLoss
from repro.net.transport import SimTransport, Transport, resolve_transport
from repro.obs import (
    AuditReport,
    AuditViolation,
    InvariantAuditor,
    MetricsRegistry,
    NullTracer,
    RecordingTracer,
    RingTracer,
    RollingHistogram,
    SlowLog,
    SpaceSaving,
    Span,
    TraceProfile,
    WindowedView,
    compare_benches,
    critical_path,
    dump_spans,
    load_bench,
    load_spans,
    profile_spans,
    spans_to_trace,
    write_bench,
)
from repro.shard import (
    HashShardMap,
    RangeShardMap,
    Resharder,
    ReshardController,
    ReshardRecord,
    ShardAuditor,
    ShardMap,
    ShardMapDelta,
    ShardedDirectory,
    VersionedShardMap,
    WaveOutcome,
)
from repro.sim.driver import SimulationResult, SimulationSpec, run_simulation

__version__ = "1.0.0"

__all__ = [
    # construction and directory API
    "Directory",
    "DirectoryCluster",
    "ClusterSpec",
    "DirectorySuite",
    "SuiteConfig",
    "ReplicatedSet",
    "HintedDirectory",
    "register_directory",
    "directory_factories",
    # sharding
    "ShardedDirectory",
    "ShardMap",
    "RangeShardMap",
    "HashShardMap",
    "VersionedShardMap",
    "ShardMapDelta",
    "Resharder",
    "ReshardController",
    "ReshardRecord",
    "ShardAuditor",
    "WaveOutcome",
    # transports
    "Transport",
    "SimTransport",
    "resolve_transport",
    # quorum policies
    "RandomQuorumPolicy",
    "StickyQuorumPolicy",
    "PreferredQuorumPolicy",
    "LocalityQuorumPolicy",
    # fault masking
    "ResilientSuite",
    "RetryPolicy",
    "FailureDetector",
    "LossyLinks",
    "ScriptedLoss",
    "LossEvent",
    # simulation entry points
    "SimulationSpec",
    "SimulationResult",
    "run_simulation",
    # observability
    "MetricsRegistry",
    "RecordingTracer",
    "RingTracer",
    "NullTracer",
    "Span",
    "WindowedView",
    "RollingHistogram",
    "SpaceSaving",
    "SlowLog",
    "dump_spans",
    "load_spans",
    "spans_to_trace",
    "TraceProfile",
    "profile_spans",
    "critical_path",
    "InvariantAuditor",
    "AuditReport",
    "AuditViolation",
    "write_bench",
    "load_bench",
    "compare_benches",
    # error hierarchy
    "ReproError",
    "ConfigurationError",
    "DirectoryError",
    "KeyAlreadyPresentError",
    "KeyNotPresentError",
    "SentinelKeyError",
    "AmbiguousLookupError",
    "StorageError",
    "CoalesceBoundsError",
    "StoreCorruptionError",
    "RecoveryError",
    "TransactionError",
    "TransactionAbortedError",
    "DeadlockError",
    "LockTimeoutError",
    "WouldBlockError",
    "InvalidTransactionStateError",
    "TwoPhaseCommitError",
    "NetworkError",
    "NodeDownError",
    "OriginDownError",
    "RpcTimeoutError",
    "QuorumUnavailableError",
    "StaleEpochError",
    "__version__",
]
