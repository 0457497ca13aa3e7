"""The simulated cluster substrate.

* :mod:`repro.net.clock` — deterministic logical time;
* :mod:`repro.net.node` — crash-aware nodes hosting services;
* :mod:`repro.net.network` — the one substrate a directory runs on:
  node hosting, calling endpoints, crashes, latency models, partitions,
  traffic stats (served replicas use its wall-clock subclass,
  :class:`~repro.service.aio.AsyncioTransport`);
* :mod:`repro.net.rpc` — synchronous RPC with failure surfacing;
* :mod:`repro.net.failures` — scripted and random failure injection,
  plus per-link message loss;
* :mod:`repro.net.detector` — a suspicion-cache failure detector.
"""

from repro.net.clock import SimClock
from repro.net.detector import FailureDetector
from repro.net.failures import (
    FailureEvent,
    LossEvent,
    LossyLinks,
    RandomFailures,
    ScriptedFailures,
    ScriptedLoss,
)
from repro.net.network import Network, site_latency, uniform_latency
from repro.net.node import Node
from repro.net.rpc import RpcBatch, RpcCall, RpcEndpoint, RpcReply

__all__ = [
    "SimClock",
    "Node",
    "Network",
    "RpcEndpoint",
    "RpcCall",
    "RpcReply",
    "RpcBatch",
    "uniform_latency",
    "site_latency",
    "ScriptedFailures",
    "RandomFailures",
    "FailureEvent",
    "LossyLinks",
    "ScriptedLoss",
    "LossEvent",
    "FailureDetector",
]
