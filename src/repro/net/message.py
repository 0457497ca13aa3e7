"""Traffic accounting for the simulated network.

The paper's performance discussion counts *remote procedure calls* and
notes that "inter-representative message traffic can be reduced by
combining certain remote procedure calls" (section 5).  To evaluate that
claim the network counts every message (a request or a reply) and every
RPC *round* so benchmarks can report messages-per-operation and
rounds-per-operation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any


@dataclass
class TrafficStats:
    """Aggregate traffic counters kept by the network.

    ``messages`` counts individual request/reply messages; ``rpc_rounds``
    counts completed request/reply exchanges (one per scatter member that
    was delivered, even when its call carries a batch); ``payload_items``
    counts the logical results carried, so batching shows up as rounds <
    items.  :meth:`~repro.net.rpc.RpcEndpoint.scatter` bumps the four
    counters of a delivered exchange in place; a lost one goes through
    :meth:`record_lost_round`.
    """

    messages: int = 0
    rpc_rounds: int = 0
    payload_items: int = 0
    dropped: int = 0
    # A defaultdict, so the scatter's per-round bump makes no call.
    by_method: defaultdict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    def record_lost_round(self, phase: str) -> None:
        """Account an exchange that timed out.

        ``phase`` names the lost message: a dropped request traveled
        alone; a dropped reply implies the request was also sent.  No
        RPC round is counted — rounds are completed exchanges.
        """
        self.messages += 1 if phase == "request" else 2
        self.dropped += 1

    def reset(self) -> None:
        """Zero all counters."""
        self.messages = 0
        self.rpc_rounds = 0
        self.payload_items = 0
        self.dropped = 0
        self.by_method.clear()

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict copy for reporting."""
        return {
            "messages": self.messages,
            "rpc_rounds": self.rpc_rounds,
            "payload_items": self.payload_items,
            "dropped": self.dropped,
            "by_method": dict(self.by_method),
        }

