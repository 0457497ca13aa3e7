"""Message records and traffic accounting for the simulated network.

The paper's performance discussion counts *remote procedure calls* and
notes that "inter-representative message traffic can be reduced by
combining certain remote procedure calls" (section 5).  To evaluate that
claim the network layer records every message (a request or a reply) and
every RPC *round* so benchmarks can report messages-per-operation and
rounds-per-operation.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, slots=True)
class Message:
    """One simulated network message (a request or a reply)."""

    msg_id: int
    src: str
    dst: str
    kind: str  # "request" | "reply"
    service: str
    method: str
    payload_items: int = 1  # batched calls carry several logical results
    sent_at: float = 0.0


@dataclass
class TrafficStats:
    """Aggregate traffic counters kept by the network.

    ``messages`` counts individual request/reply messages; ``rpc_rounds``
    counts request/reply exchanges (one per :meth:`RpcEndpoint.call`, even
    when the call is a batch); ``payload_items`` counts the logical results
    carried, so batching shows up as rounds < items.
    """

    messages: int = 0
    rpc_rounds: int = 0
    payload_items: int = 0
    dropped: int = 0
    # A defaultdict, so the per-round bump below makes no call.
    by_method: defaultdict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    def record_round(self, method: str, payload_items: int) -> None:
        """Account one request/reply exchange."""
        self.messages += 2
        self.rpc_rounds += 1
        self.payload_items += payload_items
        self.by_method[method] += 1

    def record_drop(self) -> None:
        """Account one message lost in transit."""
        self.dropped += 1

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


_message_ids = itertools.count(1)


def next_message_id() -> int:
    """Process-wide unique message id."""
    return next(_message_ids)
