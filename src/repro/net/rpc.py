"""Synchronous remote procedure calls over the simulated network.

The paper writes remote invocations as ``Send(<procedure>) to(<object>)``
with ARGUS-like semantics, deliberately eliding error responses.  This
layer supplies the elided part: a call to a crashed or partitioned node
raises :class:`~repro.core.errors.NodeDownError`, a call *from* a crashed
node raises :class:`~repro.core.errors.OriginDownError`, a call whose
request or reply a lossy network drops (see
:meth:`~repro.net.network.Network.install_faults`) raises
:class:`~repro.core.errors.RpcTimeoutError`, and callers (the suite's
quorum machinery) must cope.

An :class:`RpcEndpoint` is the client stub owned by one origin (a suite
front-end running on some node, or an external client with origin
``"client"``).  Its one exchange is :meth:`RpcEndpoint.scatter`, and one
loop there runs every member's attempt chain: the member resolves its
target through :meth:`~repro.net.network.Network.service_for` (the only
place a call finds a hosted service), rolls its own fault dispositions,
bumps the traffic ledger, charges its round trip and invokes the service
method in-process.  The gather advances the clock to the slowest arrival
it waits on, and only when that arrival is past the scatter instant — on
free links it never asks.  :meth:`RpcEndpoint.call` is the round of one,
so a serial caller — one call at a time, each charged its own round trip
— runs the same code as a parallel one.  When a
:class:`~repro.obs.spans.RecordingTracer` is attached, every round
records a ``fanout:<label>`` span around one ``rpc:<service>.<method>``
span per attempt, carrying its destination, message count, and payload
size; the default :class:`~repro.obs.spans.NullTracer` reduces
instrumentation to one attribute check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.errors import (
    NodeDownError,
    OriginDownError,
    RpcTimeoutError,
)
from repro.obs.spans import NULL_SPAN, NULL_TRACER

if TYPE_CHECKING:  # the network hands endpoints out, so it imports this module
    from repro.net.network import Network


@dataclass
class RpcCall:
    """One member of a scatter batch: where to call, what, and with what.

    ``retries`` is this call's *own* in-batch re-issue budget for timed
    out exchanges (a batch re-issues only its failed members; each
    re-issue's ``rpc:`` span is labelled with its attempt number).
    ``key`` is an opaque correlation handle the caller uses to find this
    call's reply.
    """

    node_id: str
    service_name: str
    method: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    payload_items: int = 1
    retries: int = 0
    key: Any = None


class RpcReply:
    """Outcome of one scatter-batch member.

    ``arrival`` is the *absolute* simulated time the caller learns this
    outcome (reply arrival for a delivered exchange, timeout expiry for
    a lost one, the send instant for an unreachable target).
    ``effect_applied`` records whether the remote method actually ran —
    True for every delivered exchange and for lost *replies*, False for
    lost requests and down targets — which is what decides whether the
    target must be enlisted in the surrounding transaction.
    ``incarnation`` is the target node's restart count
    (``Node.recoveries``) read after the method last ran there.
    """

    __slots__ = (
        "call", "value", "error", "app_error", "arrival",
        "attempts", "timeouts", "effect_applied", "incarnation",
    )

    def __init__(self, call: RpcCall) -> None:
        self.call = call
        self.value: Any = None
        self.error: Exception | None = None
        self.app_error = False  # error came from the service, not the net
        self.arrival = 0.0
        self.attempts = 0
        self.timeouts = 0
        self.effect_applied = False
        self.incarnation = 0

    @property
    def ok(self) -> bool:
        """True if the call completed without any error."""
        return self.error is None

    def __repr__(self) -> str:
        status = "ok" if self.ok else type(self.error).__name__
        return f"RpcReply({self.call.method} -> {status} @{self.arrival:.1f})"


class RpcBatch:
    """A scatter of concurrent calls awaiting its gather.

    Produced by :meth:`RpcEndpoint.scatter`.  Every member has already
    been *simulated* — effects applied, traffic accounted, per-member
    arrival times computed, the latest of them kept as ``latest`` — but
    the shared clock has not moved; :meth:`complete_all` must be called
    exactly once to advance it to the arrival of the slowest member.
    """

    __slots__ = ("endpoint", "replies", "span", "started", "latest")

    def __init__(
        self,
        endpoint: "RpcEndpoint",
        replies: list[RpcReply],
        span: Any,
        started: float,
        latest: float,
    ) -> None:
        self.endpoint = endpoint
        self.replies = replies
        self.span = span  # the open ``fanout:`` span (NULL_SPAN untraced)
        self.started = started
        self.latest = latest  # the slowest arrival, never before ``started``

    def complete_all(self) -> list[RpcReply]:
        """Wait for every member; the batch costs the max arrival.

        The clock is only asked to move when some arrival is past the
        scatter instant: on free links (and for an empty batch) there is
        nothing to wait for.
        """
        if self.latest > self.started:
            self.endpoint.network.clock.advance_to(self.latest)
        if self.span is not NULL_SPAN:
            self.span.__exit__(None, None, None)
        return self.replies


class RpcEndpoint:
    """Client-side stub for issuing RPCs from a fixed origin."""

    def __init__(
        self, network: Network, origin: str = "client", tracer: Any = None
    ) -> None:
        self.network = network
        self.origin = origin
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def call(
        self,
        node_id: str,
        service_name: str,
        method: str,
        *args: Any,
        payload_items: int = 1,
        **kwargs: Any,
    ) -> Any:
        """Invoke ``service.method(*args, **kwargs)`` on ``node_id``.

        A round of one: ``scatter([call]).complete_all()``, with the
        member's error raised.  OriginDownError if this endpoint's own
        node is crashed, NodeDownError if the target is crashed or
        unreachable, RpcTimeoutError if a message of the exchange was
        lost.  Application exceptions raised by the service propagate
        unchanged (the reply message is still accounted: the remote node
        did the work and answered).
        """
        (reply,) = self.scatter(
            [RpcCall(node_id, service_name, method, args, kwargs, payload_items)]
        ).complete_all()
        if reply.error is not None:
            raise reply.error
        return reply.value

    def scatter(
        self, calls: list[RpcCall], label: str | None = None
    ) -> RpcBatch:
        """Issue ``calls`` concurrently; gather with ``complete_all``.

        All requests leave at the same instant, so the batch's simulated
        cost is the **max** arrival time over its members; a serial
        caller issues rounds of one and so pays the sum.  Each member
        gets its own fault dispositions, its own :class:`RpcTimeoutError`,
        and its own in-batch re-issue budget (``call.retries``), and a
        lost member charges the batch its ``rpc_timeout``.  Effects (and
        traffic accounting) are applied immediately; only the clock
        waits for the gather.

        One loop runs every member's attempt chain in issue order, so a
        width-*n* round draws the fault dispositions *n* rounds of one
        would.  Arrivals accumulate from the scatter instant along each
        member's own timeline (a timeout delays only its own re-issue).
        A member resolves its target through
        :meth:`~repro.net.network.Network.service_for`, and a delivered
        exchange bumps the traffic ledger and charges its round trip
        right here; the fault and trace branches cost one check each
        when off.

        Raises OriginDownError up front if this endpoint's own node is
        crashed; every per-member failure is captured on its
        :class:`RpcReply` instead of raised.
        """
        net = self.network
        origin = self.origin
        if origin in net._nodes and not net._nodes[origin].is_up:
            raise OriginDownError(origin)
        started = net.clock.now()
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            name = label or (calls[0].method if calls else "empty")
            batch_span = tracer.span(
                f"fanout:{name}", width=len(calls), origin=origin
            )
            batch_span.__enter__()
        else:
            batch_span = NULL_SPAN
        faults = net.faults
        latency = net.latency
        nodes = net._nodes
        service_for = net.service_for
        stats = net.stats
        by_method = stats.by_method
        replies = [RpcReply(call) for call in calls]
        latest = started
        for reply in replies:
            call = reply.call
            node_id = call.node_id
            wire_name = f"{call.service_name}.{call.method}"
            t = started
            budget = call.retries
            while True:
                reply.attempts += 1
                attempt_start = t
                if traced:
                    span = tracer.span(
                        f"rpc:{wire_name}",
                        dst=node_id,
                        origin=origin,
                        payload_items=call.payload_items,
                    )
                    # Open across the remote method (its rep: spans nest
                    # here); closed below with the attempt's outcome.
                    span.__enter__()
                    if reply.attempts > 1:
                        span.set("attempt", reply.attempts - 1)
                messages = lost = error = None
                try:
                    bound = getattr(
                        service_for(origin, node_id, call.service_name),
                        call.method,
                    )
                    if faults is None:
                        t = attempt_start + 2 * latency(origin, node_id)
                    else:
                        verdict = faults.disposition(origin, node_id, wire_name)
                        if verdict != "ok":
                            lost = "request" if verdict == "drop_request" else "reply"
                            t = attempt_start + net.send_lost(
                                origin, node_id, wire_name, lost
                            )
                            messages = 1
                            if lost == "reply":
                                # The request was delivered: the effect is
                                # applied, only the answer (even an error
                                # answer) is lost.
                                messages = 2
                                reply.effect_applied = True
                                try:
                                    bound(*call.args, **call.kwargs)
                                except Exception:
                                    pass
                            raise RpcTimeoutError(node_id, method=wire_name, lost=lost)
                        t = (
                            attempt_start
                            + faults.delay(origin, node_id)
                            + 2 * latency(origin, node_id)
                        )
                    # One request/reply exchange: two messages, one round.
                    stats.messages += 2
                    stats.rpc_rounds += 1
                    stats.payload_items += call.payload_items
                    by_method[wire_name] += 1
                    reply.effect_applied = True
                    messages = 2
                    reply.value = bound(*call.args, **call.kwargs)
                except Exception as exc:
                    error = exc
                if reply.effect_applied:
                    reply.incarnation = nodes[node_id].recoveries
                if traced:
                    if messages is not None:
                        span.set("messages", messages)
                    if lost is not None:
                        span.set("lost", lost)
                    # The status names the outcome (NodeDownError /
                    # RpcTimeoutError / the app error name); the span is
                    # retimed onto this member's own timeline, since it
                    # was pushed and popped at the (un-advanced) scatter
                    # instant.
                    span.__exit__(
                        type(error) if error is not None else None, error, None
                    )
                    span.start, span.end = attempt_start, t
                reply.arrival = t
                if error is None:
                    break
                if isinstance(error, RpcTimeoutError):
                    reply.timeouts += 1
                    if budget > 0:
                        budget -= 1
                        continue
                elif not isinstance(error, NodeDownError):
                    # An application error rode the delivered (and
                    # accounted) reply back; a NodeDownError sent nothing,
                    # so the caller learns it at once.
                    reply.app_error = True
                reply.error = error
                break
            if t > latest:
                latest = t
        return RpcBatch(self, replies, batch_span, started, latest)

    def try_call(
        self,
        node_id: str,
        service_name: str,
        method: str,
        *args: Any,
        default: Any = None,
        **kwargs: Any,
    ) -> Any:
        """Like :meth:`call` but returns ``default`` on network failure.

        Application exceptions still propagate; every NetworkError —
        NodeDownError (which includes OriginDownError), RpcTimeoutError,
        a partitioned path — is absorbed.  Used by best-effort paths
        such as background ghost cleanup and decision re-delivery.
        """
        from repro.core.errors import NetworkError

        try:
            return self.call(node_id, service_name, method, *args, **kwargs)
        except NetworkError:
            return default
