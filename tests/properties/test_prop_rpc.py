"""Property tests for the scatter: one member loop against the chain it replaced.

:class:`ReferenceEndpoint` keeps the scatter as it was before its
members were folded into one loop: a ``_simulate_member`` frame per
member, the target resolved through the node's own ``service`` lookup,
the ledger bumped and the round trip charged by a ``send_round`` helper,
and a gather that always asks the clock to advance to the slowest
arrival.  Random rounds run through it and through
:class:`~repro.net.rpc.RpcEndpoint` on twin networks — nodes up, down or
partitioned (the origin too), missing services, methods that return,
raise an application error or raise ``NodeDownError``, scripted and
random message loss with per-call retries, traced and untraced — and
after every round each reply, the traffic ledger, the registry, the
clock, every hosted effect and every span must be the same.
"""

from __future__ import annotations

import random
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import NodeDownError, OriginDownError, RpcTimeoutError
from repro.net.failures import LossEvent, LossyLinks, ScriptedLoss
from repro.net.network import Network, site_latency, uniform_latency
from repro.net.rpc import RpcCall, RpcEndpoint, RpcReply
from repro.obs.spans import NULL_SPAN, NULL_TRACER, RecordingTracer

NODES = ("n0", "n1", "n2", "n3")


# -- the oracle: the per-member chain, as it was ------------------------------


def _reference_service_for(net: Network, src: str, dst: str, name: str) -> Any:
    """Partition check, then ``Node.service`` (the up check and lookup)."""
    node = net.node(dst)
    if not net.reachable(src, dst):
        raise NodeDownError(dst)
    return node.service(name)


def _reference_send_round(
    net: Network, src: str, dst: str, method: str, payload_items: int
) -> float:
    stats = net.stats
    stats.messages += 2
    stats.rpc_rounds += 1
    stats.payload_items += payload_items
    stats.by_method[method] += 1
    return 2 * net.latency(src, dst)


def _reference_send_lost(net: Network, phase: str) -> float:
    stats = net.stats
    stats.messages += 1 if phase == "request" else 2
    stats.dropped += 1
    counter = "requests_dropped" if phase == "request" else "replies_dropped"
    net.metrics.counter(f"net.loss.{counter}").inc()
    return net.rpc_timeout


class ReferenceBatch:
    def __init__(self, endpoint, replies, span, started) -> None:
        self.endpoint = endpoint
        self.replies = replies
        self.span = span
        self.started = started

    def complete_all(self) -> list[RpcReply]:
        self.endpoint.network.clock.advance_to(
            max([r.arrival for r in self.replies], default=self.started)
        )
        if self.span is not NULL_SPAN:
            self.span.__exit__(None, None, None)
        return self.replies


class ReferenceEndpoint:
    def __init__(self, network: Network, origin: str, tracer: Any = None) -> None:
        self.network = network
        self.origin = origin
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def scatter(self, calls: list[RpcCall], label: str | None = None):
        if self.origin in self.network._nodes:
            if not self.network.node(self.origin).is_up:
                raise OriginDownError(self.origin)
        started = self.network.clock.now()
        traced = self.tracer.enabled
        if traced:
            name = label or (calls[0].method if calls else "empty")
            span = self.tracer.span(
                f"fanout:{name}", width=len(calls), origin=self.origin
            )
            span.__enter__()
        else:
            span = NULL_SPAN
        replies = [self._simulate_member(call, started, traced) for call in calls]
        return ReferenceBatch(self, replies, span, started)

    def _simulate_member(
        self, call: RpcCall, started: float, traced: bool
    ) -> RpcReply:
        net = self.network
        faults = net.faults
        origin, node_id = self.origin, call.node_id
        reply = RpcReply(call)
        wire_name = f"{call.service_name}.{call.method}"
        t = started
        budget = call.retries
        while True:
            reply.attempts += 1
            attempt_start = t
            if traced:
                span = self.tracer.span(
                    f"rpc:{wire_name}",
                    dst=node_id,
                    origin=origin,
                    payload_items=call.payload_items,
                )
                span.__enter__()
                if reply.attempts > 1:
                    span.set("attempt", reply.attempts - 1)
            messages = lost = error = None
            try:
                bound = getattr(
                    _reference_service_for(net, origin, node_id, call.service_name),
                    call.method,
                )
                verdict = (
                    "ok"
                    if faults is None
                    else faults.disposition(origin, node_id, wire_name)
                )
                if verdict == "ok":
                    extra = 0.0 if faults is None else faults.delay(origin, node_id)
                    offset = _reference_send_round(
                        net, origin, node_id, wire_name, call.payload_items
                    )
                    t = attempt_start + extra + offset
                    reply.effect_applied = True
                    messages = 2
                    reply.value = bound(*call.args, **call.kwargs)
                else:
                    lost = "request" if verdict == "drop_request" else "reply"
                    t = attempt_start + _reference_send_lost(net, lost)
                    messages = 1
                    if lost == "reply":
                        messages = 2
                        reply.effect_applied = True
                        try:
                            bound(*call.args, **call.kwargs)
                        except Exception:
                            pass
                    raise RpcTimeoutError(node_id, method=wire_name, lost=lost)
            except Exception as exc:
                error = exc
            if traced:
                if messages is not None:
                    span.set("messages", messages)
                if lost is not None:
                    span.set("lost", lost)
                span.__exit__(type(error) if error is not None else None, error, None)
                span.start, span.end = attempt_start, t
            reply.arrival = t
            if error is None:
                return reply
            if isinstance(error, RpcTimeoutError):
                reply.timeouts += 1
                if budget > 0:
                    budget -= 1
                    continue
            elif not isinstance(error, NodeDownError):
                reply.app_error = True
            reply.error = error
            return reply


# -- the twins ----------------------------------------------------------------


class _Probe:
    """A hosted service that logs every invocation it runs."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.log: list[tuple] = []

    def echo(self, *args: Any) -> tuple:
        self.log.append(("echo", args))
        return (self.node_id, args)

    def boom(self, *args: Any) -> None:
        self.log.append(("boom", args))
        raise ValueError(f"boom on {self.node_id}")

    def gone(self, *args: Any) -> None:
        self.log.append(("gone", args))
        raise NodeDownError(self.node_id)


def _latency(kind: str):
    if kind == "free":
        return uniform_latency(0.0)
    if kind == "sites":
        sites = {"n0": "a", "n1": "a", "n2": "b", "n3": "b", "client": "a"}
        return site_latency(sites, local=0.1, remote=0.7)
    return uniform_latency(1.0)


def _faults(spec: tuple | None):
    if spec is None:
        return None
    if spec[0] == "scripted":
        return ScriptedLoss([LossEvent(*event) for event in spec[1]])
    _, seed, request_loss, reply_loss, flaky_prob = spec
    return LossyLinks(
        request_loss=request_loss,
        reply_loss=reply_loss,
        flaky_prob=flaky_prob,
        flaky_extra=0.3,
        rng=random.Random(seed),
    )


def _twin(scenario: dict, endpoint_class: type):
    net = Network(latency=_latency(scenario["latency"]), rpc_timeout=7.0)
    for node_id in NODES:
        net.add_node(node_id)
        net.host(node_id, "svc", _Probe(node_id))
    if scenario["faults"] is not None:
        net.install_faults(_faults(scenario["faults"]))
    tracer = RecordingTracer(now=net.clock.now) if scenario["traced"] else None
    return net, tracer, endpoint_class(net, origin=scenario["origin"], tracer=tracer)


def _apply(net: Network, event: tuple) -> None:
    kind, arg = event
    if kind == "crash":
        net.crash(arg)
    elif kind == "recover":
        net.recover(arg)
    elif kind == "partition":
        endpoints = (*NODES, "client")
        net.partition(
            *([e for e, g in zip(endpoints, arg) if g == group] for group in range(3))
        )
    else:
        net.heal()


def _calls(round_calls: list[tuple]) -> list[RpcCall]:
    return [
        RpcCall(node, service, method, (i, arg), {}, payload, retries, key=i)
        for i, (node, service, method, arg, payload, retries) in enumerate(
            round_calls
        )
    ]


def _error_view(error: Exception | None) -> tuple | None:
    return None if error is None else (type(error).__name__, str(error))


def _reply_view(reply: RpcReply) -> tuple:
    return (
        reply.call.key,
        reply.value,
        _error_view(reply.error),
        reply.app_error,
        reply.effect_applied,
        reply.attempts,
        reply.timeouts,
        reply.arrival,
    )


def _span_view(span) -> tuple:
    return (
        span.name,
        dict(span.attrs),
        span.status,
        span.start,
        span.end,
        [_span_view(child) for child in span.children],
    )


def _run_round(endpoint, round_calls: list[tuple], label: str | None) -> tuple:
    try:
        batch = endpoint.scatter(_calls(round_calls), label)
    except OriginDownError as exc:
        return ("origin down", str(exc), endpoint.network.clock.now())
    replies = batch.complete_all()
    return (
        [_reply_view(reply) for reply in replies],
        endpoint.network.clock.now(),
    )


def _world(net: Network, tracer) -> tuple:
    return (
        net.stats.snapshot(),
        net.metrics.snapshot(),
        {n: net.node(n).services()["svc"].log for n in NODES},
        [_span_view(root) for root in tracer.finished_roots()]
        if tracer is not None
        else None,
    )


# -- strategies ---------------------------------------------------------------

nodes = st.sampled_from(NODES)
topology_events = st.one_of(
    st.tuples(st.just("crash"), nodes),
    st.tuples(st.just("recover"), nodes),
    st.tuples(
        st.just("partition"),
        st.lists(
            st.integers(0, 2), min_size=len(NODES) + 1, max_size=len(NODES) + 1
        ),
    ),
    st.tuples(st.just("heal"), st.none()),
)
call_specs = st.tuples(
    nodes,
    st.sampled_from(["svc", "svc", "svc", "nosvc"]),
    st.sampled_from(["echo", "echo", "boom", "gone", "absent"]),
    st.integers(0, 9),
    st.integers(1, 3),
    st.integers(0, 2),
)
rounds = st.lists(
    st.tuples(
        st.lists(topology_events, max_size=2),
        st.lists(call_specs, max_size=4),
        st.sampled_from([None, "lbl"]),
    ),
    min_size=1,
    max_size=6,
)
loss_events = st.tuples(
    st.sampled_from(["request", "reply"]),
    st.one_of(st.none(), nodes),
    st.sampled_from([None, "svc.echo", "svc.boom", "svc.gone"]),
    st.integers(0, 3),
)
fault_specs = st.one_of(
    st.none(),
    st.tuples(st.just("scripted"), st.lists(loss_events, max_size=4)),
    st.tuples(
        st.just("lossy"),
        st.integers(0, 2**16),
        st.sampled_from([0.0, 0.2, 0.5]),
        st.sampled_from([0.0, 0.2, 0.5]),
        st.sampled_from([0.0, 0.5]),
    ),
)
scenarios = st.fixed_dictionaries(
    {
        "origin": st.sampled_from(("client", *NODES)),
        "latency": st.sampled_from(["uniform", "sites", "free"]),
        "faults": fault_specs,
        "traced": st.booleans(),
        "rounds": rounds,
    }
)


class TestScatterMatchesMemberChain:
    @given(scenarios)
    @settings(deadline=None)
    def test_every_round_is_the_same(self, scenario):
        ref_net, ref_tracer, ref = _twin(scenario, ReferenceEndpoint)
        net, tracer, endpoint = _twin(scenario, RpcEndpoint)
        for events, round_calls, label in scenario["rounds"]:
            for event in events:
                _apply(ref_net, event)
                _apply(net, event)
            assert _run_round(endpoint, round_calls, label) == _run_round(
                ref, round_calls, label
            )
            assert _world(net, tracer) == _world(ref_net, ref_tracer)
