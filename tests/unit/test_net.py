"""Unit tests for the simulated network substrate: clock, nodes, network, RPC."""

import pytest

from repro.core.errors import NodeDownError, OriginDownError, RpcTimeoutError
from repro.net.clock import SimClock
from repro.net.failures import (
    FailureEvent,
    LossEvent,
    LossyLinks,
    ScriptedFailures,
    ScriptedLoss,
)
from repro.net.network import Network, site_latency, uniform_latency
from repro.net.node import Node
from repro.net.rpc import RpcCall, RpcEndpoint


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(2.5) == 2.5
        assert clock.now() == 2.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_advance_to(self):
        clock = SimClock(10)
        clock.advance_to(5)  # no-op: time never goes backward
        assert clock.now() == 10
        clock.advance_to(20)
        assert clock.now() == 20


class _Volatile:
    """Crash-aware test service."""

    def __init__(self):
        self.state = "warm"
        self.recovered = 0

    def on_crash(self):
        self.state = None

    def on_recover(self):
        self.state = "rebuilt"
        self.recovered += 1

    def ping(self):
        return "pong"


class TestNode:
    def test_host_and_fetch_service(self):
        node = Node("n1")
        svc = _Volatile()
        node.host("svc", svc)
        assert node.service("svc") is svc

    def test_duplicate_service_rejected(self):
        node = Node("n1")
        node.host("svc", _Volatile())
        with pytest.raises(ValueError):
            node.host("svc", _Volatile())

    def test_unknown_service(self):
        with pytest.raises(KeyError):
            Node("n1").service("nope")

    def test_crash_blocks_access_and_wipes_state(self):
        node = Node("n1")
        svc = _Volatile()
        node.host("svc", svc)
        node.crash()
        assert not node.is_up
        assert svc.state is None
        with pytest.raises(NodeDownError):
            node.service("svc")

    def test_recover_rebuilds(self):
        node = Node("n1")
        svc = _Volatile()
        node.host("svc", svc)
        node.crash()
        node.recover()
        assert node.is_up
        assert svc.state == "rebuilt"
        assert svc.recovered == 1

    def test_crash_idempotent(self):
        node = Node("n1")
        node.host("svc", _Volatile())
        node.crash()
        node.crash()
        assert node.crashes == 1

    def test_recover_idempotent(self):
        node = Node("n1")
        node.recover()  # already up
        assert node.recoveries == 0

    def test_stateless_service_tolerated(self):
        node = Node("n1")
        node.host("plain", object())
        node.crash()
        node.recover()  # no protocol required


class TestLatencyModels:
    def test_uniform(self):
        model = uniform_latency(3.0)
        assert model("a", "b") == 3.0
        assert model("a", "a") == 0.0

    def test_site_latency(self):
        model = site_latency({"n1": "east", "n2": "east", "n3": "west"}, 1.0, 50.0)
        assert model("n1", "n2") == 1.0
        assert model("n1", "n3") == 50.0
        assert model("n1", "n1") == 0.0


class TestNetwork:
    def test_add_and_get_nodes(self):
        net = Network()
        net.add_nodes(["a", "b"])
        assert {n.node_id for n in net.nodes()} == {"a", "b"}
        assert net.node("a").node_id == "a"

    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_node("a")
        with pytest.raises(ValueError):
            net.add_node("a")

    def test_fully_connected_by_default(self):
        net = Network()
        net.add_nodes(["a", "b"])
        assert net.reachable("a", "b")

    def test_partition_blocks_cross_group(self):
        net = Network()
        net.add_nodes(["a", "b", "c"])
        net.partition(["a"], ["b", "c"])
        assert not net.reachable("a", "b")
        assert net.reachable("b", "c")
        assert net.reachable("a", "a")

    def test_unnamed_nodes_form_last_group(self):
        net = Network()
        net.add_nodes(["a", "b", "c"])
        net.partition(["a"])
        assert net.reachable("b", "c")
        assert not net.reachable("a", "c")

    def test_heal(self):
        net = Network()
        net.add_nodes(["a", "b"])
        net.partition(["a"], ["b"])
        net.heal()
        assert net.reachable("a", "b")

    def test_partition_external_endpoints_allowed(self):
        # RPC origins like "client" are not nodes but can be partitioned.
        net = Network()
        net.add_nodes(["a", "b"])
        net.partition(["client", "a"], ["b"])
        assert net.reachable("client", "a")
        assert not net.reachable("client", "b")

    def test_unnamed_external_joins_implicit_group(self):
        net = Network()
        net.add_nodes(["a", "b"])
        net.partition(["a"])  # b + any external form the implicit group
        assert net.reachable("client", "b")
        assert not net.reachable("client", "a")

    def test_service_for_refuses_down_or_cut_off_node(self):
        net = Network()
        net.add_nodes(["a", "b"])
        net.node("b").host("svc", _Echo())
        assert isinstance(net.service_for("a", "b", "svc"), _Echo)
        net.partition(["a"], ["b"])
        with pytest.raises(NodeDownError):
            net.service_for("a", "b", "svc")
        net.heal()
        net.node("b").crash()
        with pytest.raises(NodeDownError):
            net.service_for("a", "b", "svc")


class _Echo:
    def echo(self, x):
        return x

    def boom(self):
        raise RuntimeError("application error")


class TestRpc:
    def _net(self):
        net = Network()
        node = net.add_node("server")
        node.host("svc", _Echo())
        return net

    def test_call_roundtrip(self):
        net = self._net()
        rpc = RpcEndpoint(net, origin="client")
        assert rpc.call("server", "svc", "echo", 42) == 42
        assert net.stats.rpc_rounds == 1

    def test_call_down_node(self):
        net = self._net()
        net.node("server").crash()
        rpc = RpcEndpoint(net, origin="client")
        with pytest.raises(NodeDownError):
            rpc.call("server", "svc", "echo", 1)

    def test_call_partitioned_node(self):
        net = self._net()
        client = net.add_node("client")
        net.partition(["client"], ["server"])
        rpc = RpcEndpoint(net, origin="client")
        with pytest.raises(NodeDownError):
            rpc.call("server", "svc", "echo", 1)

    def test_application_errors_propagate(self):
        net = self._net()
        rpc = RpcEndpoint(net, origin="client")
        with pytest.raises(RuntimeError):
            rpc.call("server", "svc", "boom")

    def test_try_call_absorbs_network_failure(self):
        net = self._net()
        net.node("server").crash()
        rpc = RpcEndpoint(net, origin="client")
        assert rpc.try_call("server", "svc", "echo", 1, default="dflt") == "dflt"

    def test_try_call_passes_application_errors(self):
        net = self._net()
        rpc = RpcEndpoint(net, origin="client")
        with pytest.raises(RuntimeError):
            rpc.try_call("server", "svc", "boom")

    def test_payload_items_accounted(self):
        net = self._net()
        rpc = RpcEndpoint(net, origin="client")
        rpc.call("server", "svc", "echo", 1, payload_items=3)
        assert net.stats.payload_items == 3

    def test_traffic_reset(self):
        net = self._net()
        rpc = RpcEndpoint(net, origin="client")
        rpc.call("server", "svc", "echo", 1)
        net.stats.reset()
        assert net.stats.messages == 0
        assert net.stats.by_method == {}

    def test_try_call_absorbs_origin_down(self):
        net = self._net()
        client = net.add_node("client")
        rpc = RpcEndpoint(net, origin="client")
        client.crash()
        with pytest.raises(OriginDownError):
            rpc.call("server", "svc", "echo", 1)
        assert rpc.try_call("server", "svc", "echo", 1, default="dflt") == "dflt"

    def test_try_call_absorbs_timeout(self):
        net = self._net()
        net.install_faults(LossyLinks(request_loss=1.0))
        rpc = RpcEndpoint(net, origin="client")
        assert rpc.try_call("server", "svc", "echo", 1, default="dflt") == "dflt"

    def test_call_is_a_scatter_of_one(self):
        """``call`` is ``scatter([one]).complete_all()`` with the member's
        error raised: same traffic, clock, effect and outcome, clean and
        with a scripted drop of either message."""

        def run(issue, drops):
            net = Network(latency=uniform_latency(2.0))
            tally = _Tally()
            net.add_node("server").host("svc", tally)
            net.install_faults(ScriptedLoss(drops))
            try:
                outcome = issue(RpcEndpoint(net, origin="client"))
            except RpcTimeoutError as exc:
                outcome = (type(exc), exc.node_id, exc.method, exc.lost)
            return outcome, net.clock.now(), net.stats.snapshot(), tally.calls

        def call(rpc):
            return rpc.call("server", "svc", "put", 1, payload_items=3)

        def scatter_of_one(rpc):
            (reply,) = rpc.scatter(
                [RpcCall("server", "svc", "put", (1,), payload_items=3)]
            ).complete_all()
            if reply.error is not None:
                raise reply.error
            return reply.value

        clean = run(call, [])
        assert clean == run(scatter_of_one, [])
        assert clean == (
            ("stored", 1),
            4.0,  # request + reply
            {
                "messages": 2,
                "rpc_rounds": 1,
                "payload_items": 3,
                "dropped": 0,
                "by_method": {"svc.put": 1},
            },
            1,
        )
        for phase, messages, effects in (("request", 1, 0), ("reply", 2, 1)):
            lost = run(call, [LossEvent(phase)])
            assert lost == run(scatter_of_one, [LossEvent(phase)])
            outcome, now, traffic, calls = lost
            assert outcome == (RpcTimeoutError, "server", "svc.put", phase)
            assert now == 20.0  # the full rpc_timeout
            assert (traffic["messages"], traffic["dropped"]) == (messages, 1)
            assert calls == effects


class _Tally:
    """Service that counts how many times it was invoked."""

    def __init__(self):
        self.calls = 0

    def put(self, x):
        self.calls += 1
        return ("stored", x)


class TestLossyRpc:
    def _net(self, faults):
        net = Network()
        tally = _Tally()
        net.add_node("server").host("svc", tally)
        net.install_faults(faults)
        return net, tally

    def test_lost_request_has_no_effect(self):
        net, tally = self._net(
            ScriptedLoss([LossEvent("request", method="svc.put")])
        )
        rpc = RpcEndpoint(net, origin="client")
        with pytest.raises(RpcTimeoutError) as exc:
            rpc.call("server", "svc", "put", 1)
        assert exc.value.lost == "request"
        assert exc.value.node_id == "server"
        assert tally.calls == 0  # the request never arrived

    def test_lost_reply_applies_the_effect(self):
        net, tally = self._net(
            ScriptedLoss([LossEvent("reply", method="svc.put")])
        )
        rpc = RpcEndpoint(net, origin="client")
        with pytest.raises(RpcTimeoutError) as exc:
            rpc.call("server", "svc", "put", 1)
        assert exc.value.lost == "reply"
        assert tally.calls == 1  # executed; only the answer was dropped

    def test_timeout_advances_clock_and_accounts_traffic(self):
        net, _ = self._net(
            ScriptedLoss(
                [LossEvent("request", nth=0), LossEvent("reply", nth=0)]
            )
        )
        rpc = RpcEndpoint(net, origin="client")
        with pytest.raises(RpcTimeoutError):
            rpc.call("server", "svc", "put", 1)  # request lost: 1 message
        with pytest.raises(RpcTimeoutError):
            rpc.call("server", "svc", "put", 2)  # reply lost: 2 messages
        assert net.clock.now() == 2 * net.rpc_timeout
        assert net.stats.dropped == 2
        assert net.stats.messages == 3
        assert net.stats.rpc_rounds == 0  # rounds are completed exchanges

    def test_surviving_call_unaffected(self):
        net, tally = self._net(ScriptedLoss([]))
        rpc = RpcEndpoint(net, origin="client")
        assert rpc.call("server", "svc", "put", 3) == ("stored", 3)
        assert net.stats.rpc_rounds == 1
        assert net.stats.dropped == 0

    def test_flaky_latency_added_to_surviving_rounds(self):
        net, _ = self._net(LossyLinks(flaky_prob=1.0, flaky_extra=5.0))
        rpc = RpcEndpoint(net, origin="client")
        rpc.call("server", "svc", "put", 1)
        # one round trip (2 * 1.0 default latency) plus the flaky extra
        assert net.clock.now() == 2.0 + 5.0

    def test_loss_counters_published(self):
        net, _ = self._net(
            ScriptedLoss(
                [LossEvent("request", nth=0), LossEvent("reply", nth=0)]
            )
        )
        rpc = RpcEndpoint(net, origin="client")
        for x in (1, 2):
            with pytest.raises(RpcTimeoutError):
                rpc.call("server", "svc", "put", x)
        snap = net.metrics.snapshot()
        assert snap["net.loss.requests_dropped"] == 1
        assert snap["net.loss.replies_dropped"] == 1


class TestScriptedPartitionThroughRpc:
    def test_partition_then_heal_drives_rpc_outcomes(self):
        net = Network()
        net.add_node("server").host("svc", _Echo())
        injector = ScriptedFailures(
            net,
            [
                FailureEvent(1, "partition", groups=(("client",), ("server",))),
                FailureEvent(2, "heal"),
            ],
        )
        rpc = RpcEndpoint(net, origin="client")

        injector.step()  # step 0: nothing due
        assert rpc.call("server", "svc", "echo", "before") == "before"
        injector.step()  # partition fires
        with pytest.raises(NodeDownError):
            rpc.call("server", "svc", "echo", "cut")
        injector.step()  # heal fires
        assert rpc.call("server", "svc", "echo", "after") == "after"
