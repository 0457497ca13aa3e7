"""Unit tests for the scatter-gather quorum engine.

Three layers are covered here:

* the RPC batch primitive itself (``RpcEndpoint.scatter`` /
  ``RpcBatch``) — max-not-sum clock accounting, per-member fault
  dispositions, in-batch re-issue, hedged early completion;
* the traced form — per-attempt span attribution and the ``fanout:``
  envelope spans the analyzer tiles against;
* the simulation driver — ``fanout="serial"`` must stay bit-identical
  to the pre-fan-out engine (pinned baselines), and the parallel and
  hedged modes must change *time* without changing traffic, answers,
  or replicated state.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.core.errors import NodeDownError, RpcTimeoutError
from repro.net.failures import LossEvent, ScriptedLoss
from repro.net.network import Network, uniform_latency
from repro.net.rpc import RpcCall, RpcEndpoint
from repro.obs.spans import RecordingTracer
from repro.sim.driver import SimulationSpec, run_simulation
from repro.sim.workload import OpMix


class _Tally:
    """Service that counts invocations (to observe applied effects)."""

    def __init__(self):
        self.calls = 0

    def put(self, x):
        self.calls += 1
        return ("stored", x)


SERVERS = ("a", "b", "c")


def _net(faults=None):
    net = Network(latency=uniform_latency(1.0))
    tallies = {}
    for name in SERVERS:
        tallies[name] = _Tally()
        net.add_node(name).host("svc", tallies[name])
    if faults is not None:
        net.install_faults(faults)
    return net, tallies


def _calls(retries=0):
    return [
        RpcCall(name, "svc", "put", args=(i,), retries=retries, key=name)
        for i, name in enumerate(SERVERS)
    ]


class TestScatterAccounting:
    def test_batch_costs_max_not_sum(self):
        net, tallies = _net()
        rpc = RpcEndpoint(net, origin="client")
        batch = rpc.scatter(_calls())
        waited = batch.complete_all()
        # One round trip of simulated time for the whole width-3 batch,
        # where the serial loop would charge three.
        assert net.clock.now() == 2.0
        assert [r.value for r in waited] == [("stored", i) for i in range(3)]
        assert all(r.ok and r.effect_applied for r in waited)
        assert net.stats.messages == 6
        assert net.stats.rpc_rounds == 3
        assert all(t.calls == 1 for t in tallies.values())

    def test_width_one_scatter_matches_serial_call(self):
        serial_net, _ = _net()
        serial = RpcEndpoint(serial_net, origin="client")
        value = serial.call("a", "svc", "put", 0)

        batch_net, _ = _net()
        rpc = RpcEndpoint(batch_net, origin="client")
        batch = rpc.scatter(_calls()[:1])
        (reply,) = batch.complete_all()

        assert reply.value == value
        assert batch_net.clock.now() == serial_net.clock.now() == 2.0
        assert batch_net.stats.messages == serial_net.stats.messages == 2
        assert batch_net.stats.rpc_rounds == serial_net.stats.rpc_rounds == 1
        assert (
            batch_net.stats.payload_items == serial_net.stats.payload_items
        )

    def test_dropped_reply_costs_max_of_timeout_and_slowest_peer(self):
        net, tallies = _net(ScriptedLoss([LossEvent("reply", nth=0)]))
        rpc = RpcEndpoint(net, origin="client")
        batch = rpc.scatter(_calls())
        batch.complete_all()
        # The lost member expires at rpc_timeout (20) > the peers'
        # round trips (2); waiting on everything costs the max, not
        # 20 + 2 + 2.
        assert net.clock.now() == max(net.rpc_timeout, 2.0) == 20.0
        lost = batch.replies[0]
        assert isinstance(lost.error, RpcTimeoutError)
        assert lost.arrival == 20.0
        # A lost *reply* still executed the call on the server.
        assert lost.effect_applied
        assert tallies["a"].calls == 1
        assert [r.arrival for r in batch.replies[1:]] == [2.0, 2.0]
        assert net.stats.dropped == 1
        assert net.stats.messages == 6  # request+dropped reply still sent
        assert net.stats.rpc_rounds == 2

    def test_lost_request_applies_no_effect(self):
        net, tallies = _net(ScriptedLoss([LossEvent("request", nth=0)]))
        rpc = RpcEndpoint(net, origin="client")
        batch = rpc.scatter(_calls())
        batch.complete_all()
        assert not batch.replies[0].effect_applied
        assert tallies["a"].calls == 0
        assert tallies["b"].calls == tallies["c"].calls == 1
        assert net.stats.messages == 5  # lost request = 1 message

    def test_in_batch_retry_runs_on_own_timeline(self):
        net, tallies = _net(ScriptedLoss([LossEvent("reply", nth=0)]))
        rpc = RpcEndpoint(net, origin="client")
        batch = rpc.scatter(_calls(retries=1))
        batch.complete_all()
        retried = batch.replies[0]
        assert retried.ok
        assert retried.attempts == 2
        assert retried.timeouts == 1
        # Timeout (20) then a fresh round trip (2), all on this member's
        # own virtual timeline; peers were never delayed by it.
        assert retried.arrival == 22.0
        assert [r.arrival for r in batch.replies[1:]] == [2.0, 2.0]
        assert net.clock.now() == 22.0
        assert tallies["a"].calls == 2  # dropped-reply effect + re-issue

    def test_hedged_gather_skips_slow_member(self):
        net, _ = _net(ScriptedLoss([LossEvent("reply", nth=0)]))
        rpc = RpcEndpoint(net, origin="client")
        batch = rpc.scatter(_calls())
        waited, sufficient = batch.complete_first(2, lambda r: 1)
        assert sufficient
        assert [r.call.key for r in waited] == ["b", "c"]
        # The gather returns at the fast members' arrival...
        assert net.clock.now() == 2.0
        # ...but the timed-out member executed the call and holds locks
        # until its timeout expires; the caller must settle that.
        assert batch.lock_deadline == 20.0

    def test_hedged_gather_degenerates_when_insufficient(self):
        net, _ = _net()
        net.node("b").crash()
        net.node("c").crash()
        rpc = RpcEndpoint(net, origin="client")
        batch = rpc.scatter(_calls())
        waited, sufficient = batch.complete_first(2, lambda r: 1)
        assert not sufficient
        assert len(waited) == 3  # had to sit out every member to learn it
        assert isinstance(batch.replies[1].error, NodeDownError)

    def test_down_member_fails_instantly(self):
        net, tallies = _net()
        net.node("a").crash()
        rpc = RpcEndpoint(net, origin="client")
        batch = rpc.scatter(_calls())
        batch.complete_all()
        down = batch.replies[0]
        assert isinstance(down.error, NodeDownError)
        assert not down.effect_applied
        assert down.arrival == 0.0  # nothing sent, nothing waited for
        assert tallies["a"].calls == 0
        assert net.clock.now() == 2.0


class TestScatterSpans:
    def _traced(self, faults=None):
        net, tallies = _net(faults)
        tracer = RecordingTracer(now=net.clock.now)
        return net, tallies, tracer, RpcEndpoint(net, "client", tracer=tracer)

    def test_fanout_envelope_and_member_timelines(self):
        net, _, tracer, rpc = self._traced()
        batch = rpc.scatter(_calls(), label="rep_lookup")
        batch.complete_all()
        (root,) = tracer.finished_roots()
        assert root.name == "fanout:rep_lookup"
        assert root.attrs["width"] == 3
        assert root.attrs["waited_on"] == 3
        assert root.attrs["hedged"] is False
        assert (root.start, root.end) == (0.0, 2.0)
        assert [c.name for c in root.children] == ["rpc:svc.put"] * 3
        # All members share the scatter instant but own their arrivals.
        assert all((c.start, c.end) == (0.0, 2.0) for c in root.children)

    def test_per_attempt_span_attribution(self):
        net, _, tracer, rpc = self._traced(
            ScriptedLoss([LossEvent("reply", nth=0)])
        )
        batch = rpc.scatter(_calls(retries=1))
        batch.complete_all()
        (root,) = tracer.finished_roots()
        # Four rpc spans: the retried member contributes two attempts.
        spans = root.children
        assert len(spans) == 4
        first, reissue = spans[0], spans[1]
        assert first.attrs["lost"] == "reply"
        assert "attempt" not in first.attrs  # first tries are unlabelled
        assert first.status == "RpcTimeoutError"
        assert (first.start, first.end) == (0.0, 20.0)
        # Only the failed member re-issues, carrying its own attempt
        # number — batches never share the endpoint-level counter.
        assert reissue.attrs["attempt"] == 1
        assert reissue.status == "ok"
        assert (reissue.start, reissue.end) == (20.0, 22.0)
        assert all("attempt" not in s.attrs for s in spans[2:])
        # The envelope covers the slowest member's full attempt chain.
        assert (root.start, root.end) == (0.0, 22.0)

    def test_hedged_span_marks_waited_subset(self):
        net, _, tracer, rpc = self._traced(
            ScriptedLoss([LossEvent("reply", nth=0)])
        )
        batch = rpc.scatter(_calls())
        batch.complete_first(2, lambda r: 1)
        (root,) = tracer.finished_roots()
        assert root.attrs["waited_on"] == 2
        assert root.attrs["hedged"] is True
        assert (root.start, root.end) == (0.0, 2.0)


#: (spec, expected traffic/outcome) pairs captured by running the
#: pre-fan-out serial engine; ``fanout="serial"`` must reproduce them
#: bit-for-bit — same message counts, same simulated latency, same
#: final directory — or the refactor has changed the paper baseline.
SERIAL_BASELINES = [
    (
        SimulationSpec(
            config="3-2-2", directory_size=50, operations=400, seed=11
        ),
        {
            "messages": 11476,
            "rpc_rounds": 5738,
            "payload_items": 5738,
            "sim_ticks": 11476.0,
            "final_size": 51,
        },
    ),
    (
        SimulationSpec(
            config="3-2-2",
            directory_size=50,
            operations=300,
            seed=11,
            loss=0.05,
            retries=2,
            verify_model=True,
        ),
        {
            "messages": 9392,
            "rpc_rounds": 4341,
            "dropped": 467,
            "sim_ticks": 18046.04707030844,
            "final_size": 49,
        },
    ),
    (
        SimulationSpec(
            config="4-2-3",
            directory_size=40,
            operations=250,
            seed=7,
            neighbor_batch_size=3,
            read_repair=True,
        ),
        {
            "messages": 8584,
            "rpc_rounds": 4292,
            "payload_items": 4900,
            "sim_ticks": 8584.0,
            "final_size": 46,
        },
    ),
]


class TestSerialSeedEquivalence:
    @pytest.mark.parametrize(
        "spec,expected",
        SERIAL_BASELINES,
        ids=["perfect", "lossy", "batched-neighbors"],
    )
    def test_serial_matches_pre_fanout_baseline(self, spec, expected):
        assert spec.fanout == "serial"  # the default stays paper-faithful
        result = run_simulation(spec)
        for key, value in expected.items():
            if key in ("sim_ticks", "final_size"):
                assert getattr(result, key) == value, key
            else:
                assert result.traffic[key] == value, key
        assert result.failed_operations == 0
        assert result.model_mismatches == 0


#: Mix with lookups — the default mix has none, and the hedged read
#: path is the part of the engine worth exercising here.
_MIX = OpMix(insert=1, update=1, delete=1, lookup=2)


def _mode_spec(mode, **overrides):
    base = dict(
        config="3-2-2",
        directory_size=30,
        operations=150,
        seed=11,
        mix=_MIX,
        fanout=mode,
        verify_model=True,
    )
    base.update(overrides)
    return SimulationSpec(**base)


def _run_with_state(mode, **overrides):
    from repro.cluster import DirectoryCluster

    spec = _mode_spec(mode, **overrides)
    cluster = DirectoryCluster.create(ClusterSpec(config=spec.config, seed=spec.seed, tracer=RecordingTracer() if spec.trace_spans else None, fanout=mode, hedge_extra=spec.hedge_extra))
    result = run_simulation(spec, cluster=cluster)
    return result, cluster.suite.authoritative_state()


class TestFanoutModes:
    def test_parallel_and_hedged_match_serial_state(self):
        serial, serial_state = _run_with_state("serial")
        parallel, parallel_state = _run_with_state("parallel")
        hedged, hedged_state = _run_with_state("hedged")

        # Fan-out reorders time, not traffic or outcomes.
        assert parallel_state == serial_state
        assert hedged_state == serial_state
        assert parallel.traffic["messages"] == serial.traffic["messages"]
        assert parallel.sim_ticks < serial.sim_ticks
        assert hedged.sim_ticks <= parallel.sim_ticks
        for result in (serial, parallel, hedged):
            assert result.failed_operations == 0
            assert result.model_mismatches == 0

    def test_fanout_metrics_only_populate_in_fanout_modes(self):
        serial, _ = _run_with_state("serial")
        parallel, _ = _run_with_state("parallel")
        assert serial.metrics["suite.fanout.width"]["n"] == 0
        width = parallel.metrics["suite.fanout.width"]
        assert width["n"] > 0
        assert width["max"] >= 2
        # Uniform perfect network: every batch member arrives together,
        # so hedging saves nothing and the gauge nets out to zero.
        assert parallel.metrics["suite.fanout.straggler_ticks_saved"] == 0.0

    def test_traced_fanout_phases_tile_exactly(self):
        from repro.obs.analyze import PHASES, _credit_phases

        for mode in ("parallel", "hedged"):
            result, _ = _run_with_state(mode, trace_spans=True)
            assert result.spans
            for op_span in result.spans:
                sums = dict.fromkeys(PHASES, 0.0)
                _credit_phases(op_span, sums)
                assert sum(sums.values()) == pytest.approx(
                    op_span.duration, abs=1e-9
                )

    def test_invalid_fanout_rejected(self):
        from repro.cluster import DirectoryCluster

        with pytest.raises(ValueError):
            DirectoryCluster.create(ClusterSpec(config="3-2-2", fanout="sideways"))


# -- the message sequence of each verb, pinned -------------------------------

#: Every method a suite or its 2PC coordinator sends a representative.
_WIRE_METHODS = (
    "rep_lookup", "rep_insert", "rep_lookup_many", "rep_insert_many",
    "rep_neighbors_batch", "rep_coalesce", "rep_neighbors_many",
    "rep_coalesce_many", "prepare", "commit", "abort",
)


def _tap(cluster, log):
    """Append ``method@member`` to ``log`` for every message delivered."""
    for name, rep in cluster.representatives.items():
        for method in _WIRE_METHODS:
            def tapped(*args, _inner=getattr(rep, method),
                       _row=f"{method}@{name}", **kwargs):
                log.append(_row)
                return _inner(*args, **kwargs)

            setattr(rep, method, tapped)


def record_sequences(mode, transport):
    """``{verb: "method@member ..."}`` for one scripted 3-2-2 run.

    The script plants a ghost: ``f`` is inserted while A is down (so it
    lands on B and C) and deleted while C is down (so C keeps it).  The
    recorded delete of ``d`` then runs with A down, which puts C in every
    quorum: its successor walk meets ``f``, finds it absent, and goes on.
    The wave writes ``e`` to two members; the classic delete of ``h``
    after it draws the third, and installs the copy it lacks.
    """
    from repro.cluster import DirectoryCluster

    spec = ClusterSpec(config="3-2-2", seed=5, fanout=mode, transport=transport)
    with DirectoryCluster.create(spec) as cluster:
        suite = cluster.suite
        for key in "bdhj":
            suite.insert(key, key.upper())
        cluster.crash("A")
        suite.insert("f", "F")
        cluster.recover("A")
        cluster.crash("C")
        suite.delete("f")
        cluster.recover("C")
        log: list = []
        _tap(cluster, log)
        sequences = {}

        def take(verb, fn, *args):
            del log[:]
            fn(*args)
            sequences[verb] = " ".join(log)

        take("lookup", suite.lookup, "d")
        take("insert", suite.insert, "c", "C")
        take("update", suite.update, "d", "D2")
        cluster.crash("A")
        take("delete", suite.delete, "d")
        cluster.recover("A")
        take(
            "wave",
            suite.execute_batch,
            [
                ("lookup", "b"),
                ("insert", "e", "E"),
                ("update", "h", "H2"),
                ("delete", "c"),
                ("upsert", "k", "K"),
                ("lookup", "zz"),
            ],
        )
        take("delete_h", suite.delete, "h")
    return sequences


#: The four classic rows were recorded at the commit before `_round` /
#: `_phase` existed (serial loops beside scatters at every call site) and
#: a refactor of how rounds are issued must reproduce them exactly.  The
#: ``wave`` row was re-recorded when a wave's deletes began to share
#: their walk (``rep_neighbors_many`` / ``rep_coalesce_many``, one read
#: and one write quorum a wave), and ``delete_h`` — a classic delete
#: that finds a boundary copy missing, which until then only the wave
#: did — was recorded with it.  Both transports produce the same table.
ROUND_SEQUENCES = {
    "serial": {
        "lookup": (
            "rep_lookup@B rep_lookup@C prepare@B prepare@C commit@B "
            "commit@C"
        ),
        "insert": (
            "rep_lookup@C rep_lookup@B rep_insert@B rep_insert@C "
            "prepare@C prepare@B commit@C commit@B"
        ),
        "update": (
            "rep_lookup@B rep_lookup@C rep_insert@B rep_insert@C "
            "prepare@B prepare@C commit@B commit@C"
        ),
        "delete": (
            "rep_lookup@C rep_lookup@B rep_neighbors_batch@B "
            "rep_neighbors_batch@C rep_lookup@B rep_lookup@C "
            "rep_neighbors_batch@C rep_lookup@C rep_lookup@B "
            "rep_neighbors_batch@C rep_neighbors_batch@B rep_lookup@C "
            "rep_lookup@B rep_lookup@C rep_lookup@C rep_lookup@B "
            "rep_lookup@B rep_coalesce@C rep_coalesce@B prepare@C "
            "prepare@B commit@C commit@B"
        ),
        "wave": (
            "rep_lookup_many@B rep_lookup_many@A rep_neighbors_many@B "
            "rep_neighbors_many@A rep_lookup_many@B rep_lookup_many@A "
            "rep_neighbors_many@A rep_lookup_many@B rep_lookup_many@A "
            "rep_insert_many@A rep_insert_many@C rep_neighbors_many@B "
            "rep_neighbors_many@A rep_lookup_many@B rep_lookup_many@A "
            "rep_neighbors_many@A rep_lookup_many@B rep_lookup_many@A "
            "rep_lookup_many@A rep_lookup_many@C rep_insert_many@C "
            "rep_coalesce_many@A rep_coalesce_many@C rep_insert_many@A "
            "rep_insert_many@C prepare@B prepare@A prepare@C commit@B "
            "commit@A commit@C"
        ),
        "delete_h": (
            "rep_lookup@C rep_lookup@B rep_neighbors_batch@C "
            "rep_neighbors_batch@B rep_lookup@C rep_lookup@B "
            "rep_neighbors_batch@C rep_neighbors_batch@A rep_lookup@A "
            "rep_lookup@B rep_lookup@C rep_lookup@C rep_lookup@A "
            "rep_insert@A rep_lookup@A rep_coalesce@C rep_coalesce@A "
            "prepare@C prepare@B prepare@A commit@C commit@B commit@A"
        ),
    },
    "parallel": {
        "lookup": (
            "rep_lookup@B rep_lookup@C prepare@B prepare@C commit@B "
            "commit@C"
        ),
        "insert": (
            "rep_lookup@C rep_lookup@B rep_insert@B rep_insert@C "
            "prepare@C prepare@B commit@C commit@B"
        ),
        "update": (
            "rep_lookup@B rep_lookup@C rep_insert@B rep_insert@C "
            "prepare@B prepare@C commit@B commit@C"
        ),
        "delete": (
            "rep_lookup@C rep_lookup@B rep_neighbors_batch@B "
            "rep_neighbors_batch@C rep_lookup@B rep_lookup@C "
            "rep_neighbors_batch@C rep_lookup@C rep_lookup@B "
            "rep_neighbors_batch@C rep_neighbors_batch@B rep_lookup@C "
            "rep_lookup@B rep_lookup@C rep_lookup@C rep_lookup@B "
            "rep_lookup@B rep_coalesce@C rep_coalesce@B prepare@C "
            "prepare@B commit@C commit@B"
        ),
        "wave": (
            "rep_lookup_many@B rep_lookup_many@A rep_neighbors_many@B "
            "rep_neighbors_many@A rep_lookup_many@B rep_lookup_many@A "
            "rep_neighbors_many@A rep_lookup_many@B rep_lookup_many@A "
            "rep_insert_many@A rep_insert_many@C rep_neighbors_many@B "
            "rep_neighbors_many@A rep_lookup_many@B rep_lookup_many@A "
            "rep_neighbors_many@A rep_lookup_many@B rep_lookup_many@A "
            "rep_lookup_many@A rep_lookup_many@C rep_insert_many@C "
            "rep_coalesce_many@A rep_coalesce_many@C rep_insert_many@A "
            "rep_insert_many@C prepare@B prepare@A prepare@C commit@B "
            "commit@A commit@C"
        ),
        "delete_h": (
            "rep_lookup@C rep_lookup@B rep_neighbors_batch@C "
            "rep_neighbors_batch@B rep_lookup@C rep_lookup@B "
            "rep_neighbors_batch@C rep_neighbors_batch@A rep_lookup@A "
            "rep_lookup@B rep_lookup@C rep_lookup@C rep_lookup@A "
            "rep_lookup@A rep_insert@A rep_coalesce@C rep_coalesce@A "
            "prepare@C prepare@B prepare@A commit@C commit@B commit@A"
        ),
    },
    "hedged": {
        "lookup": (
            "rep_lookup@B rep_lookup@C rep_lookup@A prepare@B prepare@C "
            "prepare@A commit@B commit@C commit@A"
        ),
        "insert": (
            "rep_lookup@C rep_lookup@B rep_lookup@A rep_insert@B "
            "rep_insert@C prepare@C prepare@B prepare@A commit@C commit@B "
            "commit@A"
        ),
        "update": (
            "rep_lookup@B rep_lookup@C rep_lookup@A rep_insert@B "
            "rep_insert@C prepare@B prepare@C prepare@A commit@B commit@C "
            "commit@A"
        ),
        "delete": (
            "rep_lookup@C rep_lookup@B rep_neighbors_batch@B "
            "rep_neighbors_batch@C rep_lookup@B rep_lookup@C "
            "rep_neighbors_batch@C rep_lookup@C rep_lookup@B "
            "rep_neighbors_batch@C rep_neighbors_batch@B rep_lookup@C "
            "rep_lookup@B rep_lookup@C rep_lookup@C rep_lookup@B "
            "rep_lookup@B rep_coalesce@C rep_coalesce@B prepare@C "
            "prepare@B commit@C commit@B"
        ),
        "wave": (
            "rep_lookup_many@B rep_lookup_many@A rep_neighbors_many@B "
            "rep_neighbors_many@A rep_lookup_many@B rep_lookup_many@A "
            "rep_neighbors_many@A rep_lookup_many@B rep_lookup_many@A "
            "rep_insert_many@A rep_insert_many@C rep_neighbors_many@B "
            "rep_neighbors_many@A rep_lookup_many@B rep_lookup_many@A "
            "rep_neighbors_many@A rep_lookup_many@B rep_lookup_many@A "
            "rep_lookup_many@A rep_lookup_many@C rep_insert_many@C "
            "rep_coalesce_many@A rep_coalesce_many@C rep_insert_many@A "
            "rep_insert_many@C prepare@B prepare@A prepare@C commit@B "
            "commit@A commit@C"
        ),
        "delete_h": (
            "rep_lookup@C rep_lookup@B rep_lookup@A rep_neighbors_batch@C "
            "rep_neighbors_batch@B rep_lookup@C rep_lookup@B rep_lookup@A "
            "rep_neighbors_batch@C rep_neighbors_batch@A rep_lookup@A "
            "rep_lookup@B rep_lookup@C rep_lookup@C rep_lookup@C "
            "rep_lookup@A rep_lookup@A rep_insert@A rep_coalesce@C "
            "rep_coalesce@A prepare@C prepare@B prepare@A commit@C "
            "commit@B commit@A"
        ),
    },
}


class TestRoundSequence:
    @pytest.mark.parametrize("transport", ["sim", "asyncio"])
    @pytest.mark.parametrize("mode", ["serial", "parallel", "hedged"])
    def test_every_verb_sends_the_recorded_messages_in_order(
        self, mode, transport
    ):
        assert record_sequences(mode, transport) == ROUND_SEQUENCES[mode]

    def test_script_meets_the_ghost_and_tells_the_modes_apart(self):
        """The table is only a guard if the scripted run takes the
        branches a reordering would disturb."""
        serial, parallel = ROUND_SEQUENCES["serial"], ROUND_SEQUENCES["parallel"]
        # The successor walk fetched from C twice: past the ghost.
        assert serial["delete"].count("rep_neighbors_batch@C") >= 3
        # Serial installs a missing neighbour right after its probe;
        # parallel probes every pair first.
        assert "rep_lookup@A rep_insert@A rep_lookup@A" in serial["delete_h"]
        assert "rep_lookup@A rep_lookup@A rep_insert@A" in parallel["delete_h"]
        # The wave's delete searched twice (with the rest of the wave,
        # then alone behind the flush: ``e`` landed next to it), each
        # time stepping past the ghost on one more message to A, and
        # installed the copy C lacked in one more.
        assert serial["wave"].count("rep_neighbors_many@A") == 4
        assert serial["wave"].count("rep_neighbors_many@B") == 2
        assert "rep_insert_many@C rep_coalesce_many@A" in serial["wave"]
        assert ROUND_SEQUENCES["hedged"]["lookup"].count("rep_lookup@") == 3
