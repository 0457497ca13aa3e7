"""End-to-end coverage of the service's live-telemetry plane.

Boots the real asyncio service (sockets, shard waves, ring tracers)
and drives it through the blocking client: the ``STATS``/``SLOW``/
``METRICS`` verbs, trace-id propagation and adoption, the windowed-rate
consistency the acceptance gate relies on, and the wire-compatibility
guarantees (old-format clients, malformed metadata) the protocol
promises.
"""

from __future__ import annotations

import socket

import pytest

from repro.cluster import ClusterSpec
from repro.obs.analyze import PHASES, _credit_phases, iter_op_spans
from repro.obs.spans import Span
from repro.service import protocol
from repro.service.client import DirectoryClient
from repro.service.server import DirectoryService
from repro.shard.sharded import ShardedDirectory


@pytest.fixture(scope="module")
def service():
    spec = ClusterSpec(config="3-2-2", seed=11, transport="asyncio")
    with ShardedDirectory.create(spec, shards=2, shard_map="hash") as d:
        with DirectoryService(d).start() as svc:
            yield svc


@pytest.fixture()
def client(service):
    with DirectoryClient(service.host, service.port) as c:
        yield c


def drive(client, n=30):
    for i in range(n):
        client.set(f"k{i}", "v")
        client.get(f"k{i % 5}")


class TestAdminVerbs:
    def test_stats_shape(self, service, client):
        drive(client)
        stats = client.stats(60)
        assert stats["shards"] == 2
        assert set(stats["per_shard"]) == {"s0", "s1"}
        assert stats["window_seconds"] > 0
        assert stats["ops_per_s"] > 0
        for row in stats["per_shard"].values():
            assert set(row) >= {
                "ops_per_s", "routed", "err_per_s",
                "latency", "hot_keys", "membership",
            }
            assert set(row["membership"].values()) <= {
                "up", "joining", "catching_up"
            }
        assert "service.front.ops" in stats["windows"]

    def test_stats_routed_matches_directory(self, service, client):
        before = sum(r["routed"] for r in client.stats()["per_shard"].values())
        drive(client, n=10)  # 20 keyed ops
        after = sum(r["routed"] for r in client.stats()["per_shard"].values())
        assert after - before == 20
        assert after == sum(service.directory.routed)

    def test_stats_rates_consistent_with_op_count(self, service, client):
        base = client.stats()  # sample the window start
        drive(client, n=25)  # 50 keyed ops
        stats = client.stats(0.0)  # rate since the previous sample
        counted = stats["ops_per_s"] * stats["window_seconds"]
        assert counted == pytest.approx(50, rel=0.02)

    def test_hot_key_surfaces_in_owning_shard(self, service, client):
        for _ in range(60):
            client.get("hot-key")
        index = service.directory.shard_for("hot-key")
        stats = client.stats()
        top = stats["per_shard"][f"s{index}"]["hot_keys"]
        assert top and top[0][0] == "hot-key"

    def test_metrics_snapshot(self, client):
        drive(client, n=3)
        snap = client.metrics()
        assert snap["service.front.ops"] > 0
        assert "live.ops.recorded" in snap
        assert "shard.routed" in snap

    def test_stats_window_argument_validated(self, client):
        with pytest.raises(protocol.ReplyError):
            client._request("STATS", "not-a-number")
        with pytest.raises(protocol.ReplyError):
            client._request("SLOW", "0")


class TestSlowVerb:
    def test_span_trees_tile_exactly(self, client):
        drive(client)
        entries = client.slow(8)
        assert entries
        checked = 0
        for entry in entries:
            assert entry["duration"] > 0
            root = Span.from_dict(entry["span"])
            assert root.name == f"service:{entry['verb']}"
            for op in iter_op_spans([root]):
                sums = dict.fromkeys(PHASES, 0.0)
                _credit_phases(op, sums)
                assert sum(sums.values()) == pytest.approx(
                    op.duration, abs=1e-12
                )
                checked += 1
        assert checked > 0

    def test_slow_is_ranked_and_bounded(self, client):
        drive(client)
        entries = client.slow(5)
        assert len(entries) <= 5
        durations = [e["duration"] for e in entries]
        assert durations == sorted(durations, reverse=True)


class TestTracePropagation:
    def test_client_trace_id_adopted_on_root_span(self, service, client):
        client.set("traced-key", "v")
        stamped = client.last_trace
        assert stamped is not None
        index = service.directory.shard_for("traced-key")
        roots = service.telemetry.shards[index].tracer.finished_roots()
        adopted = [s for s in roots if s.attrs.get("trace") == stamped]
        assert len(adopted) == 1
        assert adopted[0].name == "service:SET"
        assert adopted[0].attrs["key"] == "traced-key"

    def test_slow_entries_carry_trace_ids(self, client):
        client.set("slow-traced", "v")
        stamped = client.last_trace
        # Ask for more entries than the per-shard rings hold, so the
        # just-recorded op is present regardless of its rank.
        entries = client.slow(1024)
        assert any(e["trace"] == stamped for e in entries)


class TestWireCompatibility:
    """Old-format and malformed frames must keep working (satellite #6)."""

    def _raw(self, service, payload: bytes) -> bytes:
        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as sock:
            sock.sendall(payload)
            stream = sock.makefile("rb")
            return protocol.read_frame_sync(stream)

    def test_old_format_client_without_trace_metadata(self, service):
        # A pre-trace client, as raw frames: no @-elements on any
        # request, and the reply bytes of the original wire format.
        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as sock:
            sock.sendall(
                protocol.encode_command("SET", "compat-key", "1")
                + protocol.encode_command("GET", "compat-key")
                + protocol.encode_command("LOOKUP", "compat-key")
                + protocol.encode_command("PING")
            )
            stream = sock.makefile("rb")
            assert stream.readline() == b"+OK\r\n"
            assert stream.readline() + stream.readline() == b"$1\r\n1\r\n"
            assert protocol.read_frame_sync(stream) == ["1", "1"]
            assert stream.readline() == b"+PONG\r\n"

    @pytest.mark.parametrize(
        "meta",
        [
            "@trace=",  # malformed: empty id
            "@trace=bad id!",  # malformed: illegal characters
            "@unknown=field",  # unknown metadata field
            "@",  # bare marker
            "@trace",  # missing value separator
        ],
    )
    def test_malformed_or_unknown_metadata_is_ignored(self, service, meta):
        reply = self._raw(
            service, protocol.encode_command("GET", "compat-key", meta)
        )
        assert not isinstance(reply, protocol.ReplyError), reply

    def test_metadata_never_changes_arity(self, service):
        # Three trailing metadata elements on a 0-arg verb still parse.
        reply = self._raw(
            service,
            protocol.encode_command(
                "PING", "@trace=abc-1", "@unknown=x", "@trace=def-2"
            ),
        )
        assert reply == "PONG"

    def test_split_meta_rightmost_trace_wins(self):
        parts, trace, epoch = protocol.split_meta(
            ["GET", "k", "@trace=outer-1", "@trace=inner-2"]
        )
        assert parts == ["GET", "k"]
        assert trace == "inner-2"
        assert epoch is None

    def test_split_meta_leaves_interior_at_args_alone(self):
        # Only *trailing* elements are metadata: an @-ish value in
        # argument position is untouched.
        parts, trace, _ = protocol.split_meta(["SET", "k", "@value"])
        assert parts == ["SET", "k"]  # trailing @value is stripped...
        parts, trace, _ = protocol.split_meta(["SET", "@key", "v"])
        assert parts == ["SET", "@key", "v"]  # ...interior @key is not
        assert trace is None


class TestTopCommand:
    def test_top_once_renders_frame(self, service, capsys):
        from repro.cli import main

        with DirectoryClient(service.host, service.port) as c:
            drive(c, n=10)
        rc = main(
            [
                "top",
                "--host", service.host,
                "--port", str(service.port),
                "--once",
                "--interval", "0.1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro top" in out
        assert "s0" in out and "s1" in out

    def test_top_connection_refused(self, capsys):
        from repro.cli import main

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        rc = main(["top", "--port", str(free_port), "--once"])
        assert rc == 1
        assert "cannot connect" in capsys.readouterr().out


class TestRemovedSwitches:
    def test_service_takes_no_live_or_batching_keyword(self):
        """Telemetry and the batcher are the one path, not options:
        the old restore-the-previous-behaviour keywords are gone."""
        spec = ClusterSpec(config="1-1-1", seed=3, transport="asyncio")
        with ShardedDirectory.create(spec, shards=1) as d:
            for removed in ("live", "batching"):
                with pytest.raises(TypeError, match=removed):
                    DirectoryService(d, **{removed: False})

    def test_clients_take_no_trace_or_epochs_keyword(self, service):
        for removed in ("trace", "epochs"):
            with pytest.raises(TypeError, match=removed):
                DirectoryClient(service.host, service.port, **{removed: False})


class TestUnroutableMapRefused:
    def test_float_boundaries_are_refused_at_construction(self):
        """Wire keys are strings; the default range map splits floats.
        The front door says so once instead of answering every keyed op
        with an internal TypeError."""
        from repro.core.errors import ConfigurationError

        spec = ClusterSpec(config="1-1-1", seed=3, transport="asyncio")
        with ShardedDirectory.create(spec, shards=2) as d:
            with pytest.raises(TypeError):
                d.shard_for("abc")
            with pytest.raises(ConfigurationError, match=r"\[0\.5\]"):
                DirectoryService(d)

    def test_string_boundaries_and_one_shard_are_served(self):
        from repro.shard.maps import RangeShardMap

        spec = ClusterSpec(config="1-1-1", seed=3, transport="asyncio")
        for options in (
            {"shards": 2, "shard_map": RangeShardMap(["m"])},
            {"shards": 1},  # a range map with no boundary routes anything
        ):
            with ShardedDirectory.create(spec, **options) as d:
                with DirectoryService(d).start() as svc:
                    with DirectoryClient(svc.host, svc.port) as client:
                        client.set("abc", "1")
                        assert client.lookup("abc") == (True, "1")
