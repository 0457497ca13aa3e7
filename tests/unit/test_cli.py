"""Unit tests for the command-line interface."""

import shlex
import socket
import threading

import pytest

from repro import cli
from repro.cli import build_parser, main


#: The ``python -m repro ...`` lines of the CLI's module docstring.
DOCUMENTED = [
    line.strip().split(maxsplit=3)[3]
    for line in cli.__doc__.splitlines()
    if line.strip().startswith("python -m repro ")
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "line", DOCUMENTED, ids=[line.split()[0] for line in DOCUMENTED]
    )
    def test_every_documented_command_line_parses(self, line):
        # Square brackets mark optional arguments; the line with them
        # taken literally must still be one the parser accepts.
        build_parser().parse_args(
            shlex.split(line.replace("[", "").replace("]", ""))
        )


class TestCommands:
    def test_demo(self, capsys):
        code, out = run_cli(capsys, "demo", "--seed", "3")
        assert code == 0
        assert "lookup(alice)" in out
        assert "recovered" in out

    def test_simulate_small(self, capsys):
        code, out = run_cli(
            capsys,
            "simulate", "--config", "3-2-2", "--size", "30",
            "--ops", "300", "--seed", "1",
        )
        assert code == 0
        assert "entries_in_ranges_coalesced" in out
        assert "RPC rounds" in out

    def test_simulate_spans_to_stdout(self, capsys):
        import json

        code, out = run_cli(
            capsys,
            "simulate", "--size", "20", "--ops", "150", "--spans",
        )
        assert code == 0
        assert "Per-operation span summary" in out
        # the JSON-lines dump starts at the header line
        lines = out.splitlines()
        start = next(
            i for i, line in enumerate(lines) if line.startswith('{"format"')
        )
        header = json.loads(lines[start])
        trees = [json.loads(line) for line in lines[start + 1:]]
        assert header["count"] == len(trees) == 150
        # per-op message counts reconcile exactly with the traffic counters
        def messages(tree):
            return tree["attrs"].get("messages", 0) + sum(
                messages(c) for c in tree["children"]
            )

        reported = next(l for l in lines if l.startswith("reconciliation:"))
        total = sum(messages(t) for t in trees)
        assert f"spans carry {total} messages" in reported
        assert f"traffic counted {total}" in reported

    def test_simulate_spans_to_file(self, capsys, tmp_path):
        path = tmp_path / "spans.jsonl"
        code, out = run_cli(
            capsys,
            "simulate", "--size", "10", "--ops", "50", "--spans", str(path),
        )
        assert code == 0
        assert f"span dump written to {path}" in out
        from repro.obs.export import load_spans_file

        spans = load_spans_file(path)
        assert len(spans) == 50

    def test_simulate_with_btree_and_repair(self, capsys):
        code, out = run_cli(
            capsys,
            "simulate", "--size", "20", "--ops", "200",
            "--store", "btree", "--read-repair", "--batch", "3",
        )
        assert code == 0

    def test_simulate_with_skiplist_store(self, capsys):
        # Every registered store factory must be reachable from the CLI;
        # the choices list is derived from the registry, not hand-kept.
        code, out = run_cli(
            capsys,
            "simulate", "--size", "20", "--ops", "150",
            "--store", "skiplist",
        )
        assert code == 0
        assert "RPC rounds" in out

    @pytest.mark.parametrize("mode", ["parallel"])
    def test_simulate_fanout_modes(self, capsys, mode):
        code, out = run_cli(
            capsys,
            "simulate", "--size", "20", "--ops", "150",
            "--fanout", mode,
        )
        assert code == 0
        assert "RPC rounds" in out

    def test_unknown_fanout_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--fanout", "sideways"])

    def test_hedged_fanout_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["simulate", "--fanout", "hedged"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'hedged'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--reshard-hot-factor", "--reshard-max-splits"]
    )
    def test_reshard_tuning_flags_are_gone(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", flag, "2"])

    @pytest.mark.parametrize("mode", ["serial", "parallel", "hedged"])
    def test_serve_takes_no_fanout(self, mode):
        """Served rounds send the same messages whatever the mode, so
        ``serve`` offers none to choose."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--fanout", mode])

    def test_figure14_reduced(self, capsys):
        code, out = run_cli(
            capsys,
            "figure14", "--configs", "1-1-1,3-2-2",
            "--size", "30", "--ops", "300",
        )
        assert code == 0
        assert "3-2-2" in out
        assert "Entries in ranges coalesced" in out

    def test_figure15_reduced(self, capsys):
        code, out = run_cli(
            capsys,
            "figure15", "--sizes", "30,60", "--ops", "400",
        )
        assert code == 0
        assert "30 entries" in out and "60 entries" in out
        assert "Std Dev" in out

    def test_availability(self, capsys):
        code, out = run_cli(capsys, "availability", "--p", "0.9")
        assert code == 0
        assert "5 unanimous" in out
        assert "0.5905" in out  # 0.9^5

    def test_concurrency(self, capsys):
        code, out = run_cli(
            capsys, "concurrency", "--txns", "100", "--clients", "4"
        )
        assert code == 0
        assert "whole" in out and "range" in out

    def test_analytic(self, capsys):
        code, out = run_cli(capsys, "analytic", "--configs", "3-2-2")
        assert code == 0
        assert "1.200" in out

    def test_plan(self, capsys):
        code, out = run_cli(
            capsys, "plan", "--replicas", "5", "--p", "0.9"
        )
        assert code == 0
        assert "most available: 5-3-3" in out
        assert "accesses/op" in out


class TestProfileAuditBench:
    def test_simulate_profile_audit_writes_everything(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        monkeypatch.chdir(tmp_path)
        code, out = run_cli(
            capsys,
            "simulate", "--size", "20", "--ops", "200", "--seed", "0",
            "--profile", "--audit", "--metrics", "metrics.json",
            "--bench-json",
        )
        assert code == 0
        assert "Per-operation simulated latency" in out
        assert "Per-phase self time" in out
        assert "p99" in out
        assert "0 violations" in out

        from repro.obs.bench import load_bench

        bench = load_bench(tmp_path / "BENCH_driver.json")
        assert bench["name"] == "driver"
        assert bench["audit"]["violations"] == 0
        assert bench["workload"]["operations"] == 200
        assert bench["messages"]["messages"] > 0
        assert "phases" in bench["latency"]

        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["audit.violations"] == 0
        assert "net.traffic" in metrics

    def test_profile_audit_writes_no_bench_unasked(
        self, capsys, tmp_path, monkeypatch
    ):
        """Only ``--bench-json`` writes a BENCH document: a profiled,
        audited run in a checkout must not overwrite the committed one."""
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(
            capsys,
            "simulate", "--size", "10", "--ops", "50", "--seed", "0",
            "--profile", "--audit",
        )
        assert code == 0
        assert "BENCH telemetry written" not in out
        assert list(tmp_path.glob("BENCH_*.json")) == []

    def test_metrics_to_stdout(self, capsys):
        import json

        code, out = run_cli(
            capsys,
            "simulate", "--size", "10", "--ops", "50", "--metrics", "-",
        )
        assert code == 0
        start = out.index("{")
        snapshot = json.loads(out[start : out.rindex("}") + 1])
        assert "suite.ops" in snapshot

    def test_bench_json_custom_path(self, capsys, tmp_path):
        from repro.obs.bench import load_bench

        path = tmp_path / "BENCH_mini.json"
        code, out = run_cli(
            capsys,
            "simulate", "--size", "10", "--ops", "50", "--profile",
            "--bench-json", str(path),
        )
        assert code == 0
        bench = load_bench(path)
        assert bench["name"] == "mini"
        assert bench["audit"] is None  # no --audit on this run

    def test_bench_compare_clean_and_regressed(self, capsys, tmp_path):
        from repro.obs.bench import bench_payload, write_bench

        base = bench_payload(
            name="a",
            workload={},
            messages={"messages": 100},
            latency={},
            created=1.0,
        )
        worse = bench_payload(
            name="b",
            workload={},
            messages={"messages": 150},
            latency={},
            created=2.0,
        )
        base_path = write_bench(base, directory=tmp_path)
        worse_path = write_bench(worse, directory=tmp_path)

        code, out = run_cli(
            capsys, "bench-compare", str(base_path), str(base_path)
        )
        assert code == 0
        assert "no regressions" in out

        code, out = run_cli(
            capsys, "bench-compare", str(base_path), str(worse_path)
        )
        assert code == 1
        assert "messages.messages" in out

        # a generous tolerance waves the same pair through
        code, _ = run_cli(
            capsys,
            "bench-compare", str(base_path), str(worse_path),
            "--tolerance", "0.6",
        )
        assert code == 0



class TestBadConfigurations:
    """A configuration the CLI cannot serve or simulate ends in one line
    and a non-zero status, never a traceback."""

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["serve", "--config", "3-4-2"], "read quorum 4 out of range"),
            (["serve", "--config", "bogus"], "bad x-y-z spec: 'bogus'"),
            (
                ["simulate", "--config", "3-4-2", "--ops", "10"],
                "read quorum 4 out of range",
            ),
        ],
        ids=["serve-3-4-2", "serve-bogus", "simulate-3-4-2"],
    )
    def test_a_refused_config_is_one_line(self, capsys, argv, reason):
        threads = threading.active_count()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro-{argv[0]}: ") and reason in line
        # Refused before the service's loop thread was started.
        assert threading.active_count() == threads

    @pytest.mark.parametrize("flag", ["--shards", "--batch-max"])
    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_serve_counts_must_be_positive(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["simulate", "--shards", "-1"], "shards must be >= 0: -1"),
            (["simulate", "--ops", "-5"], "operations must be >= 0: -5"),
            (["simulate", "--size", "-3"], "directory_size must be >= 0: -3"),
            (["simulate", "--crash-at", "-2"], "crash_at must be >= 0: -2"),
            (["simulate", "--retries", "-1"], "retries must be >= 0: -1"),
            (["simulate", "--loss", "1.5"], "loss out of [0,1]: 1.5"),
            (
                ["simulate", "--batch", "0"],
                "neighbor_batch_size must be >= 1: 0",
            ),
            (
                ["simulate", "--crash-at", "5", "--rejoin-replica", "Z"],
                "unknown rejoin_replica 'Z'",
            ),
            (["load", "--port", "1", "--ops", "-5"], "ops must be >= 1: -5"),
        ],
        ids=[
            "shards", "ops", "size", "crash-at", "retries", "loss", "batch",
            "rejoin-replica", "load-ops",
        ],
    )
    def test_a_value_out_of_range_is_one_line(self, capsys, argv, reason):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"repro-{argv[0]}: {reason}"]

    @pytest.mark.parametrize("command", ["serve", "load", "top"])
    @pytest.mark.parametrize("value", ["99999", "65536", "-1", "x"])
    def test_a_port_out_of_range_is_refused(self, capsys, command, value):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--port", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --port: not a port number: " in err
        assert "Traceback" not in err

    def test_a_bad_rate_list_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["load", "--port", "1", "--rates", "1,x"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --rates: not a rate list: '1,x'" in err
        assert build_parser().parse_args(
            ["load", "--port", "1", "--rates", "200,600"]
        ).rates == (200.0, 600.0)

    def test_load_against_a_closed_port_is_one_line(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        code = main([
            "load", "--port", str(port), "--ops", "10",
            "--connections", "1", "--bench-dir", "",
        ])
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("repro-load: cannot connect: ")
        assert f"('127.0.0.1', {port})" in line
