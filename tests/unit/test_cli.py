"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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

    @pytest.mark.parametrize("mode", ["parallel", "hedged"])
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


class TestServe:
    def test_range_map_over_string_keys_exits_with_one_line(self, capsys):
        """``--shard-map range`` splits floats and the wire carries
        strings: refuse to start rather than serve ``-ERR internal``."""
        code = main(["serve", "--shards", "2", "--shard-map", "range"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-serve: shard map range[2] splits at [0.5]")
