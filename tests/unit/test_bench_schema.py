"""Unit tests for the BENCH telemetry schema (repro.obs.bench)."""

import json

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA,
    bench_path,
    bench_payload,
    compare_benches,
    format_comparison,
    load_bench,
    validate_bench,
    write_bench,
)


def make_payload(**over):
    base = dict(
        name="driver",
        workload={"operations": 100, "seed": 0},
        messages={"messages": 900, "rpc_rounds": 300},
        latency={"phases": {"rpc": {"avg": 2.0, "p99": 6.0, "n": 100}}},
        audit={"runs": 1, "violations": 0},
        extra={"sim_ticks": 123.0},
        created=1_700_000_000.0,
    )
    base.update(over)
    return bench_payload(**base)


class TestPayload:
    def test_shape(self):
        payload = make_payload()
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["name"] == "driver"
        assert payload["created"] == 1_700_000_000.0
        validate_bench(payload)

    def test_created_defaults_to_now(self):
        assert make_payload(created=None)["created"] > 0

    def test_audit_may_be_null(self):
        validate_bench(make_payload(audit=None))

    def test_json_round_trips(self):
        payload = make_payload()
        assert json.loads(json.dumps(payload)) == payload


class TestValidate:
    def test_rejects_wrong_schema(self):
        payload = make_payload()
        payload["schema"] = "repro-bench/0"
        with pytest.raises(ValueError, match="schema"):
            validate_bench(payload)

    def test_rejects_missing_name(self):
        payload = make_payload()
        payload["name"] = ""
        with pytest.raises(ValueError):
            validate_bench(payload)

    def test_rejects_non_dict_section(self):
        payload = make_payload()
        payload["messages"] = [1, 2]
        with pytest.raises(ValueError, match="messages"):
            validate_bench(payload)

    def test_rejects_non_dict_audit(self):
        payload = make_payload()
        payload["audit"] = 7
        with pytest.raises(ValueError, match="audit"):
            validate_bench(payload)


class TestFiles:
    def test_bench_path_naming(self, tmp_path):
        assert bench_path("rpc_rounds", tmp_path).name == "BENCH_rpc_rounds.json"

    def test_write_load_round_trip(self, tmp_path):
        payload = make_payload()
        path = write_bench(payload, directory=tmp_path)
        assert path.name == "BENCH_driver.json"
        assert load_bench(path) == payload

    def test_load_validates(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError):
            load_bench(path)


class TestCompare:
    def test_identical_has_no_regressions(self):
        payload = make_payload()
        assert compare_benches(payload, payload) == []

    def test_flags_regression_over_tolerance(self):
        base = make_payload()
        cand = make_payload(messages={"messages": 1000, "rpc_rounds": 300})
        (reg,) = compare_benches(base, cand)
        assert reg["path"] == "messages.messages"
        assert reg["ratio"] == pytest.approx(1000 / 900)

    def test_improvement_and_small_noise_ignored(self):
        base = make_payload()
        cand = make_payload(
            messages={"messages": 880, "rpc_rounds": 309}  # -2%, +3%
        )
        assert compare_benches(base, cand) == []

    def test_tolerance_knob(self):
        base = make_payload()
        cand = make_payload(messages={"messages": 927, "rpc_rounds": 300})
        assert compare_benches(base, cand) == []            # +3% < 5%
        assert compare_benches(base, cand, tolerance=0.02)  # +3% > 2%

    def test_sample_count_leaves_skipped(self):
        base = make_payload()
        cand = make_payload(
            latency={"phases": {"rpc": {"avg": 2.0, "p99": 6.0, "n": 999}}}
        )
        assert compare_benches(base, cand) == []

    def test_nested_latency_leaves_compared(self):
        base = make_payload()
        cand = make_payload(
            latency={"phases": {"rpc": {"avg": 2.0, "p99": 9.0, "n": 100}}}
        )
        (reg,) = compare_benches(base, cand)
        assert reg["path"] == "latency.phases.rpc.p99"

    def test_missing_and_zero_leaves_ignored(self):
        base = make_payload(messages={"messages": 0, "gone": 5})
        cand = make_payload(messages={"messages": 10, "new": 5})
        assert compare_benches(base, cand) == []

    def test_audit_and_extra_sections_not_compared(self):
        base = make_payload()
        cand = make_payload(
            audit={"runs": 99, "violations": 0}, extra={"sim_ticks": 999.0}
        )
        assert compare_benches(base, cand) == []

    def test_rates_and_speedups_regress_when_they_fall(self):
        rates = {"ops_per_second": 5000.0, "speedup_vs_e23": 11.3,
                 "p95_ms": 800.0}
        base = make_payload(latency=rates)
        faster = make_payload(
            latency={"ops_per_second": 6400.0, "speedup_vs_e23": 14.5,
                     "p95_ms": 600.0}
        )
        assert compare_benches(base, faster) == []  # every leaf improved
        slower = make_payload(
            latency={"ops_per_second": 1754.0, "speedup_vs_e23": 10.9,
                     "p95_ms": 1200.0}
        )
        regs = compare_benches(base, slower)
        # Worst first across both directions: -65% of a rate outranks
        # +50% of a latency; the speedup fell 3.5%, inside tolerance.
        assert [r["path"] for r in regs] == [
            "latency.ops_per_second", "latency.p95_ms"
        ]
        assert regs[0]["ratio"] == pytest.approx(1754.0 / 5000.0)
        text = format_comparison(base, slower, regs)
        assert "latency.ops_per_second: 5000 -> 1754 (-64.9%)" in text
        assert "latency.p95_ms: 800 -> 1200 (+50.0%)" in text

    def test_sorted_worst_first(self):
        base = make_payload()
        cand = make_payload(messages={"messages": 1800, "rpc_rounds": 330})
        paths = [r["path"] for r in compare_benches(base, cand)]
        assert paths == ["messages.messages", "messages.rpc_rounds"]


class TestFormatComparison:
    def test_clean(self):
        payload = make_payload()
        text = format_comparison(payload, payload, [], tolerance=0.05)
        assert "no regressions" in text

    def test_regression_lines(self):
        base = make_payload()
        cand = make_payload(messages={"messages": 1000, "rpc_rounds": 300})
        regs = compare_benches(base, cand)
        text = format_comparison(base, cand, regs, tolerance=0.05)
        assert "messages.messages" in text
        assert "1 regression" in text
