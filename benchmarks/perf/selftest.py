"""Unit tests of the harness itself: ``python3 benchmarks/perf/selftest.py``.

Not collected by tier-1 (the name matches neither ``test_*.py`` nor
``bench_*.py``) and needs no server: estimators, the ladder verdict, the
per-connection model, span tiling and the call-bucket map are all checked
on hand-built inputs.
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.perf import estimators, spans, spec, timed  # noqa: E402
from benchmarks.perf.counted import BUCKETS, bucket_of  # noqa: E402
from benchmarks.perf.driver import Sample, Tally  # noqa: E402
from benchmarks.perf.workloads import (  # noqa: E402
    CONTRARY_EVERY,
    WORKLOADS,
    ConnectionModel,
    Op,
    is_internal_error,
    reply_matches,
)
from repro.service import protocol  # noqa: E402


def _step(**over):
    step = {
        "offered": 400, "scheduled": 1000, "completed_in_step": 990,
        "achieved_ops_per_s": 396.0, "lat_p95_ms": 40.0,
        "failed_share": 0.0, "gen_late_p95_ms": 1.0,
    }
    step.update(over)
    return step


class Estimators(unittest.TestCase):
    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(estimators.percentile(values, 50), 50)
        self.assertEqual(estimators.percentile(values, 95), 95)
        self.assertEqual(estimators.percentile([7], 95), 7)
        with self.assertRaises(ValueError):
            estimators.percentile([], 50)

    def test_window_summary_is_per_verb(self):
        samples = [("GET", 0.001)] * 9 + [("DELETE", 0.010)] * 3
        samples += [("SET", 0.002), ("INSERT", 0.003)]
        out = estimators.latency_summary(samples)
        self.assertEqual(out["lat_samples"], 14)
        self.assertAlmostEqual(out["get_p50_ms"], 1.0)
        self.assertAlmostEqual(out["delete_p50_ms"], 10.0)
        self.assertAlmostEqual(out["lat_p50_ms"], 1.0)
        self.assertAlmostEqual(out["lat_p95_ms"], 10.0)
        self.assertEqual(out["delete_samples"], 3)

    def test_rounds_take_median_but_setup_takes_min(self):
        rounds = [
            {"ops_per_s": 100.0, "setup_s": 0.9, "lat_samples": 10.0},
            {"ops_per_s": 300.0, "setup_s": 0.5, "lat_samples": 20.0},
            {"ops_per_s": 120.0, "setup_s": 0.7, "lat_samples": 30.0},
        ]
        out = estimators.across_rounds(rounds)
        self.assertEqual(out["ops_per_s"], 120.0)
        self.assertEqual(out["setup_s"], 0.5)
        self.assertEqual(out["lat_samples"], 60.0)

    def test_spread_is_the_drivers_rule(self):
        values = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
        self.assertAlmostEqual(estimators.spread(values), 0.025, places=6)

    def test_aa_gap_is_symmetric_and_directional(self):
        specs = {
            "lat": {"better": "lower", "bound": 0.10},
            "rate": {"better": "higher", "bound": 0.10},
        }
        rows = estimators.aa_rows(
            {"lat": [10, 10, 10], "rate": [100, 100, 100]},
            {"lat": [10.5, 10.5, 10.5], "rate": [80, 80, 80]},
            specs,
        )
        by_name = {r["metric"]: r for r in rows}
        self.assertAlmostEqual(by_name["lat"]["gap"], 0.05)
        self.assertTrue(by_name["lat"]["ok"])
        self.assertAlmostEqual(by_name["rate"]["gap"], 0.20)
        self.assertFalse(by_name["rate"]["ok"])
        flipped = estimators.aa_rows(
            {"rate": [80, 80, 80]}, {"rate": [100, 100, 100]},
            {"rate": specs["rate"]},
        )
        self.assertAlmostEqual(flipped[0]["gap"], 0.20)


class LadderVerdict(unittest.TestCase):
    def test_a_clean_step_passes(self):
        self.assertEqual(estimators.step_verdict(_step()), "ok")

    def test_latency_failures_and_backlog_make_a_step_slow(self):
        self.assertEqual(estimators.step_verdict(_step(lat_p95_ms=81.0)), "slow")
        self.assertEqual(estimators.step_verdict(_step(failed_share=0.002)), "slow")
        # 94 % of what was scheduled finished inside the step: a backlog.
        self.assertEqual(
            estimators.step_verdict(_step(completed_in_step=940)), "slow"
        )

    def test_a_late_generator_invalidates_rather_than_fails(self):
        late = _step(gen_late_p95_ms=5.1, lat_p95_ms=500.0)
        self.assertEqual(estimators.step_verdict(late), "invalid")

    def test_max_rate_ok_is_the_highest_passing_step(self):
        steps = [
            _step(offered=200, achieved_ops_per_s=199.0),
            _step(offered=400, achieved_ops_per_s=397.0),
            _step(offered=800, lat_p95_ms=200.0),
        ]
        self.assertEqual(estimators.max_rate_ok(steps), (400.0, 397.0))

    def test_an_invalid_step_is_never_the_verdict(self):
        steps = [
            _step(offered=200, achieved_ops_per_s=199.0),
            _step(offered=400, gen_late_p95_ms=9.0),
        ]
        self.assertEqual(estimators.max_rate_ok(steps), (200.0, 199.0))
        self.assertEqual(estimators.max_rate_ok([_step(lat_p95_ms=99)]), (0.0, 0.0))

    def test_samples_belong_to_the_step_they_were_scheduled_in(self):
        workload = WORKLOADS["open_ladder"]
        samples = []
        for i, _rate in enumerate(workload.rates):
            begin = 100.0 + i * 2.0
            for k in range(40):
                due = begin + k * 0.05
                verb = ("GET", "SET", "INSERT", "DELETE")[k % 4]
                samples.append(Sample(verb, due, due + 0.001, due + 0.010, True))
        # One op scheduled at the very end of step 0 completes in step 1.
        samples.append(Sample("GET", 101.999, 102.0, 102.5, True))
        steps = timed.ladder_steps(workload, samples, 100.0, 2.0)
        self.assertEqual([s["scheduled"] for s in steps], [41, 40, 40])
        self.assertEqual(steps[0]["completed_in_step"], 40)
        self.assertAlmostEqual(steps[0]["achieved_ops_per_s"], 200 * 40 / 41)
        self.assertAlmostEqual(steps[1]["gen_late_p95_ms"], 1.0, places=6)
        self.assertEqual(steps[1]["verdict"], "ok")


def _parse(frame: bytes) -> "list[str]":
    parts = frame.split(b"\r\n")
    return [p.decode() for p in parts[2::2]]


class _FakeDirectory:
    """What a correct server does with the four verbs."""

    def __init__(self) -> None:
        self.data: "dict[str, str]" = {}

    def apply(self, frame: bytes):
        verb, key, *value = _parse(frame)
        if verb == "GET":
            return self.data.get(key)
        if verb == "SET":
            self.data[key] = value[0]
            return "OK"
        if verb == "INSERT":
            if key in self.data:
                return protocol.ReplyError("KEYEXISTS", key)
            self.data[key] = value[0]
            return "OK"
        if key not in self.data:
            return protocol.ReplyError("NOTFOUND", key)
        del self.data[key]
        return "OK"


class ConnectionModels(unittest.TestCase):
    def test_every_predicted_reply_is_what_a_correct_server_says(self):
        for workload in WORKLOADS.values():
            for conn in range(workload.connections):
                model = ConnectionModel(workload, seed=5, conn=conn)
                server = _FakeDirectory()
                ops = model.preload_ops()
                self.assertEqual(len(ops), model.keys // 2)
                ops += [model.next_op() for _ in range(3000)]
                ops += model.readback_ops(256)
                for op in ops:
                    self.assertTrue(
                        reply_matches(op, server.apply(op.frame)), op
                    )
                self.assertEqual(model.size(), len(server.data))

    def test_keys_are_disjoint_across_connections(self):
        workload = WORKLOADS["pipelined_reads"]
        seen = []
        for conn in range(2):
            model = ConnectionModel(workload, 1, conn)
            seen.append({_parse(model.next_op().frame)[1] for _ in range(2000)})
        self.assertFalse(seen[0] & seen[1])
        self.assertTrue(all(k.startswith("c0k") for k in seen[0]))

    def test_the_mix_is_exact_on_any_seed(self):
        workload = WORKLOADS["delete_churn"]
        for seed in (1, 2, 99):
            model = ConnectionModel(workload, seed, 0)
            ops = [model.next_op() for _ in range(400)]
            verbs = Counter(op.verb for op in ops)
            self.assertEqual(
                [verbs[v] for v in estimators.VERBS],
                [4 * weight for weight in workload.mix],
            )
            refused = sum(1 for op in ops if op.verb == "DELETE" and op.expect_error)
            self.assertEqual(refused, 180 // CONTRARY_EVERY["DELETE"])

    def test_same_seed_same_stream_other_seed_other_stream(self):
        workload = WORKLOADS["serial_verbs"]

        def stream(seed):
            model = ConnectionModel(workload, seed, 0)
            return [model.next_op().frame for _ in range(200)]

        self.assertEqual(stream(3), stream(3))
        self.assertNotEqual(stream(3), stream(4))

    def test_oracle_rejects_wrong_replies(self):
        get = Op("GET", b"", "v1")
        self.assertTrue(reply_matches(get, "v1"))
        self.assertFalse(reply_matches(get, "v2"))
        self.assertFalse(reply_matches(get, None))
        refused = Op("INSERT", b"", "KEYEXISTS", expect_error=True)
        self.assertTrue(reply_matches(refused, protocol.ReplyError("KEYEXISTS", "k")))
        self.assertFalse(reply_matches(refused, "OK"))
        self.assertFalse(reply_matches(refused, protocol.ReplyError("NOTFOUND", "k")))
        ok = Op("DELETE", b"", "OK")
        self.assertFalse(reply_matches(ok, protocol.ReplyError("NOTFOUND", "k")))
        bug = protocol.ReplyError("ERR", "internal KeyError: 'x'")
        self.assertTrue(is_internal_error(bug))
        tally = Tally()
        self.assertFalse(tally.check(ok, bug))
        self.assertEqual((tally.wrong, tally.internal_errors, tally.failed), (1, 1, 1))


class SpanTiling(unittest.TestCase):
    def test_self_times_tile_a_hand_built_tree(self):
        # client 0..10; dispatch 1..9; shard work 2..8 holding two rpcs
        # (2.5..4, 5..7.5); a wire span inside the first rpc.
        records = [
            ("dispatch", "front_door", 1.0, 9.0),
            ("on_shard", "queue_wait", 1.5, 8.5),
            ("suite.op", "suite", 2.0, 8.0),
            ("rpc.a", "rpc", 2.5, 4.0),
            ("wire.dump", "wire", 3.0, 3.5),
            ("rpc.b", "rpc", 5.0, 7.5),
            ("rep.lookup", "rep", 5.5, 6.5),
            ("store.lookup", "store_wal_locks", 5.75, 6.25),
            ("stray", "rpc", 20.0, 21.0),  # outside any client op
        ]
        kept, by_category, clipped = spans.tile(records, [(0.0, 10.0)])
        self.assertEqual(clipped, 0.0)
        self.assertEqual(len(kept), 9)
        self.assertEqual(
            by_category,
            {
                "front_door": 2.0 + 1.0, "queue_wait": 1.0, "suite": 2.0,
                "rpc": 1.0 + 1.5, "wire": 0.5, "rep": 0.5,
                "store_wal_locks": 0.5,
            },
        )
        self.assertAlmostEqual(sum(by_category.values()), 10.0)
        names = [s.name for s in kept]
        parent = {s.name: kept[s.parent].name for s in kept if s.parent >= 0}
        self.assertEqual(names[0], "client_op")
        self.assertEqual(parent["wire.dump"], "rpc.a")
        self.assertEqual(parent["store.lookup"], "rep.lookup")
        self.assertEqual(parent["rpc.b"], "suite.op")
        self.assertTrue(all(s.op == 0 for s in kept))

    def test_a_child_outliving_its_parent_is_clipped_and_counted(self):
        records = [
            ("on_shard", "queue_wait", 1.0, 5.0),
            ("run_single", "front_door", 2.0, 5.5),  # read its clock late
        ]
        kept, by_category, clipped = spans.tile(records, [(0.0, 6.0)])
        self.assertAlmostEqual(clipped, 0.5)
        self.assertAlmostEqual(sum(by_category.values()), 6.0)
        self.assertAlmostEqual(by_category["queue_wait"], 1.0)

    def test_each_op_gets_its_own_spans(self):
        records = [("a", "suite", 0.2, 0.8), ("b", "suite", 1.2, 1.8)]
        kept, _, _ = spans.tile(records, [(0.0, 1.0), (1.0, 2.0)])
        self.assertEqual({s.name: s.op for s in kept}["b"], 1)

    def test_wrappers_come_off(self):
        recorder = spans.Recorder()
        before = spans.wire.dump
        recorder.install()
        try:
            self.assertIsNot(spans.wire.dump, before)
            spans.wire.dump(spans.wire.encode_value({"a": (1, 2)}))
            names = [r[0] for r in recorder.records]
            # encode_value recursed three levels; only the outermost is a span
            self.assertEqual(names, ["wire.encode_value", "wire.dump"])
        finally:
            recorder.uninstall()
        self.assertIs(spans.wire.dump, before)


class CallBuckets(unittest.TestCase):
    def test_files_map_to_layers(self):
        cases = {
            "/x/src/repro/service/server.py": "service.server",
            "/x/src/repro/service/aio.py": "service.aio",
            "/x/src/repro/service/wire.py": "service.wire",
            "/x/src/repro/service/protocol.py": "service.protocol",
            "/x/src/repro/shard/maps.py": "shard",
            "/x/src/repro/core/suite.py": "core.suite",
            "/x/src/repro/core/batch.py": "core.batch",
            "/x/src/repro/core/representative.py": "core.representative",
            "/x/src/repro/core/quorum.py": "repro.other",
            "/x/src/repro/txn/twopc.py": "txn",
            "/x/src/repro/storage/wal.py": "storage",
            "/x/src/repro/obs/live.py": "obs",
            "/usr/lib/python3.11/asyncio/streams.py": "asyncio",
            "/usr/lib/python3.11/selectors.py": "asyncio",
            "/usr/lib/python3.11/json/encoder.py": "json",
            "/usr/lib/python3.11/threading.py": "threads",
            "/usr/lib/python3.11/concurrent/futures/thread.py": "threads",
            "/usr/lib/python3.11/socket.py": "stdlib.other",
            "C:\\x\\src\\repro\\obs\\spans.py": "obs",
            "/x/benchmarks/perf/counted.py": "harness",
        }
        for path, bucket in cases.items():
            self.assertEqual(bucket_of(path), bucket, path)
        self.assertTrue(set(cases.values()) - {"harness"} <= set(BUCKETS))


class Contract(unittest.TestCase):
    """``BENCHMARK.json`` is ``spec.py`` written out, inside the driver's limits."""

    NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

    def test_the_committed_file_is_the_spec(self):
        path = ROOT / "BENCHMARK.json"
        self.assertEqual(json.loads(path.read_text()), spec.benchmark_json())
        self.assertLess(path.stat().st_size, 64 * 1024)

    def test_names_units_and_counts(self):
        doc = spec.benchmark_json()
        self.assertEqual(
            sorted(doc),
            ["command", "end_to_end", "paths", "per_layer", "run_seconds",
             "workloads"],
        )
        names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        names += [w["name"] for w in doc["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for metric in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(metric["unit"], self.UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        for metric in doc["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(
            [(m["unit"], m["better"]) for m in setup], [("s", "lower")]
        )
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        self.assertTrue(1 <= len(doc["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(doc["per_layer"]) <= 128)
        for workload in doc["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        runs = 4 + 22 * len(doc["workloads"])
        self.assertTrue(1 <= doc["run_seconds"] <= 60)
        # every run must fit the driver's total budget with room to spare
        self.assertLess(runs * (doc["run_seconds"] + 20), 3420)


if __name__ == "__main__":
    unittest.main()
