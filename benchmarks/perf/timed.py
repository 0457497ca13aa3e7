"""The timed plane: a real ``repro serve`` process, driven from outside.

One *round* boots a fresh server the way a user does, preloads it, warms
it, measures a window, reads the model back, and tears the server down.
Everything a round reports is measured from outside the server: client
clocks, ``/proc/<pid>`` CPU and memory, and the server's own ``STATS``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from benchmarks.perf import estimators
from benchmarks.perf.driver import Connection, Sample, Tally, admin, admin_json
from benchmarks.perf.workloads import LADDER_READ_RATE, Workload

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(__file__).resolve().with_name("run.py")
_TICKS = os.sysconf("SC_CLK_TCK")

#: Closed-loop warm-up before the measured window (excluded), seconds.
WARM_S = 1.5
#: Open-loop warm-up at the first step's rate (excluded), seconds.
LADDER_WARM_S = 1.0

SERVE_ARGS = ["--shards", "4", "--config", "3-2-2", "--seed", "0"]


def child_env() -> "dict[str, str]":
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")
    return env


def stop_process(proc: subprocess.Popen) -> None:
    """SIGTERM, then SIGKILL if it has not gone within five seconds."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port, logs captured."""

    def __init__(self, workdir: Path, tag: str) -> None:
        self.ready = workdir / f"{tag}.ready"
        self.out_path = workdir / f"{tag}.server.out"
        self.err_path = workdir / f"{tag}.server.err"
        self.proc: "subprocess.Popen | None" = None
        self.host = ""
        self.port = 0

    def start(self) -> None:
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *SERVE_ARGS,
                 "--ready-file", str(self.ready)],
                env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=out, stderr=err,
            )
        deadline = time.monotonic() + 60
        while True:
            try:
                text = self.ready.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    "server did not come up: " + self.err_path.read_text()[-2000:]
                )
            time.sleep(0.002)
        self.host, port = text.split()
        self.port = int(port)

    def cpu_seconds(self) -> float:
        """utime + stime of the server process, all threads."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmRSS in /proc status")

    def stop(self) -> str:
        """Stop the server; returns what it wrote to stderr."""
        if self.proc is not None:
            stop_process(self.proc)
        self.ready.unlink(missing_ok=True)
        if not self.err_path.exists():
            return ""
        return self.err_path.read_text(errors="replace")


class Calibrator:
    """A child process timing a fixed spin loop every 100 ms.

    Reported so a noisy round is visible; never used to rescale.  It is
    a process of its own so its spin never holds the client's GIL.
    """

    def __init__(self, workdir: Path, tag: str) -> None:
        self.path = workdir / f"{tag}.cal"
        self.proc: "subprocess.Popen | None" = None

    def start(self) -> None:
        with open(self.path, "wb") as out:
            self.proc = subprocess.Popen(
                [sys.executable, str(RUN_PY.with_name("calibrate.py"))],
                stdin=subprocess.DEVNULL, stdout=out,
                stderr=subprocess.DEVNULL,
            )

    def stop(self) -> None:
        if self.proc is not None:
            stop_process(self.proc)

    def summary(self, begin: float, end: float) -> "dict[str, float]":
        """Percentiles of the samples taken inside ``[begin, end]``."""
        values = []
        for line in self.path.read_text().splitlines():
            at, _, ms = line.partition(" ")
            if ms and begin <= float(at) <= end:
                values.append(float(ms))
        values.sort()
        return {
            "host.cal_ms_p50": estimators.percentile(values, 50),
            "host.cal_ms_p95": estimators.percentile(values, 95),
        }


@dataclass
class Window:
    """What one measured window hands back to its round."""

    metrics: "dict[str, float]"
    #: Set-up ends, and measuring starts, at this instant.
    measured_from: float
    #: The calibrator's samples are read over this interval.
    cal_span: "tuple[float, float]"
    #: ``STATS``, when the window had to read it early (the ladder).
    stats: Any = None
    #: Per-step results (open loop only); kept in the round file.
    ladder: "list[dict[str, Any]]" = field(default_factory=list)


def _window(samples: "list[Sample]", begin: float, end: float) -> "list[Sample]":
    return [s for s in samples if begin <= s.done <= end]


def _exec_p50_ms(stats: "dict[str, Any]") -> float:
    """The server's own view of an op: shard-thread execution p50."""
    p50s = [
        shard["latency"]["p50"] * 1e3
        for shard in stats["per_shard"].values()
        if shard["latency"].get("n")
    ]
    return statistics.median(p50s)


async def _probe(server: ServerProcess, instants: "list[float]") -> "list[float]":
    """Server CPU seconds read at each of ``instants`` (perf_counter)."""
    readings = []
    for instant in instants:
        await asyncio.sleep(max(0.0, instant - time.perf_counter()))
        readings.append(server.cpu_seconds())
    return readings


async def _closed_window(
    workload: Workload, server: ServerProcess, conns: "list[Connection]",
    measure_s: float, warm_s: float,
) -> Window:
    begin = time.perf_counter() + warm_s
    end = begin + measure_s
    cpu, *_ = await asyncio.gather(
        _probe(server, [begin, end]),
        *(c.closed_loop(workload.depth, end, None) for c in conns),
    )
    rss = server.rss_mb()
    done = [s for c in conns for s in _window(c.samples, begin, end)]
    good = [s for s in done if s.ok]
    metrics = estimators.latency_summary((s.verb, s.done - s.start) for s in good)
    rate = len(good) / measure_s
    metrics.update(
        ops_per_s=rate,
        max_rate_ok=rate,
        server_cpu_ms_per_op=(cpu[1] - cpu[0]) * 1e3 / max(1, len(done)),
        server_rss_mb=rss,
        gen_late_p95_ms=0.0,
    )
    return Window(metrics, begin, (begin, end))


def ladder_steps(
    workload: Workload, samples: "list[Sample]", first: float, step_s: float,
) -> "list[dict[str, Any]]":
    """Per-step results from ``first``, the first step's start; a sample
    belongs to the step it was *scheduled* in."""
    steps = []
    for i, rate in enumerate(workload.rates):
        begin = first + i * step_s
        end = begin + step_s
        mine = [s for s in samples if begin <= s.start < end]
        if not mine:
            raise RuntimeError(f"no arrivals in the {rate} ops/s step")
        in_step = sum(1 for s in mine if s.done <= end)
        good = [s for s in mine if s.ok]
        late = sorted((s.sent - s.start) * 1e3 for s in mine)
        step = estimators.latency_summary(
            (s.verb, s.done - s.start) for s in good
        )
        step.update(
            offered=rate,
            scheduled=len(mine),
            completed_in_step=in_step,
            # The offered rate times the share completed inside the step:
            # the Poisson draw's own count noise (a property of the seed,
            # not of the server) cancels out.
            achieved_ops_per_s=rate * in_step / len(mine),
            failed_share=(len(mine) - len(good)) / len(mine),
            gen_late_p95_ms=estimators.percentile(late, 95),
        )
        step["verdict"] = estimators.step_verdict(step)
        steps.append(step)
    return steps


async def _open_window(
    workload: Workload, server: ServerProcess, conns: "list[Connection]",
    measure_s: float, warm_s: float,
) -> Window:
    step_s = measure_s / len(workload.rates)
    share = len(conns)
    warm_s = min(warm_s, LADDER_WARM_S)
    plan = [(workload.rates[0] / share, warm_s)] + [
        (rate / share, step_s) for rate in workload.rates
    ]
    t0 = time.perf_counter() + 0.05
    edges = [t0 + warm_s + i * step_s for i in range(len(workload.rates) + 1)]
    at = workload.rates.index(LADDER_READ_RATE)

    async def stats_after_read_step() -> Any:
        # The server's latency window cannot be cut by step afterwards,
        # so it is read while it still holds nothing past the read step.
        await asyncio.sleep(max(0.0, edges[at + 1] - time.perf_counter()))
        return await admin_json(server.host, server.port, "STATS")

    cpu, stats, *_ = await asyncio.gather(
        _probe(server, edges), stats_after_read_step(),
        *(c.open_loop(t0, plan) for c in conns),
    )
    rss = server.rss_mb()
    samples = [s for c in conns for s in c.samples]
    steps = ladder_steps(workload, samples, edges[0], step_s)
    read = steps[at]
    metrics = {
        name: value for name, value in read.items()
        if name.endswith(("_p50_ms", "_p95_ms", "_samples"))
        and not name.startswith("gen_")
    }
    metrics.update(
        ops_per_s=read["achieved_ops_per_s"],
        max_rate_ok=estimators.max_rate_ok(steps)[1],
        server_cpu_ms_per_op=(cpu[at + 1] - cpu[at]) * 1e3
        / max(1, read["completed_in_step"]),
        server_rss_mb=rss,
        gen_late_p95_ms=max(s["gen_late_p95_ms"] for s in steps),
    )
    return Window(metrics, edges[0], (edges[0], edges[-1]), stats, steps)


async def _round(
    workload: Workload, seed: int, server: ServerProcess,
    calibrator: Calibrator, started: float, measure_s: float, warm_s: float,
    check_size: bool,
) -> "tuple[Window, Tally]":
    conns = [Connection(workload, seed, i) for i in range(workload.connections)]
    for conn in conns:
        await conn.open(server.host, server.port)
    await asyncio.gather(*(c.preload() for c in conns))
    boot_preload_s = time.perf_counter() - started
    # Only now: a third interpreter starting up beside the server's boot
    # would be timed as set-up on a two-core host.
    calibrator.start()
    measure = _open_window if workload.open_loop else _closed_window
    window = await measure(workload, server, conns, measure_s, warm_s)
    metrics = window.metrics
    # Set-up is everything before the first measured op, warm-up included:
    # see README.md, "What is gated".
    metrics["setup_s"] = window.measured_from - started
    metrics["boot_preload_s"] = boot_preload_s
    stats = window.stats or await admin_json(server.host, server.port, "STATS")
    metrics["server_exec_p50_ms"] = _exec_p50_ms(stats)
    metrics["front_queue_ms_p50"] = (
        metrics["lat_p50_ms"] - metrics["server_exec_p50_ms"]
    )
    # The oracle's second look, outside the timed window.
    await asyncio.gather(*(c.readback() for c in conns))
    tally = Tally()
    if check_size:
        # SIZE is an O(n) quorum walk, so it is asked once per invocation.
        tally.attempted += 1
        size = await admin(server.host, server.port, "SIZE")
        expected = sum(c.model.size() for c in conns)
        if size != expected:
            tally.wrong += 1
            tally.examples.append(f"SIZE: expected {expected}, got {size!r}")
    for conn in conns:
        tally.merge(conn.tally)
        await conn.close()
    metrics["failed_share"] = tally.failed / max(1, tally.attempted)
    return window, tally


def run_round(
    workload: Workload, seed: int, workdir: Path, tag: str, measure_s: float,
    warm_s: float = WARM_S, check_size: bool = False,
) -> "tuple[dict[str, float], Tally]":
    """Boot, preload, warm, measure, read back, tear down: one round."""
    calibrator = Calibrator(workdir, tag)
    server = ServerProcess(workdir, tag)
    started = time.perf_counter()
    try:
        server.start()
        window, tally = asyncio.run(
            _round(
                workload, seed, server, calibrator, started, measure_s,
                warm_s, check_size,
            )
        )
    finally:
        stderr = server.stop()
        calibrator.stop()
    if "Traceback" in stderr:
        tally.wrong += 1
        tally.examples.append("server traceback: " + stderr[-400:])
    metrics = window.metrics
    metrics.update(calibrator.summary(*window.cal_span))
    (workdir / f"{tag}.round.json").write_text(
        json.dumps({"metrics": metrics, "ladder": window.ladder}, indent=1)
    )
    return metrics, tally
