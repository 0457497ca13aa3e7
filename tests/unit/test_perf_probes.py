"""The benchmark's probes still fit the code they are clamped onto.

``benchmarks/perf`` measures the service from outside by patching
attributes of ``src/`` by name (``spans.Recorder``, ``counted.WaveRecorder``).
A rename in ``src/`` would otherwise surface 25 s into a benchmark run,
or not until the driver rejects a PR.  Here the probes themselves are
installed and removed — read-only use of the benchmark directory — so a
name they rely on cannot go missing without tier-1 saying so at once,
and the list of names lives in one place: the probes.
"""

from __future__ import annotations

import inspect

from benchmarks.perf import counted, spans
from repro.service import server


def test_span_recorder_finds_every_name_and_restores_it():
    recorder = spans.Recorder()
    try:
        recorder.install()  # KeyError: a patched name is gone from src/
        patched = list(recorder._patched)
        assert len(patched) > 20
        for owner, attr, original in patched:
            wrapper = vars(owner)[attr]
            assert wrapper is not original, (owner, attr)
            # An ``async def`` must be wrapped as one, a plain function
            # as one: the wrappers await (or do not) accordingly.
            assert inspect.iscoroutinefunction(
                wrapper
            ) == inspect.iscoroutinefunction(original), (owner, attr)
    finally:
        recorder.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)


def test_wave_recorder_wraps_process_and_restores_it():
    original = server._ShardBatcher._process
    # The recorder calls ``original(batcher, wave)`` and counts ``len(wave)``.
    assert list(inspect.signature(original).parameters) == ["self", "wave"]
    recorder = counted.WaveRecorder()
    try:
        recorder.install()
        assert server._ShardBatcher._process is not original
    finally:
        recorder.uninstall()
    assert server._ShardBatcher._process is original
