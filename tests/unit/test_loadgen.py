"""Unit tests for the load generator's configuration surface.

:class:`LoadSpec` is the one value a load run needs, and the only thing
``run_load`` takes.  The socket-driving paths themselves are exercised
end to end by the service integration tests and
``benchmarks/bench_service.py``; here we pin the pure parts —
validation and open/closed mode selection.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.service.loadgen import DEFAULT_MIX, LoadSpec, run_load


class TestLoadSpec:
    def test_defaults_are_closed_loop(self):
        spec = LoadSpec()
        assert spec.mix == DEFAULT_MIX
        assert not spec.open_loop
        assert spec.rate_points() == ()
        assert spec.pipeline == 1

    def test_rate_selects_open_loop(self):
        spec = LoadSpec(rate=500.0)
        assert spec.open_loop
        assert spec.rate_points() == (500.0,)

    def test_rates_sweep_wins_over_rate(self):
        spec = LoadSpec(rate=500.0, rates=[100, 200])
        assert spec.open_loop
        assert spec.rate_points() == (100, 200)
        assert isinstance(spec.rates, tuple)  # coerced, hashable

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            LoadSpec().ops = 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"ops": 0},
            {"connections": 0},
            {"keyspace": 0},
            {"mix": (0.5, 0.5, 0.5)},
            {"mix": (1.0, 0.0)},
            {"hot_fraction": 1.5},
            {"hot_keys": 0},
            {"pipeline": 0},
            {"rate": 0},
            {"rate": -5.0},
            {"rates": ()},
            {"rates": (100, -1)},
            {"duration": 0},
        ],
        ids=lambda bad: next(iter(bad)),
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            LoadSpec(**bad)


class TestRunLoadSurface:
    def test_spec_plus_keywords_rejected(self):
        with pytest.raises(TypeError):
            run_load(LoadSpec(), ops=10)
        with pytest.raises(TypeError):
            run_load(LoadSpec(), 7379)

    def test_unknown_legacy_option_rejected(self):
        # The host/port/keywords form is gone, not deprecated.
        with pytest.raises(TypeError):
            run_load("127.0.0.1", 7379, ops=10)
