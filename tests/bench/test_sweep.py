"""The sweep bench: both workloads, and the exact-agreement cross-checks."""

from argparse import Namespace

import numpy as np
import pytest

from repro.bench import sweep
from repro.core.sweep import TraceSweep

SCALE = 0.01


def test_tiny_sweep_bench_times_both_workloads(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", str(SCALE))
    payload = sweep.run(Namespace(reps=1))
    assert payload["benchmark"] == "sweep_engine"
    assert payload["benchmarks"] == list(sweep.BENCHMARKS)
    assert payload["scale"] == SCALE
    figures, governor = payload["results"]
    assert figures["workload"] == "figures_grid"
    assert figures["traces"] == 2 * len(sweep.BENCHMARKS)
    assert figures["predictions"] == len(payload["predictors"]) * 6 * 4
    assert governor["workload"] == "governor_quantum"
    assert governor["quanta"] > 0
    assert governor["candidates"] == 25
    for entry in (figures, governor):
        assert entry["scalar_wall_s"] == entry["scalar_wall_stats_s"]["min"]
        assert entry["sweep_wall_s"] == entry["sweep_wall_stats_s"]["min"]
        assert entry["speedup"] == pytest.approx(
            entry["scalar_wall_s"] / entry["sweep_wall_s"]
        )
    assert payload["pipeline_speedup"] > 0
    assert "pipeline speedup" in sweep.summary(payload)


def test_one_ulp_of_sweep_skew_exits_fatal(monkeypatch):
    real_predict = TraceSweep.predict

    def skewed(self, predictor, targets, base_freq_ghz=None):
        values = real_predict(self, predictor, targets, base_freq_ghz)
        return [float(np.nextafter(values[0], np.inf))] + list(values[1:])

    monkeypatch.setattr(TraceSweep, "predict", skewed)
    with pytest.raises(SystemExit, match="FATAL: sweep and scalar figure"):
        sweep.bench_payload(scale=SCALE, reps=1)


def test_diverging_governor_decisions_exit_fatal(monkeypatch):
    spec, config, steps = sweep.governor_inputs(["lusearch"], SCALE)
    real_session = sweep.EnergyManagerSession

    def session(*args, sweep=True, **kwargs):
        # The swept session loses its last decision.
        made = real_session(*args, sweep=sweep, **kwargs)
        if sweep:
            made.step = lambda record, epochs, _step=made.step: (
                None if record is steps[-1][0] else _step(record, epochs)
            )
        return made

    monkeypatch.setattr(sweep, "EnergyManagerSession", session)
    with pytest.raises(SystemExit, match="FATAL: sweep and scalar governor"):
        sweep.time_governor(spec, config, steps, reps=1)
