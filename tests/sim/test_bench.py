"""The pinned hot-path benchmark workload and its JSON payload.

These cover :mod:`repro.bench.hotpath`; ``tests/bench/test_hotpath.py``
holds the rest of that module's tests.
"""

import pytest

from repro.bench.harness import wall_stats
from repro.bench.hotpath import (
    BENCH_FREQ_GHZ,
    SEED_WALL_S,
    bench_payload,
    hotpath_stress_config,
    run_bench,
)

SCALE = 0.001  # a few hundred units: fast, still exercises the full path


def test_config_scales_units():
    full = hotpath_stress_config(1.0)
    tiny = hotpath_stress_config(SCALE)
    assert tiny.n_units < full.n_units
    assert tiny.n_units >= 8
    assert hotpath_stress_config(0.0).n_units == 8  # floor, never empty
    # Everything except length is pinned: same seed, threads, shape.
    assert tiny.seed == full.seed
    assert tiny.n_threads == full.n_threads
    assert tiny.unit_insns == full.unit_insns


def test_run_bench_reports_all_three_wall_statistics():
    entry = run_bench("fast", scale=SCALE, reps=3)
    stats = entry["wall_stats_s"]
    assert set(stats) == {"min", "median", "mean"}
    assert stats["min"] <= stats["median"]
    assert stats["min"] <= stats["mean"]
    # The headline wall time is the minimum, explicitly.
    assert entry["wall_s"] == stats["min"] == min(entry["walls_s"])
    assert entry["reps"] == 3
    assert entry["events"] > 0
    assert entry["segments"] > 0
    assert entry["events_per_sec"] == entry["events"] / entry["wall_s"]


def test_wall_stats_helper():
    stats = wall_stats([3.0, 1.0, 2.0])
    assert stats == {"min": 1.0, "median": 2.0, "mean": 2.0}


def test_engines_simulate_identical_workloads():
    fast = run_bench("fast", scale=SCALE, reps=1)
    classic = run_bench("classic", scale=SCALE, reps=1)
    assert fast["events"] == classic["events"]
    assert fast["segments"] == classic["segments"]
    assert fast["simulated_ns"] == classic["simulated_ns"]


def test_bench_payload_shape():
    payload = bench_payload(scale=SCALE, reps=1, engines=("fast",))
    assert payload["workload"] == "hotpath_stress"
    assert payload["freq_ghz"] == BENCH_FREQ_GHZ
    assert payload["scales"] == [SCALE]
    assert len(payload["results"]) == 1
    entry = payload["results"][0]
    assert entry["engine"] == "fast"
    # The seed-engine wall applies only to full-scale entries.
    assert "speedup_vs_baseline" not in entry
    assert payload["baseline_wall_s"] == SEED_WALL_S


def test_bench_payload_full_scale_speedup_field():
    payload = bench_payload(scale=SCALE, reps=1, engines=("classic",))
    with pytest.raises(KeyError):
        payload["results"][0]["speedup_vs_baseline"]
