"""The fleet bench payload: shape, identity gate, validation.

These cover :mod:`repro.bench.fleet`; ``tests/bench/test_fleet.py`` holds
the rest of that module's tests.
"""

import pytest

from repro.bench.fleet import bench_payload
from repro.common.errors import ReproError


def test_reps_must_be_positive():
    with pytest.raises(ReproError):
        bench_payload(tenants=2, seed=1, reps=0)


def test_payload_shape_and_identity_gate(tmp_path):
    payload = bench_payload(
        tenants=5, seed=3, reps=1, cache_root=str(tmp_path)
    )
    assert payload["tenants"] == 5
    assert payload["identical"] is True
    assert payload["profiles"] >= 1
    assert payload["groups"] >= 1
    assert payload["cache_entries"] == payload["profiles"]
    for phase in (
        "naive_build_s",
        "serial_build_s",
        "warm_build_s",
        "engine_s",
    ):
        stats = payload[phase]
        assert set(stats) == {"min", "median", "mean"}
        assert stats["min"] > 0.0
    for metric in (
        "cold_speedup",
        "warm_speedup",
        "cold_run_s",
        "warm_run_s",
        "tenants_per_s",
    ):
        assert payload[metric] > 0.0
    # The warm rebuild skips simulation entirely: it must beat the
    # serial cold build even at this miniature scale.
    assert payload["warm_speedup"] > 1.0
    # The cold build is the serial batched one: no parallel phase left.
    assert "parallel_build_s" not in payload
    assert "parallel_vs_serial" not in payload
