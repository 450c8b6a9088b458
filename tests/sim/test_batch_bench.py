"""The pinned batched-simulation benchmark corpus and its JSON payload.

These cover :mod:`repro.bench.batch`; ``tests/bench/test_batch.py`` holds
the rest of that module's tests.
"""

import pytest

from repro.bench.batch import (
    CORPUS_FREQS,
    bench_payload,
    build_corpus,
    corpus_families,
    time_corpus,
)

SCALE = 0.02  # a few units per family: fast, still the full path


def test_corpus_is_four_families_by_eight_freqs():
    spec, programs, instances = build_corpus(SCALE)
    assert len(corpus_families()) == 4
    assert len(CORPUS_FREQS) == 8
    assert len(programs) == 4
    assert len(instances) == 32
    assert len({p.name for p in programs}) == 4
    # Pinned for the differential: every family is GC-free and lock-free.
    for config in corpus_families():
        assert config.alloc_bytes_per_unit == 0
        assert config.cs_probability == 0.0
    # Every spec frequency is a valid set point.
    for freq in CORPUS_FREQS:
        assert freq in spec.frequencies()
    # Lanes carry stable labels and all share the one spec object.
    assert instances[0].label == f"{programs[0].name}@{CORPUS_FREQS[0]}"
    assert all(instance.spec is spec for instance in instances)


def test_scale_shrinks_the_corpus():
    full = corpus_families()[0]
    assert full.scaled(SCALE).n_units < full.n_units
    assert full.scaled(1e-9).n_units == 8  # floor, never empty


def test_time_corpus_checks_identity_and_reports_walls():
    spec, _, instances = build_corpus(SCALE)
    sequential_walls, batched_walls = time_corpus(spec, instances, reps=2)
    assert len(sequential_walls) == 2
    assert len(batched_walls) == 2
    assert all(wall > 0 for wall in sequential_walls + batched_walls)


def test_payload_schema_matches_bench_convention():
    payload = bench_payload(scale=SCALE, reps=1)
    assert payload["benchmark"] == "sim_batch"
    assert payload["instances"] == 32
    assert payload["families"] == [
        config.name for config in corpus_families()
    ]
    (entry,) = payload["results"]
    assert entry["workload"] == "batch_corpus_32"
    for side in ("sequential", "batch"):
        stats = entry[f"{side}_wall_stats_s"]
        assert set(stats) == {"min", "median", "mean"}
        assert stats["min"] <= stats["median"]
        assert stats["min"] <= stats["mean"]
        assert entry[f"{side}_wall_s"] == stats["min"]
    assert entry["speedup"] == pytest.approx(
        entry["sequential_wall_s"] / entry["batch_wall_s"]
    )
