"""The hot-path bench's entry point and seed-engine speedup field.

The workload, timing and payload-shape tests of :mod:`repro.bench.hotpath`
live in ``tests/sim/test_bench.py``.
"""

from argparse import Namespace

from repro.bench import hotpath
from repro.bench.hotpath import SEED_WALL_S, bench_payload

SCALE = 0.001


def test_full_scale_entries_record_the_seed_speedup(monkeypatch):
    monkeypatch.setattr(
        hotpath, "run_bench",
        lambda engine, scale, reps: {"engine": engine, "scale": scale,
                                     "wall_s": 0.5},
    )
    payload = bench_payload(scale=1.0, reps=1)
    assert [e["engine"] for e in payload["results"]] == ["fast", "classic"]
    for entry in payload["results"]:
        assert entry["speedup_vs_baseline"] == SEED_WALL_S / 0.5


def test_run_reads_scale_from_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", str(SCALE))
    payload = hotpath.run(Namespace(reps=1))
    assert payload["scales"] == [SCALE]
    assert {e["engine"] for e in payload["results"]} == {"fast", "classic"}
    lines = hotpath.summary(payload).splitlines()
    assert len(lines) == 2
    assert "events/s" in lines[0]
