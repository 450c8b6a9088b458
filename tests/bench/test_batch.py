"""The batch bench's divergence check and entry point.

The corpus and payload-shape tests of :mod:`repro.bench.batch` live in
``tests/sim/test_batch_bench.py``.
"""

from argparse import Namespace

import pytest

from repro.bench import batch
from repro.bench.batch import build_corpus, time_corpus

SCALE = 0.02


def test_diverging_lanes_exit_fatal(monkeypatch):
    spec, _, instances = build_corpus(SCALE)
    real_run_batch = batch.run_batch

    class Swapped:
        def __init__(self, results):
            self.results = list(reversed(results))

    monkeypatch.setattr(batch, "run_batch",
                        lambda lanes: Swapped(real_run_batch(lanes).results))
    with pytest.raises(SystemExit, match="FATAL: batched trace diverges"):
        time_corpus(spec, instances[:2], reps=1)


def test_run_reads_scale_from_the_environment(monkeypatch):
    calls = []
    monkeypatch.setattr(batch, "bench_payload",
                        lambda **kwargs: calls.append(kwargs) or {})
    monkeypatch.setenv("REPRO_SCALE", str(SCALE))
    batch.run(Namespace(reps=2))
    assert calls == [{"scale": SCALE, "reps": 2}]


def test_summary_names_the_corpus():
    payload = {"results": [{
        "workload": "batch_corpus_32", "instances": 32,
        "sequential_wall_s": 4.0, "batch_wall_s": 1.0, "speedup": 4.0,
    }]}
    assert batch.summary(payload) == (
        " batch_corpus_32: sequential 4.000s -> batch 1.000s = 4.00x "
        "(32 instances)"
    )
