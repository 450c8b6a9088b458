"""The one gate rule: every bound of the gate table, both sides of it."""

import json
from pathlib import Path

import pytest

from repro.bench.gates import GATES, OPTIONS, check, resolve

ROOT = Path(__file__).resolve().parents[2]


def hotpath(eps):
    return {"results": [
        {"engine": "fast", "scale": 0.2, "events_per_sec": eps},
        {"engine": "classic", "scale": 0.2, "events_per_sec": 1.0},
    ]}


def batch(speedup):
    return {"results": [{"workload": "batch_corpus_32", "speedup": speedup}]}


def sweep(figures, governor):
    return {"results": [
        {"workload": "figures_grid", "speedup": figures},
        {"workload": "governor_quantum", "speedup": governor},
    ]}


def fleet(cold, warm):
    return {"cold_speedup": cold, "warm_speedup": warm}


def serve(rps, errors=0, p99=1.0, miss=0.0, ratio=None):
    payload = {
        "req_per_s": rps, "errors": errors, "latency_ms": {"p99": p99},
        "open_loop": {"deadline_miss_rate": miss},
    }
    if ratio is not None:
        payload["throughput_ratio"] = ratio
    return payload


# (bench, payload, baseline, limits, fails)
CASES = {
    # hotpath: ratio 0.70 only.
    "hotpath-ratio-inside": ("hotpath", hotpath(701), hotpath(1000), {},
                             False),
    "hotpath-ratio-outside": ("hotpath", hotpath(699), hotpath(1000), {},
                              True),
    # batch: ratio 0.70 and abs 3.0 — fails only below both.
    "batch-ratio-inside": ("batch", batch(2.81), batch(4.0), {}, False),
    "batch-ratio-outside": ("batch", batch(2.79), batch(4.0), {}, True),
    "batch-abs-inside": ("batch", batch(3.01), batch(10.0), {}, False),
    "batch-abs-outside": ("batch", batch(2.99), batch(10.0), {}, True),
    "batch-mixed-0.69-3.1": ("batch", batch(3.1), batch(3.1 / 0.69), {},
                             False),
    # sweep figures_grid: ratio 0.70 and abs 3.0.
    "figures-ratio-inside": ("sweep", sweep(2.81, 50), sweep(4.0, 50), {},
                             False),
    "figures-ratio-outside": ("sweep", sweep(2.79, 50), sweep(4.0, 50), {},
                              True),
    "figures-abs-inside": ("sweep", sweep(3.01, 50), sweep(10.0, 50), {},
                           False),
    "figures-abs-outside": ("sweep", sweep(2.99, 50), sweep(10.0, 50), {},
                            True),
    # sweep governor_quantum: ratio 0.70 and abs 5.0.
    "governor-ratio-inside": ("sweep", sweep(50, 4.95), sweep(50, 7.0), {},
                              False),
    "governor-ratio-outside": ("sweep", sweep(50, 4.89), sweep(50, 7.0), {},
                               True),
    "governor-abs-inside": ("sweep", sweep(50, 5.01), sweep(50, 10.0), {},
                            False),
    "governor-abs-outside": ("sweep", sweep(50, 4.99), sweep(50, 10.0), {},
                             True),
    # fleet: abs only; the ratio is printed, never a bound.
    "fleet-cold-inside": ("fleet", fleet(3.01, 9), fleet(3.0, 9), {}, False),
    "fleet-cold-outside": ("fleet", fleet(2.99, 9), fleet(2.99, 9), {}, True),
    "fleet-cold-3.1-ratio-0.5": ("fleet", fleet(3.1, 9), fleet(6.2, 9), {},
                                 False),
    "fleet-warm-inside": ("fleet", fleet(9, 5.01), fleet(9, 5.0), {}, False),
    "fleet-warm-outside": ("fleet", fleet(9, 4.99), fleet(9, 4.99), {}, True),
    # serve req_per_s: two gates, ratio 0.50 and abs 1000 — either fails.
    "serve-ratio-inside": ("serve", serve(5001), serve(10000), {}, False),
    "serve-ratio-outside": ("serve", serve(4999), serve(10000), {}, True),
    "serve-abs-inside": ("serve", serve(1001), serve(1001), {}, False),
    "serve-abs-outside": ("serve", serve(999), serve(999), {}, True),
    "serve-ratio-0.9-999rps": ("serve", serve(999), serve(1110), {}, True),
    # serve errors: must be 0, with or without a baseline.
    "serve-errors-none": ("serve", serve(5000, errors=0), None, {}, False),
    "serve-errors-one": ("serve", serve(5000, errors=1), None, {}, True),
    # serve option bounds: apply when set, with or without a baseline.
    "p99-inside": ("serve", serve(10, p99=9.99), None,
                   {"max_p99_ms": 10.0}, False),
    "p99-outside": ("serve", serve(10, p99=10.01), None,
                    {"max_p99_ms": 10.0}, True),
    "p99-unset": ("serve", serve(10, p99=500.0), None, {}, False),
    "miss-inside": ("serve", serve(10, miss=0.0199), None,
                    {"max_miss_rate": 0.02}, False),
    "miss-outside": ("serve", serve(10, miss=0.0201), None,
                     {"max_miss_rate": 0.02}, True),
    "single-ratio-inside": ("serve", serve(10, ratio=2.51), None,
                            {"min_ratio": 2.5}, False),
    "single-ratio-outside": ("serve", serve(10, ratio=2.49), None,
                             {"min_ratio": 2.5}, True),
    "single-ratio-not-measured": ("serve", serve(10), None,
                                  {"min_ratio": 2.5}, True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_gate_table_verdicts(case):
    bench, payload, baseline, limits, fails = CASES[case]
    assert bool(check(bench, payload, baseline, limits)) is fails


@pytest.mark.parametrize("bench", sorted(GATES))
def test_committed_baselines_pass_against_themselves(bench):
    committed = json.loads((ROOT / f"BENCH_{bench}.json").read_text())
    assert check(bench, committed, committed) == []


def test_baseline_gates_wait_for_a_baseline():
    assert check("batch", batch(0.1), None) == []
    assert check("fleet", fleet(0.1, 0.1), None) == []


def test_missing_baseline_metric_fails_and_names_it():
    # A renamed workload used to pass unchecked; now it is a failure.
    baseline = {"results": [{"workload": "figures_grid", "speedup": 10.0}]}
    failures = check("sweep", sweep(9.0, 9.0), baseline)
    assert len(failures) == 1
    assert "governor_quantum" in failures[0]
    assert "baseline" in failures[0]


def test_missing_payload_metric_fails_and_names_it():
    failures = check("fleet", {"cold_speedup": 9.0}, fleet(9.0, 9.0))
    assert failures == ["fleet warm_speedup is missing from the payload"]


def test_every_gate_line_prints_its_ratio(capsys):
    check("fleet", fleet(3.1, 9.0), fleet(6.2, 9.0))
    out = capsys.readouterr().out
    assert "cold_speedup: 3.1 vs baseline 6.2 = 0.50" in out


def test_options_are_the_serve_bounds():
    assert set(OPTIONS) == {"max_p99_ms", "max_miss_rate", "min_ratio"}


def test_resolve_selects_the_smallest_scale_entry():
    payload = {"results": [
        {"engine": "fast", "scale": 1.0, "events_per_sec": 900.0},
        {"engine": "fast", "scale": 0.2, "events_per_sec": 800.0},
        {"engine": "classic", "scale": 0.1, "events_per_sec": 200.0},
    ]}
    assert resolve(payload, "results[engine=fast].events_per_sec") == 800.0
    with pytest.raises(LookupError):
        resolve(payload, "results[engine=turbo].events_per_sec")
    with pytest.raises(LookupError):
        resolve(payload, "results[engine=fast].missing")
