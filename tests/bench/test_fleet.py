"""The fleet bench's divergence check and entry point.

The payload-shape and validation tests of :mod:`repro.bench.fleet` live
in ``tests/fleet/test_fleet_bench.py``.
"""

import itertools
import json
from argparse import Namespace
from pathlib import Path

import pytest

from repro.bench import fleet


def test_diverging_reports_exit_fatal(monkeypatch):
    counter = itertools.count()
    monkeypatch.setattr(fleet, "report_identity_bytes",
                        lambda report: b"%d" % next(counter))
    with pytest.raises(SystemExit, match="FATAL: naive/serial/warm"):
        fleet.bench_payload(tenants=3, seed=1)


def test_run_draws_the_requested_fleet_with_the_pinned_seed(monkeypatch):
    calls = []
    monkeypatch.setattr(fleet, "bench_payload",
                        lambda **kwargs: calls.append(kwargs) or {})
    fleet.run(Namespace(tenants=192, reps=1))
    assert calls == [{"tenants": 192, "reps": 1}]
    assert fleet.SEED == 7


def test_summary_reads_the_committed_payload():
    root = Path(__file__).resolve().parents[2]
    committed = json.loads((root / "BENCH_fleet.json").read_text())
    text = fleet.summary(committed)
    assert "fleet 512 tenants -> 36 profiles in 6 groups" in text
    assert "reports identical" in text

