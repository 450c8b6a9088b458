"""Tests of the repository benchmark itself (tiny sizes, seconds each).

Run from the repository root: ``python -m pytest repobench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repobench import run, spec  # noqa: E402
from repobench.spans import Span, self_times  # noqa: E402
from repobench.workloads import PaperEval  # noqa: E402


def test_every_per_layer_metric_says_what_it_should_move():
    assert list(spec.MOVES) == [m["name"] for m in spec.PER_LAYER]


def _span(span_id, start, end, parent=None):
    return Span(span_id, f"s{span_id}", "x", start, end, parent)


def test_self_time_subtracts_adjacent_children_once():
    spans = [_span(0, 0, 100), _span(1, 10, 30, 0), _span(2, 30, 50, 0)]
    assert self_times(spans) == {0: 60, 1: 20, 2: 20}


def test_self_time_counts_only_direct_children():
    spans = [_span(0, 0, 100), _span(1, 10, 60, 0), _span(2, 20, 40, 1)]
    assert self_times(spans) == {0: 50, 1: 30, 2: 20}


def test_self_time_clips_and_merges_overlapping_children():
    spans = [_span(0, 0, 100), _span(1, 10, 40, 0), _span(2, 20, 50, 0),
             _span(3, 90, 130, 0)]
    assert self_times(spans)[0] == 100 - 40 - 10


def _tiny(name, trace, tmp_path):
    return run.run_workload(name, seed=0, seconds=0, trace=trace,
                            size="tiny", out_dir=tmp_path)


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_workload_emits_every_metric_and_passes_checks(name, tmp_path):
    plain = _tiny(name, False, tmp_path)
    traced = _tiny(name, True, tmp_path)
    for outcome, table in ((plain, spec.END_TO_END), (traced, spec.PER_LAYER)):
        result = outcome["result"]
        assert result["correct"], outcome["check_failures"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in table]
        for metric in table:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    for metric in spec.END_TO_END:
        assert plain["result"]["metrics"][metric["name"]]["value"] > 0
    for metric_name, *_ in spec.REPORT_METRICS[name]:
        assert metric_name in plain["report"]
    assert (tmp_path / f"{name}-seed0.trace.json").is_file()
    assert (tmp_path / f"{name}-seed0.trace.layers.txt").is_file()


def test_simulated_results_repeat_between_traced_and_untraced(tmp_path):
    plain = _tiny("paper-eval", False, tmp_path)
    traced = _tiny("paper-eval", True, tmp_path)
    again = _tiny("paper-eval", True, tmp_path)
    for key in ("dep_burst_err_up_pct", "dep_burst_err_down_pct",
                "sim.insns", "sim.events"):
        assert plain["report"][key] == traced["report"][key]
    for key in ("sim.insns", "sim.events"):
        assert (plain["report"][key]
                == traced["result"]["metrics"][key]["value"])
    for key in spec.EXACT_COUNTS:
        assert (traced["result"]["metrics"][key]["value"]
                == again["result"]["metrics"][key]["value"])
    assert traced["result"]["metrics"]["sim.insns"]["value"] > 0
    trace = json.loads((tmp_path / "paper-eval-seed0.trace.json").read_text())
    layers = {event["cat"] for event in trace["traceEvents"]}
    assert {"workloads", "sim", "core", "energy", "experiments"} <= layers


def test_held_out_workload_fails_only_on_the_known_defect(tmp_path):
    outcome = _tiny("govern", False, tmp_path)
    assert outcome["result"]["failed"] > 0
    assert all("decreased" in message
               for message in outcome["check_failures"])
    for metric_name, *_ in spec.REPORT_METRICS["govern"]:
        assert metric_name in outcome["report"]


def test_wrong_prediction_is_a_failed_operation(monkeypatch, tmp_path,
                                                capsys):
    from repro.core.sweep import TraceSweep

    exact = TraceSweep.predict

    def skewed(*args, **kwargs):
        return [value * (1 + 1e-12) for value in exact(*args, **kwargs)]

    # The program's own sweep goes wrong; the checker's scalar path not.
    monkeypatch.setattr(TraceSweep, "predict", skewed)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", "paper-eval", "--seconds", "0",
                     "--size", "tiny"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    # Every pass re-checks the same sampled cells; each wrong one counts.
    cells = PaperEval.SIZES["tiny"]["sample_cells"]
    assert last["failed"] == run.MIN_PASSES * cells


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "repobench", tmp_path / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", "paper-eval",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
