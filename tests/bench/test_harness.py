"""The ``python -m repro.bench`` command line and its shared helpers."""

import json
import subprocess

import pytest

from repro.bench import harness, sweep
from repro.bench.harness import (
    BENCHES,
    build_parser,
    env_scale,
    git_sha,
    host_info,
    main,
)


def test_env_scale_follows_repro_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.25")
    assert env_scale() == 0.25
    monkeypatch.delenv("REPRO_SCALE")
    assert env_scale() == 1.0


def test_host_block_names_cpus_versions_and_commit():
    host = host_info()
    assert set(host) == {"cpu_count", "python", "numpy", "platform",
                         "git_sha"}
    assert host["cpu_count"] >= 1
    assert host["python"].count(".") == 2


def test_git_sha_is_null_outside_a_checkout(tmp_path):
    assert git_sha(tmp_path) is None


def test_git_sha_is_null_without_git(monkeypatch):
    def no_git(*args, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(subprocess, "run", no_git)
    assert git_sha() is None


def test_the_harness_has_exactly_ten_options():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.choices and "serve" in a.choices]
    assert set(sub.choices) == set(BENCHES)
    options = {
        option
        for bench in sub.choices.values()
        for action in bench._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    assert options == {
        "--reps", "--out", "--check", "--tenants", "--duration",
        "--clients", "--max-p99-ms", "--max-miss-rate", "--compare-single",
        "--min-ratio",
    }


def _canned_sweep(figures, governor):
    return {"results": [
        {"workload": "figures_grid", "speedup": figures,
         "scalar_wall_s": 1.0, "sweep_wall_s": 1.0 / figures},
        {"workload": "governor_quantum", "speedup": governor,
         "scalar_wall_s": 1.0, "sweep_wall_s": 1.0 / governor},
    ], "pipeline_speedup": 1.0}


@pytest.fixture
def canned_sweep(monkeypatch):
    monkeypatch.setattr(sweep, "bench_payload",
                        lambda scale, reps: _canned_sweep(10.0, 8.0))


def test_main_writes_the_payload_with_its_host_block(tmp_path, canned_sweep):
    out = tmp_path / "BENCH_sweep.json"
    assert main(["sweep", "--reps", "1", "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    assert written["results"][0]["speedup"] == 10.0
    assert written["host"]["git_sha"] == git_sha()


def test_main_fails_on_a_baseline_missing_a_gated_workload(
    tmp_path, canned_sweep, capsys
):
    # The scripts this replaces skipped workloads absent from the
    # baseline, so this run used to pass.
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"results": [
        {"workload": "figures_grid", "speedup": 10.0},
    ]}))
    code = main(["sweep", "--out", str(tmp_path / "out.json"),
                 "--check", str(baseline)])
    assert code == 1
    assert ("FAIL: sweep results[workload=governor_quantum].speedup is "
            "missing from the baseline") in capsys.readouterr().out


def test_main_passes_a_committed_style_baseline(tmp_path, canned_sweep):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(_canned_sweep(11.0, 7.0)))
    assert main(["sweep", "--out", str(tmp_path / "out.json"),
                 "--check", str(baseline)]) == 0


def test_module_entry_point_runs_the_harness(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "main", lambda: calls.append(1) or 0)
    import runpy

    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("repro.bench", run_name="__main__")
    assert exit_info.value.code == 0
    assert calls == [1]
