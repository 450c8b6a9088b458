"""Persistent result cache: warm-run behaviour and fault injection.

The contract under test: a second runner over the same store performs
zero new simulations; any on-disk damage (truncation, bit flips inside an
inline trace, a missing trace body, schema bumps) silently degrades to a
recompute — the cache may lose work, it must never corrupt results or
crash the suite.
"""

import json

import pytest

from repro.experiments import cache as cache_mod
from repro.experiments.cache import ResultCache
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig
from repro.sim.serialize import trace_to_dict, unseal_trace

CONFIG = ExperimentConfig(
    scale=0.02,
    benchmarks=("pmd_scale",),
    thresholds=(0.10,),
    quantum_ns=2.0e5,
)


@pytest.fixture
def store(tmp_path):
    return ResultCache(tmp_path / "cache")


def _populate(store) -> ExperimentRunner:
    runner = ExperimentRunner(CONFIG, cache=store)
    runner.fixed_run("pmd_scale", 1.0)   # base freq: trace inline on disk
    runner.fixed_run("pmd_scale", 2.0)   # summary only
    runner.managed_run("pmd_scale", 0.10)
    return runner


def _rerun(store) -> ExperimentRunner:
    runner = ExperimentRunner(CONFIG, cache=store)
    runner.fixed_run("pmd_scale", 1.0)
    runner.fixed_run("pmd_scale", 2.0)
    runner.managed_run("pmd_scale", 0.10)
    return runner


def test_warm_cache_performs_zero_simulations(store):
    cold = _populate(store)
    assert cold.simulations == 3
    assert store.stats.stores == 3

    warm_store = ResultCache(store.root)  # fresh instance, same directory
    warm = _rerun(warm_store)
    assert warm.simulations == 0
    assert warm_store.stats.hits == 3
    assert warm_store.stats.errors == 0
    # And the rehydrated results match the originals exactly.
    assert warm.fixed_run("pmd_scale", 1.0) == cold.fixed_run("pmd_scale", 1.0)
    assert warm.managed_run("pmd_scale", 0.10) == cold.managed_run(
        "pmd_scale", 0.10
    )


def _entry_paths(store, has_trace=None):
    """Current-version fixed-run entry files, optionally filtered by
    whether they carry a trace."""
    paths = []
    for path in sorted(store.root.glob("v*/result-*.json")):
        entry = _read_entry(path)
        if "freq_ghz" in entry and (
            has_trace is None or (entry["trace"] is not None) == has_trace
        ):
            paths.append(path)
    return paths


def _read_entry(path):
    return json.loads(json.loads(path.read_text())["value"])


def _write_entry(path, entry):
    envelope = json.loads(path.read_text())
    envelope["value"] = json.dumps(entry)
    path.write_text(json.dumps(envelope))


def test_cached_base_trace_round_trips(store):
    cold = _populate(store).fixed_run("pmd_scale", 1.0)
    warm = ExperimentRunner(CONFIG, cache=ResultCache(store.root))
    hot = warm.fixed_run("pmd_scale", 1.0)
    assert warm.simulations == 0
    assert hot == cold
    assert trace_to_dict(hot.trace) == trace_to_dict(cold.trace)


def test_truncated_summary_recomputes(store):
    _populate(store)
    victim = _entry_paths(store)[0]
    victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])

    warm_store = ResultCache(store.root)
    warm = _rerun(warm_store)
    assert warm.simulations == 1  # only the damaged entry
    assert warm_store.stats.errors == 1
    assert _read_entry(victim)  # rebuilt


def test_bitflipped_trace_body_recomputes(store):
    _populate(store)
    (victim,) = _entry_paths(store, has_trace=True)
    text = victim.read_text()
    # Change one digit inside the inline trace body: every JSON layer
    # still parses, so only the body's checksum can catch it.
    at = text.index("total_ns", text.index("format_version"))
    while not text[at].isdigit():
        at += 1
    text = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
    victim.write_text(text)
    assert _read_entry(victim)["trace"]["trace"]

    warm_store = ResultCache(store.root)
    warm = _rerun(warm_store)
    assert warm.simulations == 1
    assert warm_store.stats.errors == 1
    # The rebuilt entry passes its checksum again.
    assert unseal_trace(_read_entry(victim)["trace"]).total_ns > 0


def test_missing_trace_body_recomputes(store):
    _populate(store)
    (victim,) = _entry_paths(store, has_trace=True)
    entry = _read_entry(victim)
    del entry["trace"]["trace"]
    _write_entry(victim, entry)

    warm_store = ResultCache(store.root)
    warm = _rerun(warm_store)
    assert warm.simulations == 1
    assert warm_store.stats.errors == 1
    assert warm.fixed_run("pmd_scale", 1.0).trace is not None


def test_garbage_json_and_wrong_key_recompute(store):
    _populate(store)
    fixed = _entry_paths(store)
    fixed[0].write_text("not json at all {{{")
    envelope = json.loads(fixed[1].read_text())
    envelope["key"] = "0" * 64  # plausible entry under the wrong address
    fixed[1].write_text(json.dumps(envelope))

    warm_store = ResultCache(store.root)
    warm = _rerun(warm_store)
    assert warm.simulations == 2
    assert warm_store.stats.errors == 2


def test_schema_version_bump_invalidates(store, monkeypatch):
    _populate(store)
    monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", 999)
    warm_store = ResultCache(store.root)
    warm = _rerun(warm_store)
    assert warm.simulations == 3  # nothing from the old version is reachable
    assert warm_store.stats.errors == 0  # stale, not corrupt
    # Old entries survive on disk (reported as stale) until `clear`.
    assert warm_store.disk_stats()["stale_entries"] == 3
    assert warm_store.disk_stats()["entries"] == 3
    assert warm_store.clear() == 6
    assert warm_store.disk_stats() == {
        "entries": 0,
        "stale_entries": 0,
        "size_bytes": 0,
    }


def test_cli_cache_stats_and_clear(store, capsys):
    from repro.experiments.cli import cache_main

    _populate(store)
    assert cache_main(["stats", "--cache-dir", str(store.root)]) == 0
    out = capsys.readouterr().out
    assert "entries:       3 (0 stale" in out
    assert str(store.root) in out

    assert cache_main(["clear", "--cache-dir", str(store.root)]) == 0
    assert "removed 3 cached file(s)" in capsys.readouterr().out
    warm = _rerun(ResultCache(store.root))
    assert warm.simulations == 3


def test_stats_and_clear_leave_fleet_profiles_alone(store, monkeypatch, capsys):
    # Fleet profiles live under the same root; they are not result
    # entries, so stats must not count them and clear must not touch them.
    from repro.experiments.cli import cache_main
    from repro.fleet.cli import main as fleet_main
    from repro.fleet.profile_cache import ProfileCache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(store.root))
    trace = _populate(store).fixed_run("pmd_scale", 1.0).trace
    ProfileCache().put("p" * 64, trace)
    assert fleet_main(["cache", "stats"]) == 0
    fleet_before = capsys.readouterr().out
    assert "entries:       1" in fleet_before

    assert cache_main(["stats"]) == 0
    assert "entries:       3 (0 stale from other versions)" in (
        capsys.readouterr().out
    )
    assert cache_main(["clear"]) == 0
    assert "removed 3 cached file(s)" in capsys.readouterr().out
    assert fleet_main(["cache", "stats"]) == 0
    assert capsys.readouterr().out == fleet_before


def test_managed_key_separates_prediction_engines():
    # The sweep and scalar engines claim bit-identical results, but the
    # cache must not rely on that claim: a kernel bug would otherwise
    # poison both engines' entries at once and hide from the
    # sweep-scalar differential.
    fingerprint = {"benchmark": "pmd_scale", "scale": 0.02}
    manager = {"objective": "energy", "tolerable_slowdown": 0.10}
    keys = {
        engine: cache_mod.managed_key(
            fingerprint,
            manager,
            2.0e5,
            prediction=cache_mod.prediction_fingerprint(engine == "sweep"),
        )
        for engine in ("sweep", "scalar")
    }
    legacy = cache_mod.managed_key(fingerprint, manager, 2.0e5)
    assert len({keys["sweep"], keys["scalar"], legacy}) == 3


def test_prediction_fingerprint_tracks_kernel_version(monkeypatch):
    from repro.core import sweep as sweep_mod

    before = cache_mod.prediction_fingerprint(True)
    assert before == {
        "engine": "sweep",
        "kernel_version": sweep_mod.KERNEL_VERSION,
    }
    monkeypatch.setattr(sweep_mod, "KERNEL_VERSION", sweep_mod.KERNEL_VERSION + 1)
    bumped = cache_mod.prediction_fingerprint(True)
    assert bumped["kernel_version"] == before["kernel_version"] + 1
    fingerprint = {"benchmark": "pmd_scale", "scale": 0.02}
    manager = {"objective": "energy"}
    assert cache_mod.managed_key(
        fingerprint, manager, 2.0e5, prediction=before
    ) != cache_mod.managed_key(fingerprint, manager, 2.0e5, prediction=bumped)
    # The scalar loop has no kernel to version; its fingerprint is inert.
    assert cache_mod.prediction_fingerprint(False) == {
        "engine": "scalar",
        "kernel_version": 0,
    }


def test_runner_engines_do_not_alias_cache_entries(store):
    # One managed ground truth per engine: the second engine must miss
    # the first engine's entry and simulate again...
    swept = ExperimentRunner(CONFIG, cache=store, sweep=True)
    swept.managed_run("pmd_scale", 0.10)
    scalar = ExperimentRunner(CONFIG, cache=store, sweep=False)
    scalar.managed_run("pmd_scale", 0.10)
    assert swept.simulations == 1
    assert scalar.simulations == 1
    # ...while a warm rerun of either engine hits its own entry.
    for sweep in (True, False):
        warm = ExperimentRunner(CONFIG, cache=ResultCache(store.root), sweep=sweep)
        run = warm.managed_run("pmd_scale", 0.10)
        assert warm.simulations == 0, sweep
        assert run.total_ns == (swept if sweep else scalar).managed_run(
            "pmd_scale", 0.10
        ).total_ns
