"""The shared process pool: partitioning, containment, worker death, cleanup.

Worker death is injected through module-level work functions and
payloads that call ``os._exit(1)`` when a worker unpickles them:
spawned workers import this module fresh, so a monkeypatch would never
reach them.
"""

import concurrent.futures
import os
import tempfile
from pathlib import Path

from repro.arch.specs import haswell_i7_4770k
from repro.common.pool import each, exchange, partition, run_batches
from repro.experiments.parallel import WorkItem, execute, fixed_items, managed_items
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig
from repro.fleet.grid import GridConfig, grid_bytes, run_grid
from repro.fleet.profile_cache import ProfileCache
from repro.fleet.profiles import ProfileStore
from repro.fleet.tenants import profile_key
from repro.sim.serialize import trace_to_dict
from tests.fleet.conftest import tiny_tenant


def _fatal(value: str, parent_pid: int) -> str:
    if os.getpid() != parent_pid:
        os._exit(1)
    return _Fatal(value)


class _Fatal(str):
    """A string that kills any other process that unpickles it."""

    def __reduce__(self):
        return (_fatal, (str(self), os.getpid()))


def _upper(item: str) -> str:
    if item == "raise":
        raise ValueError("boom")
    return item.upper()


def _work(batch):
    """Module-level work function: dies on a ``"die"`` batch."""
    if "die" in batch:
        os._exit(1)
    return each(batch, _upper)


def _recompute(results, failures):
    """What a caller does: keep worker results, redo failures serially."""
    merged = dict(results)
    merged.update((item, item.upper()) for item in failures)
    return merged


# ----------------------------------------------------------------------
# partition
# ----------------------------------------------------------------------


def test_partition_groups_by_key():
    items = ["a1", "a2", "b1", "c1"]
    batches = partition(items, lambda item: item[0], jobs=2)
    assert batches == [["a1", "a2"], ["b1"], ["c1"]]


def test_partition_splits_when_workers_outnumber_groups():
    items = ["a1", "a2", "a3", "a4", "b1"]
    batches = partition(items, lambda item: item[0], jobs=4)
    assert len(batches) == 4
    assert sorted(item for batch in batches for item in batch) == items
    for batch in batches:
        assert len({item[0] for item in batch}) == 1  # never straddles


def test_partition_is_deterministic():
    items = [f"{group}{i}" for group in "cab" for i in range(3)]
    batches = partition(items, lambda item: item[0], 5)
    assert batches == partition(list(items), lambda item: item[0], 5)
    assert batches == sorted(batches)


def test_partition_never_splits_single_items():
    assert partition(["a"], lambda item: item, jobs=8) == [["a"]]


# ----------------------------------------------------------------------
# run_batches: containment and degradation to serial
# ----------------------------------------------------------------------


def test_each_contains_item_failures():
    results, errors = each(["x", "raise"], _upper)
    assert results == {"x": "X"}
    assert errors == {"raise": "ValueError: boom"}


def test_run_batches_returns_results_and_item_errors():
    results, failures = run_batches([["a", "b"], ["raise"]], _work, jobs=2)
    assert results == {"a": "A", "b": "B"}
    assert failures == {"raise": "ValueError: boom"}


def test_worker_death_degrades_to_serial():
    items = ["a", "b", "c", "die"]
    batches = partition(items, lambda item: item == "die", jobs=2)
    assert ["die"] in batches
    results, failures = run_batches(batches, _work, jobs=2)
    assert "BrokenProcessPool" in failures["die"]
    assert set(results) | set(failures) == set(items)
    assert not set(results) & set(failures)
    assert _recompute(results, failures) == {item: item.upper() for item in items}


def test_pool_that_cannot_start_fails_every_item(monkeypatch):
    class _NoPool:
        def __init__(self, *args, **kwargs):
            raise OSError("no processes left")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    results, failures = run_batches([["a"], ["b"]], _work, jobs=2)
    assert results == {}
    assert failures == {
        "a": "OSError: no processes left",
        "b": "OSError: no processes left",
    }


def test_no_batches_start_no_pool():
    assert run_batches([], _work, jobs=4) == ({}, {})


def test_exchange_removes_only_what_it_created(tmp_path):
    with exchange() as root:
        assert Path(root).is_dir()
    assert not Path(root).exists()
    with exchange(str(tmp_path)) as root:
        assert root == str(tmp_path)
    assert tmp_path.is_dir()


# ----------------------------------------------------------------------
# The two callers: experiments.execute and fleet.run_grid
# ----------------------------------------------------------------------

CONFIG = ExperimentConfig(
    scale=0.02,
    benchmarks=("pmd_scale", "lusearch_fix"),
    static_freqs_ghz=(1.0, 4.0),
    thresholds=(0.10,),
    quantum_ns=2.0e5,
)

GRID = fixed_items(CONFIG.benchmarks, (1.0, 4.0)) + managed_items(
    CONFIG.benchmarks, CONFIG.thresholds
)

FLEET_GRID = GridConfig(
    tenants=6, seed=11, policies=("static-max",), caps_w=(120.0, 400.0)
)


def _runs(runner, grid):
    return [
        (run.total_ns, run.energy_j)
        for run in (
            runner.fixed_run(item.benchmark, item.value)
            if item.kind == "fixed"
            else runner.managed_run(item.benchmark, item.value)
            for item in grid
        )
    ]


def test_execute_recovers_a_dead_workers_batch():
    serial = ExperimentRunner(CONFIG)
    execute(serial, GRID, jobs=1)
    poisoned = [
        WorkItem(item.kind, _Fatal(item.benchmark), item.value)
        if item.benchmark == "pmd_scale"
        else item
        for item in GRID
    ]
    runner = ExperimentRunner(CONFIG)
    report = execute(runner, poisoned, jobs=2)
    recovered = {item for item, _ in report.recovered}
    assert {item for item in GRID if item.benchmark == "pmd_scale"} <= recovered
    assert all("BrokenProcessPool" in error for _, error in report.recovered)
    assert _runs(runner, GRID) == _runs(serial, GRID)
    assert runner.cache is None


def test_run_grid_recovers_dead_workers_cells():
    serial = run_grid(FLEET_GRID)
    poisoned = GridConfig(
        tenants=6,
        seed=11,
        policies=(_Fatal("static-max"),),
        caps_w=(120.0, 400.0),
    )
    payload = run_grid(poisoned, jobs=2)
    assert grid_bytes(payload) == grid_bytes(serial)
    assert payload["diagnostics"]["recovered_cells"] == len(FLEET_GRID.cells())


def test_parallel_calls_leave_no_scratch_directories(tmp_path, monkeypatch):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    runner = ExperimentRunner(CONFIG)
    execute(runner, fixed_items(CONFIG.benchmarks, (1.0,)), jobs=2)
    assert runner.cache is None
    run_grid(FLEET_GRID, jobs=2)
    assert list(scratch.iterdir()) == []


# ----------------------------------------------------------------------
# The fleet store across processes: serial, warm and worker rehydrates
# ----------------------------------------------------------------------

SPEC = haswell_i7_4770k()

TENANTS = (
    tiny_tenant("p0", seed=1, base=3.0),
    tiny_tenant("p1", seed=1, base=4.0),
    tiny_tenant("p2", seed=2, base=3.0, quantum=4.0e4),
)


def _traces(store):
    return {
        key: trace_to_dict(profile.trace)
        for key, profile in store.profiles.items()
    }


def _rehydrate(roots):
    """Module-level work function: read the traces back in a worker."""

    def load(root):
        store = ProfileStore(SPEC, cache=ProfileCache(root))
        store.build(TENANTS)
        return _traces(store)

    return each(roots, load)


def test_serial_warm_and_worker_stores_are_identical(tmp_path):
    tenants = TENANTS
    serial = ProfileStore(SPEC)
    serial.build(tenants)
    expected = _traces(serial)
    cold = ProfileStore(SPEC, cache=ProfileCache(tmp_path))
    assert cold.build(tenants)["profiles_built"] == len(expected)

    warm = ProfileStore(SPEC, cache=ProfileCache(tmp_path))
    diagnostics = warm.build(tenants)
    assert diagnostics["cache_hits"] == len(expected)
    assert diagnostics["profiles_built"] == 0
    assert _traces(warm) == expected

    root = str(tmp_path)
    results, failures = run_batches([[root]], _rehydrate, jobs=1)
    assert failures == {}
    assert results[root] == expected
    assert set(expected) == {profile_key(tenant) for tenant in tenants}
