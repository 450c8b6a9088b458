"""Parallel fan-out of ground-truth simulations over worker processes.

The experiment suite's cost is a grid of independent simulations:
(benchmark × frequency) fixed runs and (benchmark × threshold) managed
runs. Each cell is deterministic — the simulator draws from RNG streams
keyed by (seed, purpose, index), never from shared mutable state — so
the grid can be computed in any order, in any process, with bit-identical
results. This module exploits that:

* a :class:`WorkItem` names one cell; drivers declare the cells they
  need via a module-level ``work(config)`` hook (see ``fig*.py``);
* :func:`execute` fans the deduplicated items out over
  :mod:`repro.common.pool`, one per-benchmark batch per task. Workers
  share one :class:`~repro.experiments.cache.ResultCache` with the
  parent: each worker persists its results under content-addressed keys
  and the parent rehydrates them from disk, so no large trace ever
  crosses the pipe;
* ``--jobs N`` on the CLI (or ``REPRO_JOBS``) picks the width; ``N=1``
  is a plain serial loop with no pool and no extra processes.

Failures are contained: a work item whose worker raised or died is
recomputed serially in the parent, so parallelism is purely an
optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.pool import each, exchange, partition, run_batches
from repro.common.validation import resolve_jobs
from repro.experiments.cache import ResultCache
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig


@dataclass(frozen=True, order=True)
class WorkItem:
    """One independent ground-truth simulation of the experiment grid."""

    #: ``"fixed"`` (value = frequency in GHz) or ``"managed"`` (value =
    #: tolerable-slowdown threshold).
    kind: str
    benchmark: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "managed"):
            raise ConfigError(f"unknown work kind {self.kind!r}")
        object.__setattr__(self, "value", round(self.value, 6))


def fixed_items(
    benchmarks: Iterable[str], freqs_ghz: Iterable[float]
) -> Tuple[WorkItem, ...]:
    """Fixed-run items for the (benchmark × frequency) grid."""
    return tuple(
        WorkItem("fixed", bench, freq)
        for bench in benchmarks
        for freq in freqs_ghz
    )


def managed_items(
    benchmarks: Iterable[str], thresholds: Iterable[float]
) -> Tuple[WorkItem, ...]:
    """Managed-run items for the (benchmark × threshold) grid."""
    return tuple(
        WorkItem("managed", bench, threshold)
        for bench in benchmarks
        for threshold in thresholds
    )


@dataclass
class ExecutionReport:
    """What :func:`execute` did with the requested grid."""

    items: int = 0
    jobs: int = 1
    #: Items a worker did not finish; they were recomputed in the parent.
    recovered: List[Tuple[WorkItem, str]] = field(default_factory=list)


# One runner per worker process, built by the pool initializer so every
# batch handled by that worker shares bundles and the disk cache.
_WORKER_RUNNER: Optional[ExperimentRunner] = None


def _init_worker(config: ExperimentConfig, cache_root: str, sweep: bool) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = ExperimentRunner(
        config, cache=ResultCache(cache_root), sweep=sweep
    )


def _group_fixed(
    items: Sequence[WorkItem],
) -> Tuple[Dict[str, List[WorkItem]], List[WorkItem]]:
    """(fixed items per benchmark, everything else) — batchable split."""
    fixed: Dict[str, List[WorkItem]] = {}
    rest: List[WorkItem] = []
    for item in items:
        if item.kind == "fixed":
            fixed.setdefault(item.benchmark, []).append(item)
        else:
            rest.append(item)
    return fixed, rest


def _compute(item: WorkItem) -> None:
    """Worker side of one item; the result travels via the shared cache."""
    assert _WORKER_RUNNER is not None, "worker used before initialization"
    _apply(_WORKER_RUNNER, item)


def _run_batch(batch: Sequence[WorkItem], use_batch: bool = False):
    """Compute one batch in a worker: ``({item: None}, {item: error})``."""
    assert _WORKER_RUNNER is not None, "worker used before initialization"
    if use_batch:
        fixed, _ = _group_fixed(batch)
        for bench in sorted(fixed):
            try:
                _WORKER_RUNNER.fixed_runs_batch(
                    bench, [item.value for item in fixed[bench]]
                )
            except Exception:  # contained: the lanes retry one by one
                pass
    return each(batch, _compute)


def _apply(runner: ExperimentRunner, item: WorkItem):
    if item.kind == "fixed":
        return runner.fixed_run(item.benchmark, item.value)
    return runner.managed_run(item.benchmark, item.value)


def execute(
    runner: ExperimentRunner,
    items: Sequence[WorkItem],
    jobs: Optional[int] = None,
    batch: bool = False,
) -> ExecutionReport:
    """Materialize every item in ``runner``, fanning out over ``jobs`` processes.

    After this returns, each item is available in ``runner``'s in-memory
    maps (and on disk when caching): drivers hit warm lookups only. With
    ``jobs=1`` — or a single item — everything runs serially in-process.

    With ``batch=True``, each benchmark's fixed-frequency fan-out goes
    through :meth:`~repro.experiments.runner.ExperimentRunner.fixed_runs_batch`
    — one batched simulation per benchmark instead of one run per
    frequency; results are byte-identical (managed items are governor
    runs with per-quantum feedback and stay per-item). In workers a
    failed batched call falls back to per-item runs before the parent's
    serial recovery kicks in.

    A runner without a persistent cache borrows a temporary one for the
    call (workers and parent need a common store to exchange results
    through); it is removed, and ``runner.cache`` reset to ``None``,
    before this returns — the results stay in the runner's memory.
    """
    grid = sorted(set(items))
    jobs = resolve_jobs(jobs)
    report = ExecutionReport(items=len(grid), jobs=jobs if len(grid) > 1 else 1)
    if report.jobs == 1:
        if batch:
            fixed, _ = _group_fixed(grid)
            for bench in sorted(fixed):
                runner.fixed_runs_batch(
                    bench, [item.value for item in fixed[bench]]
                )
        for item in grid:
            _apply(runner, item)  # a memo hit for batched items
        return report

    borrowed = runner.cache is None
    with exchange(None if borrowed else runner.cache.root) as root:
        if borrowed:
            runner.cache = ResultCache(root)
        try:
            # One batch per benchmark: its runs share the bundle and the
            # GC model's per-cycle cache, as costly to rebuild as a run.
            _, failures = run_batches(
                partition(grid, attrgetter("benchmark"), jobs),
                partial(_run_batch, use_batch=batch),
                jobs,
                initializer=_init_worker,
                initargs=(runner.config, root, runner.sweep),
            )
            for item in grid:
                if item in failures:
                    report.recovered.append((item, failures[item]))
                _apply(runner, item)  # cache hit for worker-computed items
        finally:
            if borrowed:
                runner.cache = None
    return report
