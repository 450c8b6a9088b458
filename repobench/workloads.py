"""The four benchmark workloads.

Each workload is built from ``--seed``: seed 0 is the paper's DaCapo
configuration (and ``repro-fleet``'s default seed); any other seed
shifts every generator seed, so the programs, tenants and payloads
change while their sizes and structure stay the same.

A workload has a set-up (timed as ``setup_s``, repeated), a pass (timed
as ``wall_s``, repeated for the run's seconds) whose inputs are made
before its timer starts, and output checks that run after each pass,
outside the timing. Every run gets its own empty
cache root under the checkout, so nothing is read from an earlier run.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional

from repobench.spans import Patches

#: Generator-seed shift per benchmark seed (seed 0 = the paper's configs).
SEED_STRIDE = 1000


@dataclass
class Checks:
    """Output checks of one run: every one counts as an operation."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


@dataclass
class Context:
    """What a workload needs from the harness."""

    seed: int
    #: Directory for this run's caches and stores (empty at start).
    root: Path
    #: ``"full"`` for measurement, ``"tiny"`` for the benchmark's tests.
    size: str
    checks: Checks = field(default_factory=Checks)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def src_env(ctx: Context) -> Dict[str, str]:
    """Environment for child processes: repo ``src`` on the path, caches
    under the run's own root."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CACHE_DIR"] = str(ctx.root / "repro-cache")
    env.pop("REPRO_PROFILE", None)
    return env


# ----------------------------------------------------------------------
# Seeded DaCapo programs and runner
# ----------------------------------------------------------------------


def seeded_config(name: str, scale: float, seed: int):
    from repro.workloads.dacapo import dacapo_config

    config = dacapo_config(name, scale)
    if seed:
        config = replace(
            config, seed=(config.seed + SEED_STRIDE * seed) % (2 ** 31)
        )
    return config


def build_program(name: str, scale: float, seed: int):
    """One benchmark program, built through the workloads layer."""
    import repro.workloads.synthetic as synthetic

    return synthetic.build_synthetic_program(seeded_config(name, scale, seed))


def _seeded_runner(seed: int, scale: float, benchmarks, programs=None):
    """An :class:`ExperimentRunner` whose bundles come from seeded
    configs; ``programs`` (name -> Program) skips construction."""
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.setup import ExperimentConfig
    from repro.workloads.dacapo import dacapo_jvm_config
    from repro.workloads.registry import BenchmarkBundle

    class SeededRunner(ExperimentRunner):
        def bundle(self, benchmark: str) -> BenchmarkBundle:
            bundle = bundles.get(benchmark)
            if bundle is None:
                program = (programs or {}).get(benchmark)
                if program is None:
                    program = build_program(benchmark, scale, seed)
                bundle = bundles[benchmark] = BenchmarkBundle(
                    name=benchmark, program=program,
                    jvm_config=dacapo_jvm_config(benchmark),
                )
            return bundle

    bundles: Dict[str, Any] = {}
    config = ExperimentConfig(scale=scale, benchmarks=tuple(benchmarks))
    return SeededRunner(config, cache=None, sweep=True)


def _capture(patches: Patches, module, attr: str, sink: list) -> None:
    """Keep every result of ``module.attr`` for the post-pass checks."""
    original = getattr(module, attr)

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    patches.set(module, attr, capturing)


def _check_traces(ctx: Context, results, label: str) -> None:
    from repro.sim.checks import check_trace

    for result in results:
        violations = check_trace(result.trace)
        ctx.checks.expect(
            not violations,
            f"{label} {result.trace.program_name}: {violations[:2]}",
        )


class Workload:
    """Interface the harness drives."""

    setup_repeats = 3
    #: Wall seconds of each timed pass, filled in by the harness.
    pass_walls: List[float] = []

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        """One set-up; the harness times and repeats it."""

    def pin(self, cpus: List[int]) -> int:
        """Pin the work to some of ``cpus`` for the timed set-ups and
        passes; return the CPU the host probe should read, the one the
        work runs on. The work here runs in this process (and its
        children) one step at a time, so it gets one CPU."""
        os.sched_setaffinity(0, {cpus[0]})
        return cpus[0]

    def prepare(self) -> Any:
        """Inputs of the next pass, made before its timer starts."""
        return None

    def run_pass(self, patches: Patches, inputs: Any) -> Any:
        """One timed pass over :meth:`prepare`'s ``inputs``; ``patches``
        holds this pass's wrappers."""
        raise NotImplementedError

    def time_steps(self, patches: Patches) -> None:
        """Install timers that untraced passes need for report metrics."""

    def check(self, output: Any) -> None:
        """Output checks on one pass, outside the timing."""

    def after_passes(self, traced: bool) -> None:
        """Untimed phases after the passes (report metrics)."""

    def report(self) -> Dict[str, float]:
        """The workload's own report metrics (:data:`spec.REPORT_METRICS`)."""
        return {}

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer metrics the spans cannot see."""
        return {}

    def peak_rss_mb(self) -> float:
        """Peak resident set of the process that does the work."""
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        """Stop whatever the workload started."""


# ----------------------------------------------------------------------
# paper-eval
# ----------------------------------------------------------------------


class PaperEval(Workload):
    """``repro-experiments fig3 --no-cache`` at reduced scale, cold."""

    setup_repeats = 9

    SIZES = {
        "full": {"scale": 0.03, "benchmarks": None, "sample_cells": 6},
        "tiny": {"scale": 0.01, "benchmarks": ("pmd_scale", "avrora"),
                 "sample_cells": 2},
    }

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        from repro.workloads.dacapo import dacapo_names

        size = self.SIZES[ctx.size]
        self.scale = size["scale"]
        self.benchmarks = size["benchmarks"] or dacapo_names()
        self.sample_cells = size["sample_cells"]
        self.errors: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.simulations: List[int] = []

    def setup(self) -> None:
        # What every `repro-experiments` invocation pays before any work.
        subprocess.run(
            [sys.executable, "-c", "import repro.experiments.cli"],
            env=src_env(self.ctx), check=True, timeout=120,
        )

    def run_pass(self, patches: Patches, inputs: None):
        import repro.experiments.fig3 as fig3
        import repro.experiments.parallel as parallel
        import repro.experiments.runner as runner_mod

        traces: list = []
        grids: list = []
        _capture(patches, runner_mod, "simulate", traces)
        _capture(patches, fig3, "collect", grids)
        runner = _seeded_runner(self.ctx.seed, self.scale, self.benchmarks)
        parallel.execute(runner, fig3.work(runner.config), jobs=1,
                         batch=False)
        text = "\n".join(r.to_text() for r in fig3.run(runner))
        return runner, traces, grids, text

    def check(self, output) -> None:
        from repro.core.evaluate import prediction_error
        from repro.core.predictors import make_predictor, predictor_names
        import repro.experiments.fig3 as fig3

        runner, traces, grids, text = output
        checks = self.ctx.checks
        expected = len(fig3.work(runner.config))
        checks.expect(runner.simulations == expected,
                      f"cold pass ran {runner.simulations} of {expected} "
                      "simulations")
        checks.expect(bool(text) and len(grids) == 1,
                      f"figure rendered empty or from {len(grids)} grids")
        _check_traces(self.ctx, traces, "fixed")
        # The grid the pass rendered: the program's sweep results.
        data = grids[-1]
        config = runner.config
        rng = random.Random(self.ctx.seed)
        directions = (("up", 1.0, config.targets_up_ghz),
                      ("down", 4.0, config.targets_down_ghz))
        for _ in range(self.sample_cells):
            direction, base, targets = rng.choice(directions)
            bench = rng.choice(config.benchmarks)
            model = rng.choice(predictor_names())
            target = rng.choice(targets)
            scalar = make_predictor(model).predict_total_ns(
                runner.base_trace(bench, base), target
            )
            error = prediction_error(scalar,
                                     runner.fixed_run(bench, target).total_ns)
            swept = getattr(data, direction)[model][bench][target]
            checks.expect(
                error == swept,
                f"{model} {bench} {base}->{target} GHz: scalar {error!r} "
                f"!= sweep {swept!r}",
            )
        self.counts = {
            "sim.insns": sum(c.insns for r in traces
                             for c in r.trace.final_counters().values()),
            "sim.events": sum(len(r.trace.events) for r in traces),
        }
        self.errors = {
            "dep_burst_err_up_pct": 100 * data.mean_abs_at(
                "up", "DEP+BURST", config.targets_up_ghz[-1]),
            "dep_burst_err_down_pct": 100 * data.mean_abs_at(
                "down", "DEP+BURST", config.targets_down_ghz[-1]),
        }
        self.simulations.append(runner.simulations)

    def report(self) -> Dict[str, float]:
        return dict(self.errors, **self.counts, store_hits=0,
                    store_misses=self.simulations[-1])

    def layer_extras(self) -> Dict[str, float]:
        return {"experiments.simulations": self.simulations[-1]}


# ----------------------------------------------------------------------
# govern
# ----------------------------------------------------------------------


class Govern(Workload):
    """Fig 6 managed runs; construction and 4 GHz references in set-up."""

    SIZES = {
        "full": {"scale": 0.05, "benchmarks": None},
        "tiny": {"scale": 0.01, "benchmarks": ("pmd_scale", "avrora")},
    }

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        from repro.workloads.dacapo import dacapo_names

        size = self.SIZES[ctx.size]
        self.scale = size["scale"]
        self.benchmarks = size["benchmarks"] or dacapo_names()
        self.thresholds = (0.05, 0.10)
        self.programs: Dict[str, Any] = {}
        self.reference: Dict[str, Any] = {}
        self.step_s: List[float] = []
        self.first: Optional[Dict[tuple, tuple]] = None
        self.summary: Dict[str, float] = {}
        self.simulations = 0

    def setup(self) -> None:
        programs = {b: build_program(b, self.scale, self.ctx.seed)
                    for b in self.benchmarks}
        runner = _seeded_runner(self.ctx.seed, self.scale, self.benchmarks,
                                programs)
        self.reference = {b: runner.fixed_run(b, 4.0) for b in self.benchmarks}
        self.programs = programs

    def time_steps(self, patches: Patches) -> None:
        """Host time of every governor call (untraced passes only)."""
        from repro.energy.manager import EnergyManagerSession

        step = EnergyManagerSession.step
        sink = self.step_s
        clock = time.perf_counter

        def timed_step(session, record, epochs):
            start = clock()
            chosen = step(session, record, epochs)
            sink.append(clock() - start)
            return chosen

        patches.set(EnergyManagerSession, "step", timed_step)

    def run_pass(self, patches: Patches, inputs: None):
        import repro.experiments.runner as runner_mod

        traces: list = []
        _capture(patches, runner_mod, "simulate_managed", traces)
        runner = _seeded_runner(self.ctx.seed, self.scale, self.benchmarks,
                                self.programs)
        runs = {
            (b, th): runner.managed_run(b, th)
            for th in self.thresholds for b in self.benchmarks
        }
        return runner, runs, traces

    def check(self, output) -> None:
        runner, runs, traces = output
        checks = self.ctx.checks
        expected = len(self.thresholds) * len(self.benchmarks)
        checks.expect(runner.simulations == expected,
                      f"cold pass ran {runner.simulations} of {expected} "
                      "managed simulations")
        _check_traces(self.ctx, traces, "managed")
        outcome = {key: (run.total_ns, run.energy_j) for key, run in
                   runs.items()}
        if self.first is None:
            self.first = outcome
        for key, value in outcome.items():
            checks.expect(value == self.first[key],
                          f"managed run {key} not deterministic")
        saved, slow = [], []
        for (bench, _), run in runs.items():
            ref = self.reference[bench]
            saved.append(1.0 - run.energy_j / ref.energy_j)
            slow.append(run.total_ns / ref.total_ns - 1.0)
        self.summary = {
            "energy_saved_pct": 100 * statistics.fmean(saved),
            "slowdown_pct": 100 * statistics.fmean(slow),
        }
        self.simulations = runner.simulations

    def report(self) -> Dict[str, float]:
        out = dict(self.summary, store_hits=0, store_misses=self.simulations)
        if self.step_s:
            out["governor_step_p50_us"] = 1e6 * percentile(self.step_s, 50)
            out["governor_step_p90_us"] = 1e6 * percentile(self.step_s, 90)
            out["governor_steps_timed"] = len(self.step_s)
        return out

    def layer_extras(self) -> Dict[str, float]:
        return {"experiments.simulations": self.simulations}


# ----------------------------------------------------------------------
# fleet-warm
# ----------------------------------------------------------------------


class FleetWarm(Workload):
    """``repro-fleet run`` on a profile store a cold run filled; each pass
    runs every policy of :data:`POLICIES` on a fresh store object."""

    SIZES = {"full": {"tenants": 2048}, "tiny": {"tenants": 24}}
    POLICIES = ("paper-governor", "tail-allocator")

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.tenants = self.SIZES[ctx.size]["tenants"]
        self.store_dir: Optional[Path] = None
        self.references: Dict[str, bytes] = {}
        self.setups = 0
        self._cold_store = None
        self.hits = 0
        self.misses = 0

    def _config(self, policy: str):
        from repro.fleet.engine import FleetConfig

        return FleetConfig(tenants=self.tenants, seed=self.ctx.seed,
                           policy=policy)

    def _store(self, directory: Path):
        from repro.fleet.profile_cache import ProfileCache
        from repro.fleet.profiles import ProfileStore

        return ProfileStore(cache=ProfileCache(directory))

    def setup(self) -> None:
        import repro.fleet.engine as engine
        from repro.fleet.report import report_identity_bytes

        self.setups += 1
        directory = self.ctx.root / f"fleet-profiles-{self.setups}"
        store = self._store(directory)
        report = engine.run_fleet(self._config(self.POLICIES[0]), store=store)
        self.store_dir = directory
        self.references = {self.POLICIES[0]: report_identity_bytes(report)}
        self._cold_store = store

    def _reference(self, policy: str) -> bytes:
        """Report bytes of ``policy`` over the cold run's profiles."""
        import repro.fleet.engine as engine
        from repro.fleet.report import report_identity_bytes

        if policy not in self.references:
            report = engine.run_fleet(self._config(policy),
                                      store=self._cold_store)
            self.references[policy] = report_identity_bytes(report)
        return self.references[policy]

    def run_pass(self, patches: Patches, inputs: None):
        import repro.fleet.engine as engine
        import repro.fleet.report as report_mod

        reports = {}
        for policy in self.POLICIES:
            report = engine.run_fleet(self._config(policy),
                                      store=self._store(self.store_dir))
            report_mod.render_report(report)
            reports[policy] = report
        return reports

    def check(self, reports) -> None:
        from repro.fleet.report import report_identity_bytes

        checks = self.ctx.checks
        for policy, report in reports.items():
            checks.expect(
                report_identity_bytes(report) == self._reference(policy),
                f"{policy}: warm report differs from the cold run",
            )
            diagnostics = report.diagnostics
            built = diagnostics["profiles_built"]
            checks.expect(built == 0,
                          f"{policy}: warm pass simulated {built} profiles")
            self.hits = diagnostics["cache_hits"]
            self.misses = built

    def report(self) -> Dict[str, float]:
        runs = self.tenants * len(self.POLICIES)
        return {"tenants_per_s": runs / statistics.median(self.pass_walls),
                "tenants": self.tenants, "store_hits": self.hits,
                "store_misses": self.misses}


def workload_classes() -> Dict[str, type]:
    from repobench.serveload import ServeUnique

    return {
        "paper-eval": PaperEval,
        "govern": Govern,
        "fleet-warm": FleetWarm,
        "serve-unique": ServeUnique,
    }
