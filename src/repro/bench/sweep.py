"""Sweep bench: simulate-once / predict-many vs the scalar loops.

* **figures** — the fig3-style error grid (every predictor × target, both
  directions): ``predict_total_ns`` per (predictor, target) pair vs one
  cold :class:`TraceSweep` decomposition per trace plus its kernels;
* **governor** — an :class:`EnergyManagerSession` stepped over managed
  runs' quanta, scoring all 25 V/f set points one ``predict_epochs`` per
  candidate (``sweep=False``) vs one kernel call (``sweep=True``).

Both sides must agree exactly — grids value for value, decision logs
entry for entry; the bench exits ``FATAL`` otherwise.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from repro.arch.specs import haswell_i7_4770k
from repro.bench.harness import env_scale, wall_stats
from repro.core.predictors import make_predictor, predictor_names
from repro.core.sweep import TraceSweep
from repro.energy.manager import (
    EnergyManager,
    EnergyManagerSession,
    ManagerConfig,
    interval_epochs,
)
from repro.sim.run import simulate, simulate_managed
from repro.workloads.dacapo import build_dacapo

BENCHMARKS = ("xalan", "lusearch")
QUANTUM_NS = 1.0e6
#: The fig3 grid: (base GHz, targets GHz) in both directions.
DIRECTIONS = (
    (1.0, (1.5, 2.0, 2.5, 3.0, 3.5, 4.0)),
    (4.0, (1.0, 1.5, 2.0, 2.5, 3.0, 3.5)),
)


def figures_inputs(benchmarks: Sequence[str], scale: float):
    """Base traces of the error-grid workload (built outside the timing)."""
    traces = []
    for benchmark in benchmarks:
        program = build_dacapo(benchmark, scale)
        for base, targets in DIRECTIONS:
            traces.append((simulate(program, base).trace, list(targets)))
    return traces


def time_figures(traces, reps: int):
    """(scalar walls, sweep walls); FATAL when the grids differ."""
    predictors = [make_predictor(name) for name in predictor_names()]
    scalar_walls: List[float] = []
    sweep_walls: List[float] = []
    scalar_out = sweep_out = None
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        scalar_out = [
            [
                [predictor.predict_total_ns(trace, t) for t in targets]
                for predictor in predictors
            ]
            for trace, targets in traces
        ]
        scalar_walls.append(time.perf_counter() - start)
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        sweep_out = [
            [
                TraceSweep(trace).predict(predictor, targets)
                for predictor in predictors
            ]
            for trace, targets in traces
        ]
        sweep_walls.append(time.perf_counter() - start)
    if scalar_out != sweep_out:
        raise SystemExit("FATAL: sweep and scalar figure grids diverge")
    return scalar_walls, sweep_walls


def governor_inputs(benchmarks: Sequence[str], scale: float):
    """Pre-extracted (record, epochs) steps of real managed runs."""
    spec = haswell_i7_4770k()
    config = ManagerConfig(tolerable_slowdown=0.10)
    steps = []
    for benchmark in benchmarks:
        program = build_dacapo(benchmark, scale)
        manager = EnergyManager(spec, config)
        trace = simulate_managed(
            program, manager, spec=spec, quantum_ns=QUANTUM_NS
        ).trace
        for record in trace.intervals[:-1]:
            steps.append((record, interval_epochs(record, trace)))
    return spec, config, steps


def time_governor(spec, config, steps, reps: int):
    """(scalar walls, sweep walls); FATAL when the decisions differ."""
    walls: Dict[bool, List[float]] = {True: [], False: []}
    logs = {}
    for sweep in (False, True):
        for _ in range(max(1, reps)):
            session = EnergyManagerSession(
                spec, config, predictor=make_predictor("DEP+BURST"),
                sweep=sweep,
            )
            start = time.perf_counter()
            for record, epochs in steps:
                session.step(record, epochs)
            walls[sweep].append(time.perf_counter() - start)
            logs[sweep] = [
                (d.interval_index, d.base_freq_ghz, d.chosen_freq_ghz,
                 d.predicted_slowdown)
                for d in session.decisions
            ]
    if logs[True] != logs[False]:
        raise SystemExit("FATAL: sweep and scalar governor decisions diverge")
    return walls[False], walls[True]


def _entry(name, scalar_walls, sweep_walls, detail):
    scalar, sweep = wall_stats(scalar_walls), wall_stats(sweep_walls)
    return {
        "workload": name,
        **detail,
        "scalar_wall_s": scalar["min"],
        "sweep_wall_s": sweep["min"],
        "scalar_wall_stats_s": scalar,
        "sweep_wall_stats_s": sweep,
        "speedup": scalar["min"] / sweep["min"],
    }


def bench_payload(scale: float = 1.0, reps: int = 3) -> Dict:
    """The ``BENCH_sweep.json`` payload."""
    traces = figures_inputs(BENCHMARKS, scale)
    fig_scalar, fig_sweep = time_figures(traces, reps)
    n_preds = len(predictor_names()) * sum(len(t) for _, t in traces)
    figures = _entry(
        "figures_grid", fig_scalar, fig_sweep,
        {"traces": len(traces), "predictions": n_preds},
    )
    spec, config, steps = governor_inputs(BENCHMARKS, scale)
    gov_scalar, gov_sweep = time_governor(spec, config, steps, reps)
    governor = _entry(
        "governor_quantum", gov_scalar, gov_sweep,
        {"quanta": len(steps), "candidates": len(spec.frequencies())},
    )
    return {
        "benchmark": "sweep_engine",
        "benchmarks": list(BENCHMARKS),
        "scale": scale,
        "reps": reps,
        "quantum_ns": QUANTUM_NS,
        "predictors": list(predictor_names()),
        "results": [figures, governor],
        "pipeline_speedup": (
            (figures["scalar_wall_s"] + governor["scalar_wall_s"])
            / (figures["sweep_wall_s"] + governor["sweep_wall_s"])
        ),
    }


def run(args) -> Dict:
    return bench_payload(scale=env_scale(), reps=args.reps)


def summary(payload) -> str:
    lines = [
        f"{entry['workload']:>16}: scalar {entry['scalar_wall_s']:.3f}s "
        f"-> sweep {entry['sweep_wall_s']:.3f}s = {entry['speedup']:.2f}x"
        for entry in payload["results"]
    ]
    lines.append(f"pipeline speedup: {payload['pipeline_speedup']:.2f}x")
    return "\n".join(lines)
