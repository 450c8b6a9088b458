"""The repository benchmark: one command, four workloads (three gated).

Run from the repository root::

    python3 repobench/run.py --workload paper-eval --seed 0 --seconds 10 --trace 0
    python3 repobench/run.py --workload all           # every workload, untraced
    python3 repobench/run.py --workload govern --trace 1

With ``--trace 0`` a run times the workload's set-up (``setup_s``, the
median of several set-ups) and its pass (``wall_s``, the median of the
passes that fit in ``--seconds``), each set-up and pass scaled to the
reference host speed by the host probes sampled just before and after
it in a process of its own (:mod:`repobench.probe`; the raw seconds
are printed too), and reports ``peak_rss_mb``. With ``--trace 1`` it
wraps each ``repro`` layer's entry points in spans, alternates traced
and untraced passes, and reports the per-layer metrics and
``trace.overhead_pct``; the spans of the traced set-up and last traced
pass are written to ``.repobench/<workload>-seed<N>.trace.json``
(Chrome trace-event JSON: open it in Perfetto) next to a per-layer
self-time table.

Every run prints its metrics with units and directions, the workload's
own report metrics, the host block and the share of failed operations;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
#: Run directories and trace output, inside the checkout.
OUT_DIR = Path(".repobench")
MIN_PASSES = 3
#: Host probe samples in the burst between two set-ups or passes.
PROBE_BURST = 8


def _ensure_repro() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"repobench: no repro package under {src}")
    sys.path.insert(0, str(src))


def host_block() -> Dict[str, object]:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def _timed_setup(workload) -> float:
    start = time.perf_counter()
    own = workload.setup()
    elapsed = time.perf_counter() - start
    return own if own is not None else elapsed


def _timed_pass(workload, install, tracer=None) -> tuple:
    """One pass with ``install(patches)``'s wrappers in place; under a
    root ``pass`` span when ``tracer`` is given. The pass's inputs are
    made before its timer starts."""
    from repobench.spans import Patches

    inputs = workload.prepare()
    gc.collect()
    with Patches() as patches:
        install(patches)
        root = tracer.open("pass", "bench") if tracer else None
        start = time.perf_counter()
        output = workload.run_pass(patches, inputs)
        wall = time.perf_counter() - start
        if root:
            tracer.close(root)
    return wall, output


def measure(workload, seconds: float) -> tuple:
    """Untraced run: the end-to-end metrics, and their raw seconds.

    Bursts of host probes bracket each set-up and pass, and each time
    is scaled to the reference host speed by the mean of the bursts
    just before and just after it (see :mod:`repobench.probe`);
    ``wall_s`` and ``setup_s`` are the medians of the scaled times.
    """
    from repobench.probe import REFERENCE_S, ProbeProcess

    times: Dict[str, List[float]] = {"setup_s": [], "wall_s": []}
    scaled: Dict[str, List[float]] = {"setup_s": [], "wall_s": []}
    probes: List[float] = []
    cpus = os.sched_getaffinity(0)
    cpu = workload.pin(sorted(cpus))
    try:
        with ProbeProcess(cpu) as probe:
            probes.extend(probe.sample(PROBE_BURST))

            def timed(key, elapsed):
                probes.extend(probe.sample(PROBE_BURST))
                host = statistics.fmean(probes[-2 * PROBE_BURST:])
                times[key].append(elapsed)
                scaled[key].append(elapsed * REFERENCE_S / host)

            for _ in range(workload.setup_repeats):
                timed("setup_s", _timed_setup(workload))
            started = time.perf_counter()
            while (len(times["wall_s"]) < MIN_PASSES
                   or time.perf_counter() - started < seconds):
                wall, output = _timed_pass(workload, workload.time_steps)
                timed("wall_s", wall)
                workload.check(output)
                del output
    finally:
        os.sched_setaffinity(0, cpus)
    workload.pass_walls = times["wall_s"]
    workload.after_passes(traced=False)
    raw = {"wall_raw_s": statistics.median(times["wall_s"]),
           "setup_raw_s": statistics.median(times["setup_s"]),
           "host_probe_ms": 1e3 * statistics.fmean(probes)}
    return {
        "wall_s": statistics.median(scaled["wall_s"]),
        "peak_rss_mb": workload.peak_rss_mb(),
        "setup_s": statistics.median(scaled["setup_s"]),
    }, raw


def measure_traced(workload, seconds: float, trace_path: Path) -> Dict[str, float]:
    """Traced run: per-layer metrics from the spans of one traced set-up
    and the last traced pass; tracing overhead from traced passes
    alternated with untraced ones."""
    from repobench import layers, spec
    from repobench.spans import (Patches, Tracer, chrome_trace,
                                 format_layer_table, layer_table)

    tracer = Tracer()

    def install(patches):
        layers.install(tracer, patches)

    with Patches() as patches:
        install(patches)
        root = tracer.open("setup", "bench")
        workload.setup()
        tracer.close(root)
    tracer.settle()
    setup_spans = tracer.spans
    untraced: List[float] = []
    traced: List[float] = []
    started = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - started < seconds:
        wall, output = _timed_pass(workload, lambda patches: None)
        untraced.append(wall)
        workload.check(output)
        tracer.spans = []
        wall, output = _timed_pass(workload, install, tracer)
        traced.append(wall)
        tracer.settle()
        workload.check(output)
    workload.pass_walls = untraced
    workload.after_passes(traced=True)
    offset = len(setup_spans)
    for span in tracer.spans:
        span.span_id += offset
        if span.parent is not None:
            span.parent += offset
    spans = setup_spans + tracer.spans
    metrics = {m["name"]: 0.0 for m in spec.PER_LAYER}
    metrics.update(layers.layer_metrics(spans))
    metrics.update(workload.layer_extras())
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(chrome_trace(spans)))
    trace_path.with_suffix(".layers.txt").write_text(
        format_layer_table(layer_table(spans)) + "\n"
    )
    print(f"# spans: {trace_path} ({len(spans)} spans)")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", out_dir: Optional[Path] = None) -> dict:
    """One run; returns the result object printed as the last line."""
    from repobench import spec
    from repobench.workloads import Context, workload_classes

    out_dir = OUT_DIR if out_dir is None else out_dir
    run_dir = out_dir / f"run-{os.getpid()}-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ctx = Context(seed=seed, root=run_dir.resolve(), size=size)
    workload = workload_classes()[name](ctx)
    try:
        if trace:
            values = measure_traced(
                workload, seconds, out_dir / f"{name}-seed{seed}.trace.json")
            raw = {}
            units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
        else:
            values, raw = measure(workload, seconds)
            units = {m["name"]: m["unit"] for m in spec.END_TO_END}
        report = dict(workload.report(), **raw)
    finally:
        workload.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    checks = ctx.checks
    return {
        "workload": name,
        "seed": seed,
        "why": {**spec.WORKLOADS, **spec.HELD_OUT}[name],
        "measures": spec.PASS_DEFINITION[name],
        "report": report,
        "pass_walls_s": workload.pass_walls,
        "check_failures": checks.messages,
        "result": {
            "correct": checks.failed == 0,
            "attempted": max(checks.attempted, 1),
            "failed": checks.failed,
            "metrics": {
                key: {"value": values[key], "unit": unit}
                for key, unit in units.items()
            },
        },
    }


def print_run(outcome: dict) -> None:
    from repobench import spec

    better = {m["name"]: m["better"]
              for m in spec.END_TO_END + spec.PER_LAYER}
    report_units = {m[0]: (m[1], m[2]) for m in
                    spec.REPORT_METRICS[outcome["workload"]] + spec.RAW_TIMINGS}
    result = outcome["result"]
    print(f"# {outcome['workload']} (seed {outcome['seed']}): {outcome['why']}")
    for key, metric in result["metrics"].items():
        moves = (f"; should move {spec.MOVES[key]}" if key in spec.MOVES
                 else "")
        print(f"{key:<34} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"({better[key]} is better{moves})")
    for key, value in outcome["report"].items():
        unit, direction = report_units.get(key, ("count", ""))
        note = f"({direction} is better)" if direction else ""
        print(f"  report {key:<27} {value:>14.6g} {unit:<6} {note}")
    share = result["failed"] / result["attempted"]
    print(f"failed operations: {result['failed']}/{result['attempted']} "
          f"({100 * share:.3f} %)")
    for message in outcome["check_failures"]:
        print(f"# check failed: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    from repobench import spec

    _ensure_repro()
    known = [*spec.WORKLOADS, *spec.HELD_OUT]
    names = known if args.workload == "all" else [args.workload]
    for name in names:
        if name not in known:
            parser.error(f"unknown workload {name!r}; choose from "
                         f"{', '.join(known)} or all")
        if name in spec.HELD_OUT:
            print(f"# {name} is held out of BENCHMARK.json: "
                  f"{spec.HELD_OUT_REASON[name]}")
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    context = {"host": host_block(), "seconds": seconds,
               "trace": bool(args.trace)}
    results = []
    for name in names:
        outcome = run_workload(name, args.seed, seconds, bool(args.trace),
                               size=args.size)
        print_run(outcome)
        print(json.dumps(dict(
            context, **{k: v for k, v in outcome.items() if k != "result"})))
        results.append(outcome["result"])
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}/{key}": value for name, r in
                        zip(names, results) for key, value in
                        r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
