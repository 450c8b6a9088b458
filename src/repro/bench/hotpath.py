"""Hot-path bench: the DES core on a pinned workload, fast vs classic.

The DES core's throughput bounds every sweep in the harness, so it is
tracked on a dedicated workload rather than whichever benchmark model
happens to be convenient. ``hotpath_stress`` is a GC-free, lock-free
synthetic program chosen to exercise exactly the paths the merged-plan
engine optimizes — segment timing, plan construction, the event queue,
trace appends — without the RNG-bound GC cycle generation that dominates
the DaCapo models and is invariant to engine improvements.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from repro.bench.harness import env_scale, wall_stats
from repro.sim.system import System
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    build_synthetic_program,
)

#: Frequency the benchmark runs at (mid-range Haswell set point).
BENCH_FREQ_GHZ = 2.5
#: Work units per thread at full scale (``REPRO_SCALE=1``).
FULL_SCALE_UNITS = 40_000
ENGINES = ("fast", "classic")
#: Wall time (s) of the engine before the merged-plan rewrite on the
#: full-scale workload; full-scale entries record their speedup over it.
SEED_WALL_S = 1.9897


def hotpath_stress_config(scale: float = 1.0) -> SyntheticWorkloadConfig:
    """The pinned benchmark workload, optionally length-scaled.

    Three application threads plus the JIT thread exactly fill the
    four-core machine, so the scheduler never oversubscribes and plans run
    at the full merge limit; allocation and critical sections are disabled
    so run time is spent in the DES core rather than in (engine-invariant)
    GC cycle generation.
    """
    return SyntheticWorkloadConfig(
        name="hotpath_stress", seed=212, n_threads=3,
        n_units=max(8, int(round(FULL_SCALE_UNITS * scale))),
        unit_insns=200_000, unit_insns_cv=0.3, cpi=0.55,
        clusters_per_kinsn=0.02, chain_depth_mean=1.6, chain_locality=0.5,
        alloc_bytes_per_unit=0, cs_probability=0.0, barrier_period=2000,
        phase_amplitude=0.4, phase_periods=6.0, memory_skew=0.2,
        heap_mb=64, nursery_mb=16, survival_rate=0.1,
    )


def run_bench(
    engine: str = "fast", scale: float = 1.0, reps: int = 3,
) -> Dict[str, object]:
    """Time ``engine`` on the benchmark workload; report the best of ``reps``.

    The program is built once outside the timed region (generation cost is
    engine-independent); each rep simulates it from scratch.
    """
    program = build_synthetic_program(hotpath_stress_config(scale))
    walls: List[float] = []
    events = segments = 0
    total_ns = 0.0
    for _ in range(max(1, reps)):
        system = System(program, freq_ghz=BENCH_FREQ_GHZ, engine=engine)
        start = time.perf_counter()
        trace = system.run()
        walls.append(time.perf_counter() - start)
        events = len(trace.events)
        segments = system.segments_timed
        total_ns = trace.total_ns
    wall_s = min(walls)
    return {
        "engine": engine,
        "scale": scale,
        "reps": len(walls),
        "wall_s": wall_s,
        "wall_stats_s": wall_stats(walls),
        "walls_s": walls,
        "events": events,
        "segments": segments,
        "events_per_sec": events / wall_s,
        "segments_per_sec": segments / wall_s,
        "simulated_ns": total_ns,
    }


def bench_payload(
    scale: float = 1.0, reps: int = 3, engines: Sequence[str] = ENGINES,
) -> Dict[str, object]:
    """The ``BENCH_hotpath.json`` document: one entry per engine."""
    results = [run_bench(engine, scale=scale, reps=reps) for engine in engines]
    for entry in results:
        if entry["scale"] == 1.0:
            entry["speedup_vs_baseline"] = SEED_WALL_S / entry["wall_s"]
    return {
        "workload": "hotpath_stress",
        "freq_ghz": BENCH_FREQ_GHZ,
        "scales": [scale],
        "full_scale_units": FULL_SCALE_UNITS,
        "results": results,
        "baseline_wall_s": SEED_WALL_S,
    }


def run(args) -> Dict[str, object]:
    return bench_payload(scale=env_scale(), reps=args.reps)


def summary(payload) -> str:
    return "\n".join(
        f"{entry['engine']:>8} @ scale {entry['scale']:g}: min "
        f"{entry['wall_stats_s']['min']:.3f}s / median "
        f"{entry['wall_stats_s']['median']:.3f}s "
        f"({entry['events_per_sec']:,.0f} events/s, "
        f"{entry['segments_per_sec']:,.0f} segments/s)"
        for entry in payload["results"]
    )
