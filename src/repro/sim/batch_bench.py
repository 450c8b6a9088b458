"""Benchmark for batched simulation: one corpus, batched vs sequential.

The workload is a pinned 32-instance corpus — four synthetic memory-heavy
families, each simulated at eight chip set points — chosen to look like
the consumers batching exists for (a figure grid's frequency fan-out, a
fuzz corpus's seed fan-out). The families are GC-free and lock-free so
the runs are dominated by static-program timing, the cost
:func:`repro.sim.batch.simulate_batch` amortizes: one multi-frequency
columnar warm per (program, spec) group instead of one full warm per
instance.

Both sides produce byte-identical traces (checked here on every run, and
pinned independently by ``tests/sim/test_batch_differential.py`` and the
``batch-single-identity`` invariant); the benchmark records the wall-clock
ratio. ``tools/bench_batch.py`` wraps this module into the committed
``BENCH_batch.json`` artifact and the CI ``bench-batch`` gate.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

from repro.arch.specs import MachineSpec, haswell_i7_4770k
from repro.sim.batch import BatchInstance, run_batch
from repro.sim.bench import wall_stats
from repro.sim.run import simulate
from repro.sim.serialize import trace_bytes
from repro.workloads.program import Program
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    build_synthetic_program,
)

#: Chip set points each family is simulated at (all valid Haswell steps).
CORPUS_FREQS: Tuple[float, ...] = (
    1.0, 1.375, 1.875, 2.25, 2.625, 3.0, 3.5, 4.0,
)


def corpus_families() -> List[SyntheticWorkloadConfig]:
    """The four pinned workload families of the benchmark corpus.

    All are allocation-free (no GC cycles) and lock-free, with dense
    LLC-miss cluster chains — the regime where per-instance warm time
    dominates wall clock and batching has something real to amortize.
    They differ in thread count, cluster density, chain depth, phase
    behaviour, and memory skew so the corpus is not one workload copied
    four times.
    """
    # Few large units rather than many small ones: timing cost scales
    # with total instructions (cluster count) while event-loop cost
    # scales with unit count, so this shape keeps the benchmark measuring
    # the warm the batch engine amortizes, not the per-lane event loop
    # both sides pay identically.
    base = dict(
        unit_insns=8_000_000,
        unit_insns_cv=0.25,
        cpi=0.6,
        chain_locality=0.4,
        alloc_bytes_per_unit=0,
        cs_probability=0.0,
        heap_mb=64,
        nursery_mb=16,
        survival_rate=0.1,
    )
    return [
        SyntheticWorkloadConfig(
            name="batch_mem", seed=11, n_threads=3, n_units=100,
            clusters_per_kinsn=2.0, chain_depth_mean=2.2,
            phase_amplitude=0.3, phase_periods=4.0, memory_skew=0.3,
            **base,
        ),
        SyntheticWorkloadConfig(
            name="batch_deep", seed=23, n_threads=2, n_units=90,
            clusters_per_kinsn=1.4, chain_depth_mean=3.5,
            phase_amplitude=0.0, memory_skew=0.0,
            **base,
        ),
        SyntheticWorkloadConfig(
            name="batch_skew", seed=37, n_threads=4, n_units=80,
            clusters_per_kinsn=2.4, chain_depth_mean=1.8,
            phase_amplitude=0.2, phase_periods=6.0, memory_skew=0.6,
            **base,
        ),
        SyntheticWorkloadConfig(
            name="batch_phase", seed=53, n_threads=3, n_units=90,
            clusters_per_kinsn=1.8, chain_depth_mean=2.6,
            phase_amplitude=0.5, phase_periods=3.0, memory_skew=0.2,
            **base,
        ),
    ]


def build_corpus(
    scale: float = 1.0,
) -> Tuple[MachineSpec, List[Program], List[BatchInstance]]:
    """(spec, programs, 32 instances): families × :data:`CORPUS_FREQS`."""
    spec = haswell_i7_4770k()
    programs = [
        build_synthetic_program(config.scaled(scale))
        for config in corpus_families()
    ]
    instances = [
        # Coarse quantum: fixed-frequency corpus runs need the trace, not
        # a fine-grained interval stream, and per-quantum bookkeeping is
        # identical on both sides — it would only dilute the measurement.
        BatchInstance(
            program=program, freq_ghz=freq, spec=spec,
            quantum_ns=5.0e7, label=f"{program.name}@{freq}",
        )
        for program in programs
        for freq in CORPUS_FREQS
    ]
    return spec, programs, instances


def time_corpus(
    spec: MachineSpec,
    instances: Sequence[BatchInstance],
    reps: int,
) -> Tuple[List[float], List[float]]:
    """(sequential walls, batched walls) over ``reps`` runs of each side.

    The sequential side runs :func:`repro.sim.run.simulate` once per
    instance — a fresh :class:`~repro.sim.system.System` each time, the
    pre-batch cost of a grid. Each batched rep calls
    :func:`~repro.sim.batch.run_batch` fresh, so every rep pays its own
    group prewarms. Exits with FATAL if any lane's trace diverges from
    its sequential twin.
    """
    sequential_walls: List[float] = []
    batched_walls: List[float] = []
    sequential_results = batched_results = None
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        sequential_results = [
            simulate(
                inst.program, inst.freq_ghz, spec=spec,
                quantum_ns=inst.quantum_ns,
            )
            for inst in instances
        ]
        sequential_walls.append(time.perf_counter() - start)
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        batched_results = run_batch(instances).results
        batched_walls.append(time.perf_counter() - start)
    for inst, seq, bat in zip(instances, sequential_results, batched_results):
        if trace_bytes(seq.trace) != trace_bytes(bat.trace):
            raise SystemExit(
                f"FATAL: batched trace diverges from sequential for "
                f"{inst.label or inst.program.name}"
            )
    return sequential_walls, batched_walls


def bench_payload(scale: float = 1.0, reps: int = 3) -> Dict:
    """The ``BENCH_batch.json`` payload (wall stats follow BENCH_sweep)."""
    spec, programs, instances = build_corpus(scale)
    sequential_walls, batched_walls = time_corpus(spec, instances, reps)
    sequential = wall_stats(sequential_walls)
    batched = wall_stats(batched_walls)
    return {
        "benchmark": "sim_batch",
        "scale": scale,
        "reps": reps,
        "families": [program.name for program in programs],
        "freqs_ghz": list(CORPUS_FREQS),
        "instances": len(instances),
        "results": [
            {
                "workload": "batch_corpus_32",
                "instances": len(instances),
                "sequential_wall_s": sequential["min"],
                "batch_wall_s": batched["min"],
                "sequential_wall_stats_s": sequential,
                "batch_wall_stats_s": batched,
                "speedup": sequential["min"] / batched["min"],
            }
        ],
    }
