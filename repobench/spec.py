"""The benchmark's workloads and metrics.

``BENCHMARK.json`` at the repository root is the one source of the
workloads, the end-to-end and per-layer metric names, their units,
directions and bounds, and the run length; this module reads it. What
the file has no room for lives here and is printed by every run: the
held-out workload, what each timed pass covers, the workload-specific
report metrics and which end-to-end metric each per-layer metric
should move.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

#: Workload -> the one-sentence reason it was chosen.
WORKLOADS: Dict[str, str] = {
    w["name"]: w["why"] for w in BENCHMARK["workloads"]
}

#: Emitted by every workload with tracing off: name, unit, better, bound.
END_TO_END: List[dict] = BENCHMARK["end_to_end"]

#: Emitted by every workload with tracing on: name, unit, better.
PER_LAYER: List[dict] = BENCHMARK["per_layer"]

RUN_SECONDS: int = BENCHMARK["run_seconds"]

#: Workloads that run (``--workload <name>``, ``--workload all``) but
#: stay out of ``BENCHMARK.json`` while one of their output checks fails
#: on every seed.
HELD_OUT: Dict[str, str] = {
    "govern": (
        "Fig 6 energy-manager runs at 5 and 10 pct: the only path with "
        "governor steps and frequency changes on the blocking path; "
        "construction is set-up"
    ),
}

#: Why a held-out workload is held out.
HELD_OUT_REASON: Dict[str, str] = {
    "govern": (
        "check_trace fails on managed traces: at a frequency change the "
        "FREQ_CHANGE snapshot reports lower cumulative counters than the "
        "INTERVAL snapshot taken at the same instant "
        "(check_counter_monotonicity)"
    ),
}

#: What ``wall_s`` and ``setup_s`` time on each workload.
PASS_DEFINITION: Dict[str, Dict[str, str]] = {
    "paper-eval": {
        "setup_s": "fresh interpreter importing the figure drivers",
        "wall_s": "one cold Fig 3 grid, construction included",
    },
    "govern": {
        "setup_s": "build 7 programs and simulate each at 4 GHz",
        "wall_s": "14 managed runs (7 models x 5/10 pct)",
    },
    "fleet-warm": {
        "setup_s": "cold repro-fleet run filling a fresh profile store",
        "wall_s": "one warm run of paper-governor and one of "
                  "tail-allocator, each on a fresh store object",
    },
    "serve-unique": {
        "setup_s": "start repro-serve and wait for its ready line",
        "wall_s": "answer a burst of unique predicts on 2 connections",
    },
}

#: Workload -> its own report metrics (name, unit, better), printed
#: with the result; simulated ones repeat exactly for a given seed. An
#: empty ``better`` marks context (a setting or a count), not a result.
REPORT_METRICS: Dict[str, List[Tuple[str, str, str]]] = {
    "paper-eval": [
        ("dep_burst_err_up_pct", "%", "lower"),
        ("dep_burst_err_down_pct", "%", "lower"),
    ],
    "govern": [
        ("governor_step_p50_us", "us", "lower"),
        ("governor_step_p90_us", "us", "lower"),
        ("energy_saved_pct", "%", "higher"),
        ("slowdown_pct", "%", "lower"),
    ],
    "fleet-warm": [
        # Tenant runs (tenants x policies) per second of the pass.
        ("tenants_per_s", "1/s", "higher"),
    ],
    "serve-unique": [
        ("serve_p50_ms", "ms", "lower"),
        ("serve_p99_ms", "ms", "lower"),
        ("serve_max_rps", "1/s", "higher"),
        ("serve_fixed_rate", "1/s", ""),
    ],
}

#: Printed by every untraced run: the timings before host-speed scaling.
RAW_TIMINGS: List[Tuple[str, str, str]] = [
    ("wall_raw_s", "s", "lower"),
    ("setup_raw_s", "s", "lower"),
    ("host_probe_ms", "ms", ""),
]

#: Per-layer metric -> what it should move, as "metric@workload".
MOVES: Dict[str, str] = {
    "workloads.build_s": "wall_s@paper-eval setup_s@govern setup_s@fleet-warm",
    "workloads.builds": "wall_s@paper-eval",
    "workloads.segments": "wall_s@paper-eval",
    "workloads.build_us_per_segment":
        "wall_s@paper-eval "
        "setup_s@govern setup_s@fleet-warm",
    "sim.run_s": "wall_s@paper-eval wall_s@govern setup_s@fleet-warm",
    "sim.runs": "wall_s@paper-eval wall_s@govern",
    "sim.events": "wall_s@paper-eval wall_s@govern",
    "sim.insns": "wall_s@paper-eval wall_s@govern",
    "sim.simulated_ms": "wall_s@paper-eval wall_s@govern",
    "sim.freq_changes": "wall_s@govern",
    "sim.host_ns_per_insn": "wall_s@paper-eval wall_s@govern",
    "sim.host_us_per_event": "wall_s@paper-eval wall_s@govern",
    "core.decompose_s": "wall_s@paper-eval tenants_per_s@fleet-warm",
    "core.epochs": "wall_s@paper-eval",
    "core.predict_s":
        "wall_s@paper-eval "
        "tenants_per_s@fleet-warm serve_p99_ms@serve-unique",
    "core.cells": "wall_s@paper-eval",
    "core.predict_us_per_cell": "wall_s@paper-eval tenants_per_s@fleet-warm",
    "energy.step_s":
        "governor_step_p50_us@govern "
        "wall_s@govern tenants_per_s@fleet-warm",
    "energy.steps": "wall_s@govern",
    "energy.setpoint_changes": "wall_s@govern",
    "energy.account_s": "wall_s@paper-eval wall_s@govern",
    "experiments.self_s": "wall_s@paper-eval",
    "experiments.simulations": "wall_s@paper-eval",
    "fleet.profiles_s": "tenants_per_s@fleet-warm",
    "fleet.profiles": "tenants_per_s@fleet-warm",
    "fleet.profile_hit_ratio": "tenants_per_s@fleet-warm",
    "fleet.engine_s": "tenants_per_s@fleet-warm",
    "fleet.tenants": "tenants_per_s@fleet-warm",
    "fleet.engine_us_per_tenant": "tenants_per_s@fleet-warm",
    "fleet.report_s": "tenants_per_s@fleet-warm",
    "common.store_s": "tenants_per_s@fleet-warm",
    "common.store_hits": "tenants_per_s@fleet-warm",
    "common.store_misses": "setup_s@fleet-warm",
    "serve.requests": "serve_max_rps@serve-unique",
    "serve.failed": "serve_p99_ms@serve-unique",
    "serve.batch_size_mean": "serve_max_rps@serve-unique",
    "serve.cache_hit_rate": "serve_p99_ms@serve-unique",
    "serve.gen_lag_ms_p99": "serve_p99_ms@serve-unique",
    "serve.client_s": "serve_max_rps@serve-unique",
    "trace.overhead_pct": "none",
}

#: Per-layer counts that must repeat exactly for a given seed.
EXACT_COUNTS = ("sim.insns", "sim.events", "core.epochs", "energy.steps",
                "fleet.profiles")
