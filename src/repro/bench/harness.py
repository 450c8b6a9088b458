"""The ``python -m repro.bench`` command line and what every bench shares.

Each bench module has ``run(args) -> payload`` and ``summary(payload)``;
:func:`main` runs one, adds a :func:`host_info` block, writes the
payload, prints the summary and gates it (:func:`repro.bench.gates.check`).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.bench.gates import OPTIONS, check

#: Bench name -> one-line description (``--help``).
BENCHES = {
    "hotpath": "DES core on the pinned hot-path workload, fast vs classic",
    "batch": "32-instance corpus, simulate_batch vs sequential simulate",
    "sweep": "figures grid and governor quanta, sweep kernels vs scalar",
    "fleet": "fleet profile build, naive vs batched cold vs warm store",
    "serve": "closed- and open-loop load on a 4-worker serve pool",
}


def wall_stats(walls: Sequence[float]) -> Dict[str, float]:
    """Explicit min/median/mean of a phase's wall times.

    Payloads record all three so no reader guesses which statistic a
    headline is (the minimum — the rep least disturbed by noise — unless
    a bench says otherwise).
    """
    return {
        "min": min(walls),
        "median": statistics.median(walls),
        "mean": statistics.fmean(walls),
    }


def env_scale() -> float:
    """Workload length scale: ``REPRO_SCALE``, default 1.0."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def git_sha(path: Optional[Path] = None) -> Optional[str]:
    """HEAD of the git checkout holding ``path``; None outside one."""
    where = path or Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "-C", str(where), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_info() -> Dict[str, object]:
    """What a payload's ratios depend on: CPUs, versions, commit."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Time a pinned workload on its fast and reference "
                    "paths; optionally gate it against a committed "
                    "BENCH_*.json. Scale follows REPRO_SCALE.",
    )
    sub = parser.add_subparsers(dest="bench", required=True)
    for name, help_text in BENCHES.items():
        bench = sub.add_parser(name, help=help_text, description=help_text)
        bench.add_argument("--out", default=f"BENCH_{name}.json",
                           help="output JSON path")
        bench.add_argument(
            "--check", metavar="BASELINE", default=None,
            help="gate the run against a committed BENCH_*.json; exit 1 "
                 "when a gate fails",
        )
        if name == "serve":
            _serve_arguments(bench)
            continue
        bench.add_argument(
            "--reps", type=int, default=1 if name == "fleet" else 3,
            help="repetitions per timed side (min/median/mean recorded)",
        )
        if name == "fleet":
            bench.add_argument("--tenants", type=int, default=512,
                               help="fleet size to draw")
    return parser


def _serve_arguments(serve: argparse.ArgumentParser) -> None:
    serve.add_argument("--duration", type=float, default=3.0,
                       help="measurement window per phase in seconds")
    serve.add_argument("--clients", type=int, default=80,
                       help="client connections of the open-loop phase")
    serve.add_argument("--compare-single", action="store_true",
                       help="rerun the load on one worker and record the "
                            "multi/single throughput ratio")
    serve.add_argument("--max-p99-ms", type=float, default=None,
                       help="fail if the closed-loop p99 exceeds this")
    serve.add_argument("--max-miss-rate", type=float, default=None,
                       help="fail if the open-loop deadline-miss rate "
                            "exceeds this fraction")
    serve.add_argument("--min-ratio", type=float, default=None,
                       help="fail if the multi/single throughput ratio is "
                            "below this (needs --compare-single)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; 1 when a gate fails."""
    args = build_parser().parse_args(argv)
    baseline = json.loads(Path(args.check).read_text()) if args.check else None
    module = importlib.import_module(f"repro.bench.{args.bench}")
    payload = module.run(args)
    payload["host"] = host_info()
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(module.summary(payload))
    print(f"wrote {args.out}")
    limits = {option: getattr(args, option, None) for option in OPTIONS}
    failures = check(args.bench, payload, baseline, limits)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0
