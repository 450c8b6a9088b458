"""Fleet policy study: the policy × power-cap grid, one drawn fleet.

The paper evaluates its predictor inside one JVM at a time; this driver
asks what the same prediction machinery buys a *fleet*: hundreds of
energy-managed tenants arriving on an open-loop process, stepped
through :mod:`repro.fleet` under every registered policy at every power
cap of :data:`CAPS_W` — the full grid of
:mod:`repro.fleet.grid` over one drawn population. Profiles are built
once (batched, persisted in the fleet profile cache when the suite's
cache is on) and shared by every cell, which fan out over worker
processes when ``--jobs`` asks. Reported per cell: aggregate energy against the
all-max-frequency baseline, mean and tail slowdown, SLA misses, and
peak fleet power — plus the per-tenant static-oracle bound
(:mod:`repro.energy.static_oracle`), the best any frequency-per-tenant
assignment could do with hindsight (cap-independent, so one row).

The run is deterministic from the study seed at any ``--jobs`` width:
the same table — and the same ``--out`` figure JSON from the
``python -m repro.experiments.fleet_study`` renderer the CI smoke
byte-compares — regenerates identically on every invocation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from repro.experiments.report import ExperimentResult, pct_abs
from repro.experiments.runner import ExperimentRunner
from repro.fleet.grid import DEFAULT_CAPS_W, GridConfig, grid_bytes, run_grid
from repro.fleet.profile_cache import ProfileCache

#: Fleet drawn for the study (big enough that every builtin family and
#: both quanta appear; small enough for the experiment suite's budget).
FLEET_TENANTS = 256
#: Study seed: tenant draw + arrival process.
FLEET_SEED = 42
#: Power caps (W) of the grid — from starved to unconstrained.
CAPS_W = DEFAULT_CAPS_W


def work(config):
    """Fleet profiles are tenant-shaped, not benchmark-shaped: nothing
    in the shared ground-truth cache applies, so there is no prefetch."""
    return []


def _grid_config(tenants: int = None, seed: int = None) -> GridConfig:
    return GridConfig(
        tenants=FLEET_TENANTS if tenants is None else tenants,
        seed=FLEET_SEED if seed is None else seed,
        caps_w=CAPS_W,
    )


def profile_cache_for(runner: ExperimentRunner) -> Optional[ProfileCache]:
    """The fleet profile cache riding the suite's result cache.

    Lives under the result cache's directory (so ``--cache-dir`` and
    ``REPRO_CACHE_DIR`` govern both and ``--no-cache`` disables both).
    """
    if getattr(runner, "cache", None) is None:
        return None
    return ProfileCache(Path(runner.cache.root) / "fleet-profiles")


def run(runner: ExperimentRunner) -> ExperimentResult:
    """Evaluate every fleet policy at every cap over one population."""
    config = _grid_config()
    payload = run_grid(
        config,
        jobs=getattr(runner, "jobs", 1),
        cache=profile_cache_for(runner),
    )
    result = ExperimentResult(
        experiment_id="Fleet study",
        title=(
            f"Fleet policy × cap grid, {FLEET_TENANTS} tenants, seed "
            f"{FLEET_SEED}, caps {'/'.join(f'{c:.0f}' for c in sorted(CAPS_W))} W"
        ),
        headers=["policy", "cap W", "energy (J)", "vs all-max",
                 "mean slowdown", "p99 slowdown", "SLA miss", "peak W"],
        notes="static-oracle row is the per-tenant hindsight bound, not "
        "a schedulable policy; capped policies respect the fleet power "
        "cap, uncapped ones ignore it (their rows repeat across caps)",
    )
    oracle_energy = None
    for cell in payload["cells"]:
        oracle_energy = cell["oracle_energy_j"]
        capped = "" if cell["cap_violations"] == 0 else " (CAP!)"
        result.rows.append(
            (
                cell["policy"],
                f"{cell['power_cap_w']:.0f}",
                f"{cell['energy_j']:.3f}",
                pct_abs(cell["energy_saving_vs_max"]) + " saved",
                pct_abs(cell["mean_slowdown"]),
                pct_abs(cell["p99_slowdown"]),
                pct_abs(cell["sla_miss_rate"]),
                f"{cell['peak_power_w']:.0f}{capped}",
            )
        )
    if oracle_energy is not None:
        result.rows.append(
            ("static-oracle/tenant", "", f"{oracle_energy:.3f}",
             "", "", "", "", "")
        )
    return result


def write_figure(path, runner: ExperimentRunner, jobs: int = 1):
    """Write the grid figure JSON; return the payload."""
    payload = run_grid(
        _grid_config(), jobs=jobs, cache=profile_cache_for(runner)
    )
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(grid_bytes(payload))
    return payload


def main(argv=None) -> int:
    """``python -m repro.experiments.fleet_study --out fleet_grid.json``.

    The standalone figure renderer the CI smoke job runs serially and
    at ``--jobs 4`` and byte-compares (execution diagnostics are
    excluded from the figure, so the two runs must match exactly).
    """
    parser = argparse.ArgumentParser(
        description="Render the fleet policy x power-cap grid figure JSON."
    )
    parser.add_argument("--out", required=True, help="output JSON path")
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for the grid cells",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the persistent caches",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent cache location (default: REPRO_CACHE_DIR)",
    )
    args = parser.parse_args(argv)
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import get_runner

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir)
    runner = get_runner(cache=cache)
    payload = write_figure(args.out, runner, jobs=args.jobs)
    print(f"wrote {args.out}: {len(payload['cells'])} grid cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
