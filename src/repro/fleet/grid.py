"""Policy × power-cap grids: the fleet-scale figure, fanned out.

One grid cell is one :func:`~repro.fleet.engine.run_fleet` call — a
policy and a power cap over the *same* drawn fleet — and the figure the
ROADMAP asks for ("energy/slowdown at datacenter scale") is the whole
grid. Cells share everything expensive:

* the parent builds (or warm-loads) the profile store **once**,
  serially, through a shared
  :class:`~repro.fleet.profile_cache.ProfileCache`;
* with ``jobs > 1`` the cells then fan out over
  :mod:`repro.common.pool`; each worker rehydrates its profiles from
  the warm cache (no simulation) and only a small aggregate dict rides
  the pipe home;
* a cell is a pure function of its configuration, so the grid payload
  is byte-identical at any ``jobs`` width — the CI smoke ``cmp``-s a
  serial and a parallel run of the figure writer.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.specs import MachineSpec, haswell_i7_4770k
from repro.common.errors import ConfigError
from repro.common.pool import each, exchange, partition, run_batches
from repro.fleet.engine import FleetConfig, run_fleet
from repro.fleet.policy import policy_names
from repro.fleet.profile_cache import ProfileCache
from repro.fleet.profiles import ProfileStore
from repro.fleet.report import report_identity_bytes

#: Schema version of the grid figure payload.
GRID_FORMAT_VERSION = 1

#: The ``kind`` field of a grid figure payload.
GRID_KIND = "repro-fleet-grid"

#: Default power caps (W) of the figure — from starved to unconstrained.
DEFAULT_CAPS_W = (150.0, 250.0, 400.0, 600.0)

#: Aggregate fields each cell carries into the figure payload.
_CELL_FIELDS = (
    "energy_j",
    "energy_saving_vs_max",
    "mean_slowdown",
    "p99_slowdown",
    "sla_miss_rate",
    "mean_queue_wait_ms",
    "peak_power_w",
    "cap_violations",
)


@dataclass(frozen=True)
class GridConfig:
    """One policy × cap grid over one drawn fleet."""

    tenants: int = 256
    seed: int = 42
    policies: Tuple[str, ...] = ()
    caps_w: Tuple[float, ...] = DEFAULT_CAPS_W
    rate_per_s: float = 4000.0
    corpus_dirs: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.caps_w:
            raise ConfigError("grid needs at least one power cap")
        if any(cap <= 0 for cap in self.caps_w):
            raise ConfigError("power caps must be positive")

    def effective_policies(self) -> Tuple[str, ...]:
        return self.policies or tuple(policy_names())

    def cells(self) -> List[Tuple[str, float]]:
        """Deterministic cell order: policy-major, ascending caps."""
        return [
            (policy, cap)
            for policy in self.effective_policies()
            for cap in sorted(self.caps_w)
        ]

    def fleet_config(self, policy: str, cap_w: float) -> FleetConfig:
        from repro.fleet.arrivals import ArrivalConfig

        return FleetConfig(
            tenants=self.tenants,
            seed=self.seed,
            policy=policy,
            power_cap_w=cap_w,
            arrivals=ArrivalConfig(rate_per_s=self.rate_per_s),
            corpus_dirs=self.corpus_dirs,
        )


def _run_cell(
    config: GridConfig,
    policy: str,
    cap_w: float,
    spec: MachineSpec,
    store: ProfileStore,
) -> Dict[str, object]:
    report = run_fleet(config.fleet_config(policy, cap_w), spec=spec, store=store)
    cell: Dict[str, object] = {"policy": policy, "power_cap_w": cap_w}
    for name in _CELL_FIELDS:
        cell[name] = report.aggregate[name]
    cell["oracle_energy_j"] = report.oracle["energy_j"]
    return cell


# One (job, spec, store) per grid worker; the store rehydrates its
# profiles from the cache the parent warmed — workers never simulate.
_GRID_WORKER: Optional[Tuple[object, MachineSpec, ProfileStore]] = None


def _init_grid_worker(job: object, spec: MachineSpec, cache_root: str) -> None:
    global _GRID_WORKER
    store = ProfileStore(spec, cache=ProfileCache(cache_root))
    _GRID_WORKER = (job, spec, store)


def _grid_cells(cells: List[Tuple[str, float]]):
    """Worker side: ``({cell: row}, {cell: error})`` for one batch."""
    assert _GRID_WORKER is not None, "worker used before initialization"
    config, spec, store = _GRID_WORKER
    return each(
        cells, lambda cell: _run_cell(config, cell[0], cell[1], spec, store)
    )


def run_grid(
    config: GridConfig,
    jobs: int = 1,
    cache: Optional[ProfileCache] = None,
    spec: Optional[MachineSpec] = None,
) -> Dict[str, object]:
    """Evaluate the whole grid; the figure payload.

    The profile store is built once up front, serially — through
    ``cache`` when given (so repeat grids and ``repro-fleet`` runs share
    the work), through a temporary exchange directory when ``jobs > 1``
    needs one. With ``jobs > 1`` the cells fan out over that many worker
    processes. Output is identical at any width; cells a worker did not
    finish are recomputed in-parent.
    """
    from repro.fleet.corpus import builtin_templates, draw_tenants, load_corpus_dir

    spec = spec or haswell_i7_4770k()
    jobs = max(1, int(jobs))
    templates = builtin_templates()
    for directory in config.corpus_dirs:
        templates.extend(load_corpus_dir(directory))
    tenants = draw_tenants(templates, config.tenants, config.seed)

    cells = config.cells()
    parallel = jobs > 1 and len(cells) > 1
    results: Dict[Tuple[str, float], Dict[str, object]] = {}
    failures: Dict[Tuple[str, float], str] = {}
    with ExitStack() as stack:
        if cache is None and parallel:
            cache = ProfileCache(stack.enter_context(exchange()))
        store = ProfileStore(spec, cache=cache)
        build = store.build(tenants)
        if parallel:
            results, failures = run_batches(
                partition(cells, lambda cell: cell, jobs),
                _grid_cells,
                jobs,
                initializer=_init_grid_worker,
                initargs=(config, spec, str(cache.root)),
            )
        rows = [
            results.get(cell)
            or _run_cell(config, cell[0], cell[1], spec, store)
            for cell in cells
        ]

    return {
        "kind": GRID_KIND,
        "format_version": GRID_FORMAT_VERSION,
        "config": {
            "tenants": config.tenants,
            "seed": config.seed,
            "policies": list(config.effective_policies()),
            "caps_w": sorted(config.caps_w),
            "rate_per_s": config.rate_per_s,
            "corpus_dirs": list(config.corpus_dirs),
        },
        "cells": rows,
        "diagnostics": {
            "profiles": build["profiles_total"],
            "cache_hits": build["cache_hits"],
            "jobs": jobs,
            "recovered_cells": len(failures),
        },
    }


def grid_bytes(payload: Dict[str, object]) -> bytes:
    """Canonical figure bytes — minus execution diagnostics, so serial
    and parallel grid runs compare equal byte-for-byte."""
    import json

    view = {
        key: value for key, value in payload.items() if key != "diagnostics"
    }
    return (
        json.dumps(view, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")


def render_grid(payload: Dict[str, object]) -> str:
    """Human-readable grid table (one row per cell)."""
    from repro.common.tables import format_table

    rows = [
        (
            cell["policy"],
            f"{cell['power_cap_w']:.0f}",
            f"{cell['energy_j']:.3f}",
            f"{cell['energy_saving_vs_max']:.1%}",
            f"{cell['mean_slowdown']:.3%}",
            f"{cell['p99_slowdown']:.3%}",
            f"{cell['sla_miss_rate']:.2%}",
            f"{cell['peak_power_w']:.0f}",
        )
        for cell in payload["cells"]
    ]
    config = payload["config"]
    return format_table(
        [
            "policy",
            "cap W",
            "energy (J)",
            "vs all-max",
            "mean slowdown",
            "p99 slowdown",
            "SLA miss",
            "peak W",
        ],
        rows,
        title=(
            f"Fleet grid — {config['tenants']} tenants, seed "
            f"{config['seed']}, {len(payload['cells'])} cells"
        ),
    )


# ----------------------------------------------------------------------
# The fleet-parallel-identity QA property
# ----------------------------------------------------------------------

#: Tenants in the invariant's miniature fleet.
_FLEET_SIZE = 6


def _identity_leg(batch: List[str]):
    """Worker side of the invariant: one fleet run's identity bytes."""
    assert _GRID_WORKER is not None, "worker used before initialization"
    (config, tenants, arrivals_ns), spec, store = _GRID_WORKER
    return each(
        batch,
        lambda _: report_identity_bytes(
            run_fleet(
                config, spec=spec, store=store, tenants=tenants,
                arrivals_ns=arrivals_ns,
            )
        ),
    )


def case_parallel_identity_violations(context) -> List[str]:
    """Serial vs pool-worker vs warm-store reports must be byte-identical.

    The fuzz case is promoted to a tenant (the ``repro-qa promote``
    adapter) at both of its frequencies, and one small overlapping
    fleet is run three ways: over profiles built serially from the QA
    context's simulations; inside a :mod:`repro.common.pool` worker over
    a store the parent warmed by simulating afresh — the cross-process
    path grid cells take; and rehydrated from that store in the parent.
    Any byte of divergence on the identity view means the pool or the
    persistence machinery changed a result.
    """
    from dataclasses import replace

    from repro.fleet.tenants import profile_key, tenant_from_fuzz_case

    case = context.case
    base_tenant = tenant_from_fuzz_case(case, name=f"qa-{case.seed}-base")
    high_tenant = replace(
        base_tenant,
        name=f"qa-{case.seed}-high",
        base_freq_ghz=case.high_freq_ghz,
    )
    variants = [base_tenant, high_tenant]
    tenants = [variants[i % 2] for i in range(_FLEET_SIZE)]
    serial_store = ProfileStore(context.spec)
    serial_store.build(
        variants,
        traces={
            profile_key(base_tenant): context.result(
                case.base_freq_ghz
            ).trace,
            profile_key(high_tenant): context.result(
                case.high_freq_ghz
            ).trace,
        },
    )
    spacing = min(
        serial_store.profile_for(tenant).baseline_ns for tenant in variants
    ) / 4.0
    arrivals_ns = [i * spacing for i in range(_FLEET_SIZE)]
    config = FleetConfig(
        tenants=_FLEET_SIZE, seed=case.seed, policy="paper-governor"
    )

    def fleet(store: ProfileStore) -> bytes:
        return report_identity_bytes(
            run_fleet(
                config, spec=context.spec, store=store, tenants=tenants,
                arrivals_ns=arrivals_ns,
            )
        )

    serial = fleet(serial_store)
    with exchange() as root:
        ProfileStore(context.spec, cache=ProfileCache(root)).build(variants)
        results, failures = run_batches(
            [["worker"]],
            _identity_leg,
            1,
            initializer=_init_grid_worker,
            initargs=((config, tenants, arrivals_ns), context.spec, root),
        )
        warm = fleet(ProfileStore(context.spec, cache=ProfileCache(root)))
    violations: List[str] = []
    if "worker" in failures:
        violations.append(
            f"pool worker leg did not finish: {failures['worker']}"
        )
    elif results["worker"] != serial:
        violations.append(
            "fleet report run in a pool worker over the warmed store "
            "diverges from the serial build on the identity view"
        )
    if warm != serial:
        violations.append(
            "warm-store fleet report diverges from the serial build on "
            "the identity view"
        )
    return violations
