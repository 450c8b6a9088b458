"""Fleet bench: one drawn fleet's profile build, naive vs batched vs warm.

``naive`` simulates every tenant on its own; ``serial`` deduplicates
tenants into shapes, batches them through :mod:`repro.sim.batch` and
publishes into a fresh :class:`~repro.fleet.profile_cache.ProfileCache`
(the cold build of ``repro-fleet run``); ``warm`` rebuilds from that
store with no simulation. Each store then drives one engine run and the
three reports must be byte-identical on the determinism view — the bench
exits ``FATAL`` otherwise. ``cold_speedup`` is median naive ÷ median
serial build, ``warm_speedup`` median serial ÷ median warm build.
"""

from __future__ import annotations

import tempfile
import time
from typing import Dict, List, Optional

from repro.bench.harness import wall_stats
from repro.common.errors import ReproError
from repro.fleet.corpus import builtin_templates, draw_tenants
from repro.fleet.engine import FleetConfig, run_fleet
from repro.fleet.profile_cache import ProfileCache
from repro.fleet.profiles import ProfileStore
from repro.fleet.report import report_identity_bytes

#: Tenant-draw seed.
SEED = 7
#: Policy the identity runs use (exercises the governor stepping path).
POLICY = "paper-governor"


def bench_payload(
    tenants: int = 512, reps: int = 1, seed: int = SEED,
    cache_root: Optional[str] = None,
) -> Dict[str, object]:
    """Time every fleet build strategy; verify byte-identity throughout."""
    if reps < 1:
        raise ReproError("reps must be >= 1")
    specs = draw_tenants(builtin_templates(), tenants, seed)
    config = FleetConfig(tenants=tenants, seed=seed, policy=POLICY)

    with tempfile.TemporaryDirectory(prefix="repro-fleet-bench-") as tmp:
        root = cache_root or tmp
        naive_walls: List[float] = []
        serial_walls: List[float] = []
        warm_walls: List[float] = []
        diagnostics: Dict[str, int] = {}
        naive_store = serial_store = warm_store = None
        for rep in range(reps):
            naive_store = ProfileStore()
            begin = time.perf_counter()
            naive_store.build(specs, batch=False)
            naive_walls.append(time.perf_counter() - begin)

            # A fresh cache directory per rep keeps the serial phase
            # cold; the last rep's directory feeds the warm phase.
            cache = ProfileCache(ProfileCache(root).root / f"rep-{rep}")
            serial_store = ProfileStore(cache=cache)
            begin = time.perf_counter()
            diagnostics = serial_store.build(specs)
            serial_walls.append(time.perf_counter() - begin)

            warm_store = ProfileStore(cache=ProfileCache(cache.root))
            begin = time.perf_counter()
            warm = warm_store.build(specs)
            warm_walls.append(time.perf_counter() - begin)
            if warm["cache_hits"] != diagnostics["profiles_total"]:
                raise ReproError(
                    f"warm build hit {warm['cache_hits']} of "
                    f"{diagnostics['profiles_total']} profiles in the store"
                )

        engine_walls: List[float] = []
        reports = []
        for store in (naive_store, serial_store, warm_store):
            begin = time.perf_counter()
            reports.append(run_fleet(config, store=store))
            engine_walls.append(time.perf_counter() - begin)
        if len({report_identity_bytes(report) for report in reports}) != 1:
            raise SystemExit(
                "FATAL: naive/serial/warm fleet runs diverged: the reports "
                "are not byte-identical on the determinism view"
            )
        cache_disk = warm_store.cache.disk_stats()

    naive = wall_stats(naive_walls)
    serial = wall_stats(serial_walls)
    warm = wall_stats(warm_walls)
    cold_run_s = serial["median"] + engine_walls[1]
    warm_run_s = warm["median"] + engine_walls[2]
    return {
        "tenants": tenants,
        "seed": seed,
        "reps": reps,
        "profiles": diagnostics.get("profiles_total", 0),
        "groups": diagnostics.get("groups", 0),
        "prewarmed_freqs": diagnostics.get("prewarmed_freqs", 0),
        "naive_build_s": naive,
        "serial_build_s": serial,
        "warm_build_s": warm,
        "engine_s": wall_stats(engine_walls),
        "cold_speedup": naive["median"] / serial["median"],
        "warm_speedup": serial["median"] / warm["median"],
        "cold_run_s": cold_run_s,
        "warm_run_s": warm_run_s,
        "tenants_per_s": tenants / cold_run_s,
        "cache_entries": cache_disk["entries"],
        "cache_size_bytes": cache_disk["size_bytes"],
        "identical": True,
        "policy": POLICY,
    }


def run(args) -> Dict[str, object]:
    return bench_payload(tenants=args.tenants, reps=args.reps)


def summary(payload) -> str:
    return (
        f"fleet {payload['tenants']} tenants -> {payload['profiles']} "
        f"profiles in {payload['groups']} groups: naive "
        f"{payload['naive_build_s']['median']:.3f}s -> serial "
        f"{payload['serial_build_s']['median']:.3f}s -> warm "
        f"{payload['warm_build_s']['median']:.3f}s\n"
        f"cold_speedup {payload['cold_speedup']:.2f}x, warm_speedup "
        f"{payload['warm_speedup']:.2f}x (engine "
        f"{payload['engine_s']['median']:.3f}s, cold run "
        f"{payload['cold_run_s']:.3f}s, warm run "
        f"{payload['warm_run_s']:.3f}s, reports identical)"
    )
