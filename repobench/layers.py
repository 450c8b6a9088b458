"""Which entry points of each ``repro`` layer get a span, and the
per-layer metrics computed from those spans.

Every wrapper is installed on the attribute the caller looks up — the
name a module imported (``repro.experiments.runner.simulate``) or the
class method every caller reaches — and removed after the traced pass.
Counts that need the call's result (events, epochs, profiles) are taken
after the pass by :meth:`Tracer.settle`, so they cost nothing inside
the timed spans.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repobench.spans import Patches, Span, Tracer, layer_table


def _sim_counts(span: Span, results) -> None:
    for result in results:
        trace = result.trace
        records = trace.intervals
        span.counts["runs"] = span.counts.get("runs", 0) + 1
        span.counts["events"] = span.counts.get("events", 0) + len(trace.events)
        span.counts["insns"] = span.counts.get("insns", 0) + sum(
            c.insns for c in trace.final_counters().values()
        )
        span.counts["simulated_ms"] = (
            span.counts.get("simulated_ms", 0) + trace.total_ns / 1e6
        )
        span.counts["freq_changes"] = span.counts.get("freq_changes", 0) + sum(
            1 for prev, cur in zip(records, records[1:])
            if cur.freq_ghz != prev.freq_ghz
        )


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public entry points of every layer in spans."""
    import repro.experiments.fig3 as fig3
    import repro.experiments.parallel as parallel
    import repro.experiments.runner as runner
    import repro.energy.manager as manager
    import repro.fleet.engine as engine
    import repro.fleet.profile_cache as profile_cache
    import repro.fleet.profiles as profiles
    import repro.fleet.report as report
    import repro.fleet.tenants as tenants
    import repro.sim.batch as batch
    import repro.workloads.synthetic as synthetic
    from repro.core.sweep import EpochArrays, TraceSweep
    from repro.workloads.items import Run

    def wrap_attr(owner, attr, name, layer, count=None):
        patches.set(owner, attr,
                    tracer.wrap(getattr(owner, attr), name, layer, count))

    def wrap_classmethod(cls, attr, name, layer, count=None):
        fn = cls.__dict__[attr].__func__
        patches.set(cls, attr,
                    classmethod(tracer.wrap(fn, name, layer, count)))

    def deferred(fn):
        return lambda span, args, kwargs, result: tracer.later(
            lambda: fn(span, args, kwargs, result)
        )

    # workloads: program construction.
    def count_build(span, args, kwargs, program):
        span.counts["builds"] = 1
        span.counts["segments"] = sum(
            isinstance(action, Run)
            for thread in program.threads for action in thread.actions
        )

    build = deferred(count_build)
    wrap_attr(synthetic, "build_synthetic_program", "workloads.build",
              "workloads", build)
    wrap_attr(tenants, "build_synthetic_program", "workloads.build",
              "workloads", build)

    # sim: the DES, as the runner and the fleet call it.
    one = deferred(lambda span, a, k, result: _sim_counts(span, [result]))
    wrap_attr(runner, "simulate", "sim.simulate", "sim", one)
    wrap_attr(runner, "simulate_managed", "sim.simulate_managed", "sim", one)
    wrap_attr(batch, "run_batch", "sim.run_batch", "sim", deferred(
        lambda span, a, k, report_: _sim_counts(span, report_.results)
    ))

    # core: epoch decomposition and the sweep kernels.
    def count_epochs(span, args, kwargs, arrays):
        span.counts["epochs"] = arrays.n_epochs

    wrap_classmethod(EpochArrays, "from_trace", "core.decompose", "core",
                     deferred(count_epochs))
    wrap_classmethod(EpochArrays, "from_epochs", "core.decompose", "core",
                     deferred(count_epochs))

    def count_cells(span, args, kwargs, values):
        span.counts["cells"] = len(values)

    wrap_attr(TraceSweep, "predict", "core.predict", "core", count_cells)
    wrap_attr(manager, "sweep_predict_epochs", "core.predict", "core",
              count_cells)
    wrap_attr(profiles, "sweep_predict_epochs", "core.predict", "core",
              count_cells)

    # energy: governor steps and energy accounting.
    def count_step(span, args, kwargs, chosen):
        span.counts["steps"] = 1
        span.counts["setpoint_changes"] = int(chosen is not None)

    wrap_attr(manager.EnergyManagerSession, "step", "energy.step", "energy",
              count_step)
    wrap_attr(runner, "compute_energy", "energy.account", "energy")

    # experiments: the runner and the figure drivers.
    wrap_attr(parallel, "execute", "experiments.execute", "experiments")
    wrap_attr(fig3, "run", "experiments.fig3", "experiments")
    wrap_attr(runner.ExperimentRunner, "managed_run",
              "experiments.managed_run", "experiments")

    # fleet: profiles, policies and the engine.
    def count_profiles(span, args, kwargs, diagnostics):
        span.counts["profiles"] = diagnostics["profiles_total"]
        span.counts["profile_hits"] = diagnostics["cache_hits"]
        span.counts["profiles_built"] = diagnostics["profiles_built"]

    def count_tenants(span, args, kwargs, fleet_report):
        span.counts["tenants"] = len(fleet_report.tenants)

    wrap_attr(profiles.ProfileStore, "build", "fleet.build", "fleet",
              count_profiles)
    wrap_attr(profiles.TenantProfile, "governor_plan", "fleet.governor_plan",
              "fleet")
    wrap_attr(engine, "run_fleet", "fleet.run_fleet", "fleet", count_tenants)
    wrap_attr(report, "render_report", "fleet.report", "fleet")

    # common: the persistent stores.
    def count_get(span, args, kwargs, trace):
        span.counts["hits" if trace is not None else "misses"] = 1

    wrap_attr(profile_cache.ProfileCache, "get", "common.store_get",
              "common", count_get)
    wrap_attr(profile_cache.ProfileCache, "put", "common.store_put",
              "common")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Every in-process per-layer metric of :mod:`repobench.spec`."""
    table = layer_table(spans)
    self_s = {name: row["self_s"] for name, row in table.items()}
    counts: Dict[str, float] = {}
    for row in table.values():
        for key, value in row["counts"].items():
            name = f"{row['layer']}.{key}"
            counts[name] = counts.get(name, 0) + value

    def layer_self(layer: str) -> float:
        return sum(value for name, value in self_s.items()
                   if name.startswith(layer + "."))

    build_s = layer_self("workloads")
    segments = counts.get("workloads.segments", 0)
    sim_s = layer_self("sim")
    insns = counts.get("sim.insns", 0)
    events = counts.get("sim.events", 0)
    predict_s = self_s.get("core.predict", 0.0)
    cells = counts.get("core.cells", 0)
    profile_hits = counts.get("fleet.profile_hits", 0)
    built = counts.get("fleet.profiles_built", 0)
    tenants = counts.get("fleet.tenants", 0)
    engine_s = (self_s.get("fleet.run_fleet", 0.0)
                + self_s.get("fleet.governor_plan", 0.0))
    return {
        "workloads.build_s": build_s,
        "workloads.builds": counts.get("workloads.builds", 0),
        "workloads.segments": segments,
        "workloads.build_us_per_segment": _ratio(build_s * 1e6, segments),
        "sim.run_s": sim_s,
        "sim.runs": counts.get("sim.runs", 0),
        "sim.events": events,
        "sim.insns": insns,
        "sim.simulated_ms": counts.get("sim.simulated_ms", 0.0),
        "sim.freq_changes": counts.get("sim.freq_changes", 0),
        "sim.host_ns_per_insn": _ratio(sim_s * 1e9, insns),
        "sim.host_us_per_event": _ratio(sim_s * 1e6, events),
        "core.decompose_s": self_s.get("core.decompose", 0.0),
        "core.epochs": counts.get("core.epochs", 0),
        "core.predict_s": predict_s,
        "core.cells": cells,
        "core.predict_us_per_cell": _ratio(predict_s * 1e6, cells),
        "energy.step_s": self_s.get("energy.step", 0.0),
        "energy.steps": counts.get("energy.steps", 0),
        "energy.setpoint_changes": counts.get("energy.setpoint_changes", 0),
        "energy.account_s": self_s.get("energy.account", 0.0),
        "experiments.self_s": layer_self("experiments"),
        "fleet.profiles_s": self_s.get("fleet.build", 0.0),
        "fleet.profiles": counts.get("fleet.profiles", 0),
        "fleet.profile_hit_ratio": _ratio(profile_hits, profile_hits + built),
        "fleet.engine_s": engine_s,
        "fleet.tenants": tenants,
        "fleet.engine_us_per_tenant": _ratio(engine_s * 1e6, tenants),
        "fleet.report_s": self_s.get("fleet.report", 0.0),
        "common.store_s": layer_self("common"),
        "common.store_hits": counts.get("common.hits", 0),
        "common.store_misses": counts.get("common.misses", 0),
    }
