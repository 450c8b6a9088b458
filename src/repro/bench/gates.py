"""One gate table and one rule for every benchmark payload.

A :class:`Gate` names a payload metric by path, the direction in which
it is better, and up to two bounds: ``ratio``, a floor on the metric
relative to the baseline's, and ``bound``, an absolute limit. **A gate
fails when its value is on the wrong side of every bound it declares**:
with both, the ratio catches a regression and the absolute bound
forgives it on a slower host that still clears the guarantee.

Gates run under ``--check`` and need their metric in the payload *and*
the baseline, so a renamed workload fails instead of passing unchecked;
a gate with an ``option`` takes its bound from that command-line option
and runs whenever it is set; an ``always`` gate runs on every payload.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

_SELECT = re.compile(r"^(\w+)\[(\w+)=([^\]]+)\]$")


@dataclass(frozen=True)
class Gate:
    """One gated metric of one bench."""

    metric: str
    better: str = "higher"
    ratio: Optional[float] = None
    bound: Optional[float] = None
    #: Command-line option (dest name) that supplies ``bound``.
    option: Optional[str] = None
    #: Checked on every run, with or without a baseline.
    always: bool = False


GATES: Dict[str, tuple] = {
    "hotpath": (
        Gate("results[engine=fast].events_per_sec", ratio=0.70),
    ),
    "batch": (
        Gate("results[workload=batch_corpus_32].speedup",
             ratio=0.70, bound=3.0),
    ),
    "sweep": (
        Gate("results[workload=figures_grid].speedup",
             ratio=0.70, bound=3.0),
        Gate("results[workload=governor_quantum].speedup",
             ratio=0.70, bound=5.0),
    ),
    "fleet": (
        Gate("cold_speedup", bound=3.0),
        Gate("warm_speedup", bound=5.0),
    ),
    "serve": (
        Gate("req_per_s", ratio=0.50),
        Gate("req_per_s", bound=1000.0),
        Gate("errors", better="lower", bound=0, always=True),
        Gate("latency_ms.p99", better="lower", option="max_p99_ms"),
        Gate("open_loop.deadline_miss_rate", better="lower",
             option="max_miss_rate"),
        Gate("throughput_ratio", option="min_ratio"),
    ),
}

#: Every option a gate reads its bound from.
OPTIONS = tuple(
    gate.option for gates in GATES.values() for gate in gates if gate.option
)


def resolve(document: Mapping[str, Any], path: str) -> Any:
    """The value at dotted ``path`` in ``document``.

    ``name[key=value]`` selects the entry of list ``name`` whose ``key``
    equals ``value``; when several match, the one with the smallest
    ``scale`` (hotpath payloads may hold several scales, and throughput
    is roughly scale-invariant, so the cheapest to re-measure is the
    reference). Raises :class:`LookupError` when the path is absent.
    """
    node: Any = document
    for part in path.split("."):
        match = _SELECT.match(part)
        if match is None:
            node = node[part]
            continue
        name, key, want = match.groups()
        entries = [e for e in node[name] if str(e.get(key)) == want]
        if not entries:
            raise LookupError(f"no {name} entry with {key}={want}")
        node = min(entries, key=lambda entry: entry.get("scale", 0.0))
    return node


def _ratio(gate: Gate, value: float, base: Optional[float]):
    if base is None:
        return None
    num, den = (value, base) if gate.better == "higher" else (base, value)
    return num / den if den else math.inf


def _lookup(document, path):
    try:
        return None if document is None else resolve(document, path)
    except (LookupError, TypeError):
        return None


def check(
    bench: str,
    payload: Mapping[str, Any],
    baseline: Optional[Mapping[str, Any]] = None,
    limits: Optional[Mapping[str, Optional[float]]] = None,
) -> List[str]:
    """Gate ``payload``; print one line per gate, return the failures.

    ``limits`` maps each :data:`OPTIONS` name to the bound given on the
    command line (None when unset).
    """
    limits = limits or {}
    failures: List[str] = []
    for gate in GATES[bench]:
        bound = gate.bound if gate.option is None else limits.get(gate.option)
        needs_baseline = gate.option is None and not gate.always
        if bound is None and gate.option is not None:
            continue
        if needs_baseline and baseline is None:
            continue
        value = _lookup(payload, gate.metric)
        base = _lookup(baseline, gate.metric)
        if value is None or (needs_baseline and base is None):
            where = "payload" if value is None else "baseline"
            failures.append(f"{bench} {gate.metric} is missing from the "
                            f"{where}")
            continue
        ratio = _ratio(gate, value, base)
        declared, crossed = [], []
        if gate.ratio is not None:
            declared.append(f"ratio floor {gate.ratio:.2f}")
            crossed.append(ratio < gate.ratio)
        if bound is not None:
            sign = ">=" if gate.better == "higher" else "<="
            declared.append(f"bound {sign} {bound:g}")
            crossed.append(value < bound if gate.better == "higher"
                           else value > bound)
        versus = ("" if ratio in (None, math.inf)
                  else f" vs baseline {base:g} = {ratio:.2f}")
        bounds = ", ".join(declared)
        print(f"{bench} {gate.metric}: {value:g}{versus} ({bounds}) "
              f"{'FAIL' if all(crossed) else 'ok'}")
        if all(crossed):
            failures.append(f"{bench} {gate.metric} = {value:g} is past "
                            f"every bound it declares ({bounds})")
    return failures
