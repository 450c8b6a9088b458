"""Persistent, content-addressed result cache for ground-truth simulations.

Ground-truth runs dominate the cost of every table and figure: each
benchmark is simulated at every frequency step and again per slowdown
threshold. :class:`~repro.experiments.runner.ExperimentRunner` memoizes
only in-process, so every CLI invocation used to re-simulate from
scratch. This module gives those results a durable home:

* **Content-addressed keys.** An entry's key is a SHA-256 over the
  canonical JSON of everything that determines the result: the benchmark's
  workload spec, :class:`~repro.arch.specs.MachineSpec`,
  :class:`~repro.jvm.runtime.JvmConfig`, the frequency or threshold, the
  scheduling quantum, the trace :data:`~repro.sim.serialize.FORMAT_VERSION`
  and this module's :data:`CACHE_SCHEMA_VERSION`. Same inputs → same key;
  any config or schema change → different key, so stale entries are never
  returned (they are simply orphaned until ``clear``).
* **Durable values.** Each fixed- or managed-run summary is one JSON
  entry in a :class:`~repro.common.store.FileStore`; a retained
  base-frequency trace rides inline in its entry inside the
  SHA-256-checksummed envelope of :func:`~repro.sim.serialize.seal_trace`
  (the one the fleet profile store uses too).
* **Crash/corruption safety.** The file store publishes atomically and
  checks each entry's full key; reads treat *any* malformed entry — bad
  JSON, a foreign key, a trace failing its checksum — as a miss
  (recompute, never crash) and drop the offender best-effort.

The default location is :func:`~repro.common.store.default_cache_dir`
(``~/.cache/repro``, overridable with ``REPRO_CACHE_DIR``).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from repro.common.store import (
    FileStore,
    StoreStats,
    default_cache_dir,
    stable_hash,
)
from repro.sim.serialize import FORMAT_VERSION, seal_trace, unseal_trace

if TYPE_CHECKING:  # runner imports this module; keep the cycle import-time free
    from repro.experiments.runner import FixedRun, ManagedRun

#: Bump when the simulator/cache semantics or the on-disk layout change in
#: a way the key's config fields cannot capture (e.g. a timing-model fix):
#: every existing entry becomes unreachable and is recomputed on demand.
CACHE_SCHEMA_VERSION = 2

_PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Content keys (canonical hashing now lives in repro.common.store)
# ----------------------------------------------------------------------


def fixed_key(fingerprint: Dict[str, Any], freq_ghz: float, quantum_ns: float) -> str:
    """Content key of one fixed-frequency ground-truth run."""
    return stable_hash(
        {
            "kind": "fixed",
            "schema": CACHE_SCHEMA_VERSION,
            "trace_format": FORMAT_VERSION,
            "fingerprint": fingerprint,
            "freq_ghz": round(freq_ghz, 6),
            "quantum_ns": quantum_ns,
        }
    )


def prediction_fingerprint(sweep: bool) -> Dict[str, Any]:
    """Cache-key identity of the prediction engine driving a managed run.

    Sweep-kernel and scalar predictions are bit-identical by contract,
    but the cache must not *assume* the contract holds: a managed result
    computed under one engine (or one kernel revision) must never alias
    a lookup under another, or an engine bug could hide behind a stale
    hit. Hence both the engine name and the kernel version participate
    in :func:`managed_key`.
    """
    from repro.core.sweep import KERNEL_VERSION

    return {
        "engine": "sweep" if sweep else "scalar",
        "kernel_version": KERNEL_VERSION if sweep else 0,
    }


def managed_key(
    fingerprint: Dict[str, Any],
    manager_config: Any,
    quantum_ns: float,
    prediction: Optional[Dict[str, Any]] = None,
) -> str:
    """Content key of one energy-managed run.

    Keyed by the full manager config plus the prediction-engine
    fingerprint (see :func:`prediction_fingerprint`); ``None`` marks a
    caller that predates the engine split and hashes distinctly from
    both engines.
    """
    return stable_hash(
        {
            "kind": "managed",
            "schema": CACHE_SCHEMA_VERSION,
            "trace_format": FORMAT_VERSION,
            "fingerprint": fingerprint,
            "manager": manager_config,
            "quantum_ns": quantum_ns,
            "prediction": prediction,
        }
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


class ResultCache:
    """Content-addressed on-disk store of experiment ground truths.

    One :class:`~repro.common.store.FileStore` per schema version
    (``<root>/v<CACHE_SCHEMA_VERSION>``) holding one JSON entry per
    result; a retained base-frequency trace rides inline in its entry as
    a :func:`~repro.sim.serialize.seal_trace` envelope. ``stats`` counts
    hits, misses, stores and rejected entries of this instance.
    """

    def __init__(self, root: Optional[_PathLike] = None) -> None:
        self.root = Path(root) if root else default_cache_dir()
        self._files = FileStore(
            self.root / f"v{CACHE_SCHEMA_VERSION}", prefix="result"
        )
        self.stats: StoreStats = self._files.stats

    def _load(self, key: str, decode: Callable[[Dict[str, Any]], Any]) -> Any:
        """``decode`` of the entry under ``key``; any defect is a miss."""
        value = self._files.get(key)
        if value is None:
            return None
        try:
            return decode(json.loads(value))
        except Exception:
            # The file tier counted a hit on an entry that cannot be used.
            self.stats.hits -= 1
            self.stats.misses += 1
            self.stats.errors += 1
            self._files.drop(key)
            return None

    def _store(self, key: str, entry: Dict[str, Any]) -> None:
        self._files.put(key, json.dumps(entry, separators=(",", ":")))

    # -- fixed runs ----------------------------------------------------

    def load_fixed(self, key: str) -> Optional["FixedRun"]:
        """The cached :class:`FixedRun` under ``key``, or ``None``."""
        from repro.experiments.runner import FixedRun

        def decode(entry: Dict[str, Any]) -> FixedRun:
            sealed = entry.pop("trace")
            trace = None if sealed is None else unseal_trace(sealed)
            return FixedRun(**entry, trace=trace)

        return self._load(key, decode)

    def store_fixed(self, key: str, run: "FixedRun") -> None:
        """Persist a fixed run, its retained trace (if any) inline."""
        sealed = None if run.trace is None else seal_trace(run.trace)
        self._store(key, dict(vars(run), trace=sealed))

    # -- managed runs --------------------------------------------------

    def load_managed(self, key: str) -> Optional["ManagedRun"]:
        """The cached :class:`ManagedRun` under ``key``, or ``None``."""
        from repro.energy.manager import ManagerDecision
        from repro.experiments.runner import ManagedRun

        def decode(entry: Dict[str, Any]) -> ManagedRun:
            decisions = [ManagerDecision(*d) for d in entry.pop("decisions")]
            return ManagedRun(**entry, decisions=decisions)

        return self._load(key, decode)

    def store_managed(self, key: str, run: "ManagedRun") -> None:
        """Persist a managed run, decisions inline as field-order rows."""
        rows = [list(vars(d).values()) for d in run.decisions]
        self._store(key, dict(vars(run), decisions=rows))

    # -- maintenance ---------------------------------------------------

    def _version_dirs(self) -> List[Path]:
        """Every schema-version directory under the root (``v<N>``):
        what this cache owns, and all that :meth:`clear` removes."""
        if not self.root.is_dir():
            return []
        return [
            child
            for child in sorted(self.root.iterdir())
            if child.is_dir()
            and child.name[:1] == "v"
            and child.name[1:].isdigit()
        ]

    def disk_stats(self) -> Dict[str, int]:
        """Entry and byte counts of this cache's version directories."""
        entries = stale = size = 0
        for version in self._version_dirs():
            for path in version.rglob("*"):
                if not path.is_file():
                    continue
                size += path.stat().st_size
                if path.suffix == ".json" and not path.name.startswith(".tmp-"):
                    if version == self._files.root:
                        entries += 1
                    else:
                        stale += 1
        return {"entries": entries, "stale_entries": stale, "size_bytes": size}

    def clear(self) -> int:
        """Remove every version directory under the root; return files removed."""
        removed = 0
        for version in self._version_dirs():
            removed += sum(1 for p in version.rglob("*") if p.is_file())
            shutil.rmtree(version, ignore_errors=True)
        return removed


def describe(cache: ResultCache) -> str:
    """Human-readable one-stop summary (CLI ``cache stats``)."""
    disk = cache.disk_stats()
    lines = [
        f"cache root:    {cache.root}",
        f"schema:        v{CACHE_SCHEMA_VERSION} (trace format {FORMAT_VERSION})",
        f"entries:       {disk['entries']} "
        f"({disk['stale_entries']} stale from other versions)",
        f"size on disk:  {disk['size_bytes'] / 1e6:.1f} MB",
    ]
    session = cache.stats
    if session.hits or session.misses or session.stores:
        lines.append(
            f"this session:  {session.hits} hits, {session.misses} misses, "
            f"{session.stores} stores, {session.errors} corrupt"
        )
    return "\n".join(lines)
