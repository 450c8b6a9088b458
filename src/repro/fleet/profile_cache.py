"""Persistent, content-addressed store of fleet tenant profiles.

Profile *building* — simulating every distinct (workload, base
frequency, quantum, predictor) shape a fleet needs — dominates the cost
of a cold ``repro-fleet`` run (BENCH_fleet.json). But a profile is a
pure function of its shape: the same tenant shape simulated tomorrow,
in another process, or in another cell of a policy × cap grid yields
the byte-identical trace. This module gives those traces a durable
home so the work is done once per shape *ever*, not once per run:

* **Content-addressed keys** (:func:`profile_cache_key`): a SHA-256
  over everything that determines the simulated trace — the workload
  config, the machine spec, base frequency, quantum, predictor, the
  trace :data:`~repro.sim.serialize.FORMAT_VERSION`, the sweep
  :data:`~repro.core.sweep.KERNEL_VERSION` and this module's
  :data:`PROFILE_CACHE_VERSION`. Any input or schema change produces a
  fresh key, so stale entries are orphaned, never returned.
* **Tiered storage** (:mod:`repro.common.store`): an in-memory
  :class:`~repro.common.store.MemoryLRU` over an envelope-checked
  :class:`~repro.common.store.FileStore` via
  :class:`~repro.common.store.TieredStore` — repeat fetches within one
  process are dict-speed, across processes they ride the page cache,
  and concurrent writers (separate ``repro-fleet`` runs sharing one
  store) publish atomically with identical bytes.
* **Distrust by default.** The stored value is itself a versioned
  envelope around :func:`~repro.sim.serialize.seal_trace` output (the
  trace body as a SHA-256-checksummed string, the same envelope the
  experiment result cache stores); a
  corrupt, truncated, bit-flipped or stale-version entry is treated as
  a miss and recomputed, never trusted
  (``tests/property/test_profile_cache_prop.py`` pins both the
  bit-exact round-trip and the rejection paths).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.arch.specs import MachineSpec
from repro.common.store import (
    FileStore,
    MemoryLRU,
    TieredStore,
    default_cache_dir,
    stable_hash,
)
from repro.sim.serialize import FORMAT_VERSION, seal_trace, unseal_trace
from repro.sim.trace import SimulationTrace

#: Bump when the profile envelope or its semantics change: every
#: existing entry becomes unreachable (new keys) and is rebuilt.
PROFILE_CACHE_VERSION = 1

#: The ``kind`` field of a stored profile envelope.
PROFILE_KIND = "repro-fleet-profile"

#: Filename prefix of profile entries inside the cache directory.
PROFILE_PREFIX = "profile"

_PathLike = Union[str, Path]


def default_profile_cache_dir() -> Path:
    """``<result-cache root>/fleet-profiles`` (honours ``REPRO_CACHE_DIR``)."""
    return default_cache_dir() / "fleet-profiles"


def profile_cache_key(
    workload: Any,
    base_freq_ghz: float,
    quantum_ns: float,
    predictor: str,
    spec: MachineSpec,
) -> str:
    """Content key of one tenant profile.

    Matches the identity of :func:`repro.fleet.tenants.profile_key`
    (workload × base × quantum × predictor) widened by everything a
    persistent store must additionally distrust: the machine spec the
    trace was simulated on, the trace format, the sweep kernel revision
    and the envelope version.
    """
    from repro.core.sweep import KERNEL_VERSION

    return stable_hash(
        {
            "kind": PROFILE_KIND,
            "cache_version": PROFILE_CACHE_VERSION,
            "trace_format": FORMAT_VERSION,
            "kernel_version": KERNEL_VERSION,
            "workload": asdict(workload),
            "base_freq_ghz": round(base_freq_ghz, 6),
            "quantum_ns": quantum_ns,
            "predictor": predictor,
            "spec": spec,
        }
    )


def key_for_tenant(tenant, spec: MachineSpec) -> str:
    """:func:`profile_cache_key` of a :class:`~repro.fleet.tenants.TenantSpec`."""
    return profile_cache_key(
        tenant.workload,
        tenant.base_freq_ghz,
        tenant.quantum_ns,
        tenant.predictor,
        spec,
    )


class ProfileCache:
    """Durable trace store behind :class:`~repro.fleet.profiles.ProfileStore`.

    ``get``/``put`` speak :class:`~repro.sim.trace.SimulationTrace`; the
    envelope plumbing (versioning, JSON, rejection of defects) is
    internal. Safe for concurrent multi-process use — grid workers
    and the parent that warmed the store share one directory.
    """

    def __init__(
        self, root: Optional[_PathLike] = None, max_memory_entries: int = 64
    ) -> None:
        self.root = Path(root) if root is not None else default_profile_cache_dir()
        self._files = FileStore(self.root, prefix=PROFILE_PREFIX)
        self._memory = MemoryLRU(max_entries=max_memory_entries)
        self._tiers = TieredStore([self._memory, self._files])
        #: Envelopes found but rejected (stale version, malformed trace).
        self.rejected = 0

    # -- trace round-trip ----------------------------------------------

    def get(self, key: str) -> Optional[SimulationTrace]:
        """The cached trace under ``key``, or ``None`` on any defect."""
        value = self._tiers.get(key)
        if value is None:
            return None
        try:
            envelope = json.loads(value)
            if (
                not isinstance(envelope, dict)
                or envelope.get("kind") != PROFILE_KIND
                or envelope.get("cache_version") != PROFILE_CACHE_VERSION
            ):
                raise ValueError("stale or foreign profile envelope")
            return unseal_trace(envelope)
        except Exception:
            # Never trust a defective entry: count it, drop it from
            # every tier best-effort, and let the caller recompute.
            self.rejected += 1
            self._memory.drop(key)
            self._files.drop(key)
            return None

    def put(self, key: str, trace: SimulationTrace) -> None:
        """Persist ``trace`` under ``key`` (atomic publish, every tier).

        The trace body travels as a checksummed string inside the
        envelope, so *any* byte damage — not just damage that breaks
        the JSON — reads back as a miss.
        """
        envelope = json.dumps(
            {
                "kind": PROFILE_KIND,
                "cache_version": PROFILE_CACHE_VERSION,
                **seal_trace(trace),
            },
            separators=(",", ":"),
        )
        self._tiers.put(key, envelope)

    # -- management ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._files)

    def stats(self) -> Dict[str, Any]:
        """Per-tier hit/miss counters plus rejection count."""
        memory, files = self._tiers.tier_stats()
        return {"memory": memory, "disk": files, "rejected": self.rejected}

    def disk_stats(self) -> Dict[str, int]:
        """Entry and byte counts of the file tier."""
        entries = size = 0
        if self.root.is_dir():
            for path in self.root.iterdir():
                if not path.is_file():
                    continue
                size += path.stat().st_size
                if path.name.startswith(f"{PROFILE_PREFIX}-"):
                    entries += 1
        return {"entries": entries, "size_bytes": size}

    def clear(self) -> int:
        """Remove every profile entry (memory and disk); return files
        removed from disk."""
        return self._tiers.clear()


def describe(cache: ProfileCache) -> str:
    """Human-readable summary (``repro-fleet cache stats``)."""
    disk = cache.disk_stats()
    lines = [
        f"profile cache: {cache.root}",
        f"schema:        v{PROFILE_CACHE_VERSION} "
        f"(trace format {FORMAT_VERSION})",
        f"entries:       {disk['entries']}",
        f"size on disk:  {disk['size_bytes'] / 1e6:.1f} MB",
    ]
    stats = cache.stats()
    session = {
        "hits": stats["memory"]["hits"] + stats["disk"]["hits"],
        "misses": stats["disk"]["misses"],
        "stores": stats["disk"]["stores"],
    }
    if any(session.values()) or cache.rejected:
        lines.append(
            f"this session:  {session['hits']} hits, "
            f"{session['misses']} misses, {session['stores']} stores, "
            f"{cache.rejected} rejected"
        )
    return "\n".join(lines)
