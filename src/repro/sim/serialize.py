"""Trace serialization: save/load simulation traces as gzipped JSON.

Ground-truth simulations are the expensive part of any study built on this
library; persisting their traces lets prediction and analysis run offline
and lets results be archived alongside a paper. The format is plain JSON
(gzip-compressed when the filename ends in ``.gz``): one object with the
trace metadata, thread table, events (counters flattened to arrays in
``COUNTER_FIELDS`` order), and interval records.

Version field ``FORMAT_VERSION`` guards against silent schema drift — the
loader refuses files written by an incompatible version.

Two byte-level identities live here as well: :func:`trace_bytes`, the
canonical encoding differential checks compare, and the checksummed
envelope (:func:`seal_trace`/:func:`unseal_trace`) both persistent trace
caches store, so any byte damage to a stored trace reads back as an error.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Union

from repro.common.errors import TraceError
from repro.arch.counters import COUNTER_FIELDS, CounterSet
from repro.osmodel.threadmodel import ThreadKind
from repro.sim.intervals import IntervalRecord
from repro.sim.trace import (
    EventKind,
    SimulationTrace,
    SnapshotView,
    ThreadInfo,
    TraceBuilder,
)

FORMAT_VERSION = 1

_PathLike = Union[str, Path]


def _counters_to_list(counters: CounterSet) -> list:
    return [getattr(counters, name) for name in COUNTER_FIELDS]


def _counters_from_list(values: list) -> CounterSet:
    if len(values) != len(COUNTER_FIELDS):
        raise TraceError(
            f"counter record has {len(values)} fields, expected "
            f"{len(COUNTER_FIELDS)}"
        )
    return CounterSet(**dict(zip(COUNTER_FIELDS, values)))


def trace_to_dict(trace: SimulationTrace) -> Dict:
    """Convert a trace to a JSON-serializable dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "program_name": trace.program_name,
        "total_ns": trace.total_ns,
        "base_freq_ghz": trace.base_freq_ghz,
        "gc_cycles": trace.gc_cycles,
        "gc_time_ns": trace.gc_time_ns,
        "counter_fields": list(COUNTER_FIELDS),
        "threads": [
            {"tid": info.tid, "name": info.name, "kind": info.kind.value}
            for info in trace.threads.values()
        ],
        "events": [
            {
                "t": event.time_ns,
                "tid": event.tid,
                "k": event.kind.value,
                "f": event.freq_ghz,
                "r": list(event.running_after),
                # Columnar traces render snapshots straight from the
                # backing arrays; values are identical either way.
                "s": event.snapshots.serialize_rows()
                if type(event.snapshots) is SnapshotView
                else {
                    str(tid): _counters_to_list(counters)
                    for tid, counters in event.snapshots.items()
                },
                "d": event.detail,
            }
            for event in trace.events
        ],
        "intervals": [
            {
                "i": record.index,
                "a": record.start_ns,
                "b": record.end_ns,
                "f": record.freq_ghz,
                "p": {
                    str(tid): _counters_to_list(counters)
                    for tid, counters in record.per_thread.items()
                },
                "lo": record.event_lo,
                "hi": record.event_hi,
                "x": record.transition_ns,
            }
            for record in trace.intervals
        ],
    }


def trace_from_dict(payload: Dict) -> SimulationTrace:
    """Rebuild a trace from :func:`trace_to_dict` output."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise TraceError(
            f"trace format version {version!r} not supported "
            f"(expected {FORMAT_VERSION})"
        )
    trace = SimulationTrace(
        program_name=payload["program_name"],
        total_ns=payload["total_ns"],
        base_freq_ghz=payload["base_freq_ghz"],
        gc_cycles=payload["gc_cycles"],
        gc_time_ns=payload["gc_time_ns"],
    )
    for entry in payload["threads"]:
        trace.threads[entry["tid"]] = ThreadInfo(
            tid=entry["tid"], name=entry["name"],
            kind=ThreadKind(entry["kind"]),
        )
    builder = TraceBuilder(trace)
    for entry in payload["events"]:
        builder.append_event(
            entry["t"],
            entry["tid"],
            EventKind(entry["k"]),
            entry["f"],
            tuple(entry["r"]),
            sorted(
                (int(tid), _counters_from_list(values))
                for tid, values in entry["s"].items()
            ),
            entry.get("d", ""),
        )
    for entry in payload["intervals"]:
        trace.intervals.append(
            IntervalRecord(
                index=entry["i"],
                start_ns=entry["a"],
                end_ns=entry["b"],
                freq_ghz=entry["f"],
                per_thread={
                    int(tid): _counters_from_list(values)
                    for tid, values in entry["p"].items()
                },
                event_lo=entry["lo"],
                event_hi=entry["hi"],
                transition_ns=entry["x"],
            )
        )
    return trace


def trace_bytes(trace: SimulationTrace) -> bytes:
    """Canonical byte encoding of a trace (the parity currency)."""
    return json.dumps(
        trace_to_dict(trace), sort_keys=True, separators=(",", ":")
    ).encode()


def _sha256(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def seal_trace(trace: SimulationTrace) -> Dict[str, str]:
    """``{"sha256", "trace"}``: the trace's JSON body and its checksum."""
    body = json.dumps(trace_to_dict(trace), separators=(",", ":"))
    return {"sha256": _sha256(body), "trace": body}


def unseal_trace(envelope: Mapping[str, Any]) -> SimulationTrace:
    """The trace inside a :func:`seal_trace` envelope.

    Raises :class:`~repro.common.errors.TraceError` when the body is
    missing or fails its checksum.
    """
    body = envelope.get("trace")
    if not isinstance(body, str) or _sha256(body) != envelope.get("sha256"):
        raise TraceError("trace body missing or fails its checksum")
    return trace_from_dict(json.loads(body))


def save_trace(trace: SimulationTrace, path: _PathLike) -> None:
    """Write ``trace`` to ``path`` (gzip when the suffix is ``.gz``)."""
    path = Path(path)
    payload = json.dumps(trace_to_dict(trace), separators=(",", ":"))
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        path.write_text(payload, encoding="utf-8")


def load_trace(path: _PathLike) -> SimulationTrace:
    """Read a trace written by :func:`save_trace`."""
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        payload = json.loads(path.read_text(encoding="utf-8"))
    return trace_from_dict(payload)
