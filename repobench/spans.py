"""In-memory spans, self-time arithmetic and Chrome trace-event export.

A :class:`Tracer` records one span per call of a wrapped entry point:
name, layer, start and end (``perf_counter_ns``), and the span that was
open when it started (its parent). Spans stay in memory until the run
ends; :func:`chrome_trace` turns them into trace-event JSON that
Perfetto (ui.perfetto.dev) and ``chrome://tracing`` open as they are.

Wrapping happens from outside the program: :class:`Patches` swaps a
module or class attribute for a wrapper and restores it on exit, so the
package under test is never edited.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One recorded call."""

    span_id: int
    name: str
    layer: str
    start_ns: int
    end_ns: int = 0
    parent: Optional[int] = None
    #: Counts attached where the work happened (events, epochs, ...).
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._later: List[Callable[[], None]] = []

    def later(self, fn: Callable[[], None]) -> None:
        """Defer counting work until :meth:`settle`, outside timed code."""
        self._later.append(fn)

    def settle(self) -> None:
        later, self._later = self._later, []
        for fn in later:
            fn()

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter_ns(),
                    parent=parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        count: Optional[Callable[[Span, tuple, dict, Any], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``count(span, args, kwargs, result)``
        attaches counts after the call (its cost lands outside the span).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(span, args, kwargs, result)
            return result

        return traced


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id -> duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and their union is
    taken, so overlapping or out-of-range children are not subtracted
    twice.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start_ns, span.end_ns)
            )
    result: Dict[int, int] = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for start, end in sorted(children.get(span.span_id, ())):
            start = max(start, cursor)
            end = min(end, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration_ns - covered
    return result


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, Any]]:
    """Per span name: layer, calls, total and self seconds, summed counts."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        row = table.setdefault(
            span.name, {"layer": span.layer, "calls": 0, "total_s": 0.0,
                        "self_s": 0.0, "counts": {}}
        )
        row["calls"] += 1
        row["total_s"] += span.duration_ns / 1e9
        row["self_s"] += selfs[span.span_id] / 1e9
        for key, value in span.counts.items():
            row["counts"][key] = row["counts"].get(key, 0) + value
    return table


def format_layer_table(table: Dict[str, Dict[str, Any]]) -> str:
    """The layer table as aligned text, heaviest self time first."""
    lines = [f"{'span':<28} {'layer':<12} {'calls':>7} {'self_s':>10} "
             f"{'total_s':>10}  counts"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        counts = ", ".join(
            f"{key}={value:g}" for key, value in sorted(row["counts"].items())
        )
        lines.append(
            f"{name:<28} {row['layer']:<12} {row['calls']:>7} "
            f"{row['self_s']:>10.4f} {row['total_s']:>10.4f}  {counts}"
        )
    return "\n".join(lines)


def chrome_trace(spans: Sequence[Span], pid: int = 1) -> Dict[str, Any]:
    """Trace-event JSON (complete ``X`` events, microsecond timestamps)."""
    origin = min((s.start_ns for s in spans), default=0)
    events = [
        {
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": (span.start_ns - origin) / 1e3,
            "dur": span.duration_ns / 1e3,
            "pid": pid,
            "tid": 1,
            "args": dict(span.counts, span_id=span.span_id,
                         parent=span.parent),
        }
        for span in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


class Patches:
    """Attribute swaps undone in reverse order on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
