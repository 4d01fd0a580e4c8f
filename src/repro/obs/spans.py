"""Span tracing: the one timing record of a run.

A *span* is one timed region with a name and optional attributes::

    from repro.obs import span

    with span("sweep_tiers", scheme="gas", trace="espresso"):
        with span("engine.vectorized", scheme="gas"):
            ...

Spans nest via a per-thread stack. When a span finishes, its duration
is added to its parent's child total, so every span knows its *self
time*: its duration minus its direct children's. Self times of nested
spans add up without double counting, which is what makes the span
table a phase breakdown. Every completed span is

* folded into per-name aggregates (count / total / self / min / max
  seconds), which cost O(1) memory and feed the end-of-run summary
  table; and
* optionally appended as one JSON line to a trace file
  (:meth:`SpanTracer.configure_sink`), the format
  ``repro obs summarize`` reads back.

The clock is ``time.perf_counter`` throughout: monotonic, so span
durations and parent/child containment survive system clock changes.
Everything here is stdlib-only and safe to import from any layer.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, TextIO

#: Schema tag written into every JSONL trace line.
TRACE_SCHEMA = "repro.trace/1"


@dataclass
class SpanRecord:
    """One timed region; ``end`` is None while the span is open."""

    name: str
    attrs: Dict[str, Any]
    start: float
    depth: int
    end: Optional[float] = None
    #: Summed durations of the finished direct children.
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        """Elapsed seconds (to *now* for a still-open span)."""
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    @property
    def self_s(self) -> float:
        """Elapsed seconds not spent in a direct child span."""
        return self.duration - self.child_s


class SpanTracer:
    """Collects spans into per-name aggregates and a JSONL sink."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        # name -> [count, total, min, max, self]
        self._aggregates: Dict[str, List[float]] = {}
        self._sink: Optional[TextIO] = None
        self._sink_path: Optional[str] = None
        self._sink_pending = 0
        self._origin = time.perf_counter()

    # -- the tracing API ----------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanRecord]:
        """Time a region; nests under the innermost open span."""
        stack = self._stack()
        record = SpanRecord(
            name=name, attrs=attrs, start=time.perf_counter(), depth=len(stack)
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1].child_s += record.duration
            self._finish(record)

    # -- sinks ---------------------------------------------------------

    def configure_sink(self, path: str) -> None:
        """Stream every completed span to ``path`` as JSON lines."""
        self.close_sink()
        # Streaming sink, written incrementally for the run's lifetime:
        # atomicity cannot apply, partial JSONL is valid by design.
        self._sink = open(path, "w", encoding="ascii")  # check: allow(raw-write)
        self._sink_path = path

    def close_sink(self) -> Optional[str]:
        """Flush and close the JSONL sink; returns its path, if any."""
        path, sink = self._sink_path, self._sink
        self._sink = None
        self._sink_path = None
        if sink is not None:
            sink.close()
        return path

    def abandon_sink(self) -> None:
        """Drop the sink without flushing or closing it.

        For forked worker processes only: a fork inherits the parent's
        open sink handle *and* its buffered lines. Closing would flush
        that inherited buffer into the shared file (duplicating the
        parent's spans); abandoning forgets the handle so the child can
        :meth:`configure_sink` its own file while the parent's stays
        untouched.
        """
        self._sink = None
        self._sink_path = None
        self._sink_pending = 0

    # -- queries -------------------------------------------------------

    @property
    def origin(self) -> float:
        """The ``perf_counter`` instant all span starts are relative to."""
        return self._origin

    def aggregates(self) -> Dict[str, Dict[str, float]]:
        """Per-name timing summary: count / total / self / mean / min / max."""
        with self._lock:
            return {
                name: {
                    "count": int(count),
                    "total_s": total,
                    "self_s": self_s,
                    "mean_s": total / count if count else 0.0,
                    "min_s": lo,
                    "max_s": hi,
                }
                for name, (count, total, lo, hi, self_s) in sorted(
                    self._aggregates.items()
                )
            }

    def absorb_aggregates(self, aggregates: Dict[str, Dict[str, float]]) -> None:
        """Merge another tracer's :meth:`aggregates` into this one.

        Used at parallel-sweep join time: each worker's span timings
        (saved in its per-worker metrics file) are folded into the
        parent tracer's per-name aggregates, so ``run_metrics.json``
        and the summary table report the whole run.
        """
        with self._lock:
            for name, summary in aggregates.items():
                count = int(summary.get("count") or 0)
                if count > 0:
                    _fold(
                        self._aggregates,
                        name,
                        count,
                        float(summary.get("total_s") or 0.0),
                        float(summary.get("self_s") or 0.0),
                        float(summary.get("min_s") or 0.0),
                        float(summary.get("max_s") or 0.0),
                    )

    def reset(self) -> None:
        """Forget all recorded spans (sinks stay configured)."""
        with self._lock:
            self._aggregates = {}
            self._origin = time.perf_counter()
        self._local = threading.local()

    # -- internals -----------------------------------------------------

    def _stack(self) -> List[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, record: SpanRecord) -> None:
        duration, self_s = record.duration, record.self_s
        with self._lock:
            _fold(
                self._aggregates, record.name, 1, duration, self_s, duration, duration
            )
        if self._sink is not None:
            line = json.dumps(
                {
                    "kind": "span",
                    "schema": TRACE_SCHEMA,
                    "name": record.name,
                    "depth": record.depth,
                    "start_s": round(record.start - self._origin, 9),
                    "dur_s": round(duration, 9),
                    "self_s": round(self_s, 9),
                    "attrs": {k: _jsonable(v) for k, v in record.attrs.items()},
                },
                sort_keys=True,
            )
            self._sink.write(line + "\n")
            # Flush in batches: per-span fsync-ish flushing costs real
            # time on sweep-sized runs, and the close() flush covers
            # the tail.
            self._sink_pending += 1
            if self._sink_pending >= 64:
                self._sink.flush()
                self._sink_pending = 0


def _fold(
    aggregates: Dict[str, List[float]],
    name: str,
    count: int,
    total: float,
    self_s: float,
    lo: float,
    hi: float,
) -> None:
    """Add ``count`` spans of one name into ``aggregates``."""
    agg = aggregates.get(name)
    if agg is None:
        aggregates[name] = [count, total, lo, hi, self_s]
    else:
        agg[0] += count
        agg[1] += total
        agg[2] = min(agg[2], lo)
        agg[3] = max(agg[3], hi)
        agg[4] += self_s


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


#: The process-global tracer every instrumented module reports into.
TRACER = SpanTracer()


def get_tracer() -> SpanTracer:
    """The global tracer (one per process)."""
    return TRACER


def span(name: str, **attrs: Any):
    """``with span("name", k=v):`` on the global tracer."""
    return TRACER.span(name, **attrs)

