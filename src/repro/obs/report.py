"""End-of-run reporting: summary tables and ``run_metrics.json``.

Two serialized artifacts, one renderer:

* **Metrics file** (``--metrics-out``) -- a single JSON object,
  schema :data:`METRICS_SCHEMA`::

      {"schema": "repro.run_metrics/2",
       "counters": {...},
       "spans": {name: {count, total_s, self_s, mean_s, min_s, max_s}},
       "derived": {"branches_per_sec": ..., "sim_wall_s": ...}}

  Spans are the one timing record; the counters say what was done.

* **Trace file** (``--trace-out``) -- JSON lines, one completed span
  per line (see :mod:`repro.obs.spans`).

``repro obs summarize PATH`` accepts either file and renders the same
aligned text table an in-process :func:`render_summary` produces; the
span table (count, total and self seconds per span name) reads the
same from both files of one serial run. A metrics file of the older
``repro.run_metrics/1`` schema still summarizes: its spans, counters
and derived rows render, and its gauge and histogram blocks are
ignored.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.utils.tables import format_table

METRICS_SCHEMA = "repro.run_metrics/2"

#: Metrics schemas ``repro obs summarize`` reads (this one and older).
READABLE_SCHEMAS = ("repro.run_metrics/1", METRICS_SCHEMA)


def collect() -> Dict[str, Any]:
    """Snapshot the global registry + tracer into one report dict."""
    counters = _metrics.snapshot()["counters"]
    branches = counters.get("sim.branches", 0)
    wall = counters.get("sim.wall_s", 0)
    cpu = counters.get("sim.cpu_s", 0) or wall
    return {
        "schema": METRICS_SCHEMA,
        "counters": counters,
        "spans": _spans.get_tracer().aggregates(),
        "derived": {
            # sim.wall_s is elapsed wall-clock (the parallel executor
            # folds worker engine time into sim.cpu_s instead), so this
            # rate is real end-to-end throughput for any worker count.
            "branches_per_sec": branches / wall if wall else 0.0,
            "sim_wall_s": wall,
            "sim_cpu_s": cpu,
        },
    }


def write_metrics(path: str) -> Dict[str, Any]:
    """Write the current :func:`collect` report to ``path`` atomically."""
    from repro.runtime.durable import atomic_write_text

    report = collect()
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def render_summary(report: Optional[Dict[str, Any]] = None) -> str:
    """Aligned text summary of a report dict (default: the live state)."""
    if report is None:
        report = collect()
    blocks = []

    spans = report.get("spans") or {}
    if spans:
        rows = [
            [
                name,
                agg["count"],
                agg["total_s"],
                agg.get("self_s", "-"),
                agg["mean_s"],
                agg["max_s"],
            ]
            for name, agg in spans.items()
        ]
        blocks.append(
            "phase timings\n"
            + format_table(
                rows,
                headers=("span", "count", "total_s", "self_s", "mean_s", "max_s"),
                float_fmt=".4f",
            )
        )

    derived = report.get("derived") or {}
    counters = report.get("counters") or {}
    if counters or derived:
        rows = [[name, value] for name, value in sorted(counters.items())]
        rows += [
            [name, value]
            for name, value in sorted(derived.items())
            if isinstance(value, (int, float))
        ]
        blocks.append(
            "counters\n"
            + format_table(rows, headers=("counter", "value"), float_fmt=".1f")
        )

    return "\n\n".join(blocks) if blocks else "(no telemetry recorded)"


def summarize_path(path: str) -> str:
    """Render a saved metrics JSON or span-trace JSONL file as text.

    Content problems — empty file, unknown schema, mid-file junk —
    raise :class:`ReproError` (CLI exit 2) with the offending path and
    line; a *torn final line* in a JSONL trace is expected after a
    crash and is reported in the header rather than failing the read.
    """
    try:
        with open(path, "r", encoding="ascii", errors="replace") as handle:
            text = handle.read()
    except OSError as exc:
        raise ReproError(f"cannot read telemetry file {path!r}: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        raise ReproError(f"telemetry file {path!r} is empty")
    # A metrics file is one (possibly pretty-printed) JSON object; a
    # trace file is one JSON object *per line*.
    try:
        whole = json.loads(stripped)
    except ValueError:
        whole = None
    if isinstance(whole, dict):
        if whole.get("schema") not in READABLE_SCHEMAS:
            raise ReproError(
                f"telemetry file {path!r} has schema "
                f"{whole.get('schema')!r}, expected {METRICS_SCHEMA!r}"
            )
        return render_summary(whole)
    try:
        first = json.loads(stripped.splitlines()[0])
    except ValueError as exc:
        raise ReproError(
            f"telemetry file {path!r} is not JSON or JSONL: {exc}"
        ) from exc
    if isinstance(first, dict) and first.get("kind") == "span":
        return _summarize_trace_lines(path, stripped.splitlines())
    raise ReproError(
        f"telemetry file {path!r} is neither a {METRICS_SCHEMA} metrics "
        "file nor a span-trace JSONL"
    )


def _summarize_trace_lines(path: str, lines) -> str:
    """Aggregate a JSONL span trace into the phase-timings table.

    A bad *final* line is a torn tail (the streaming sink cannot be
    atomic by design) — noted in the header and skipped. Bad lines
    anywhere else mean the file is not a trace at all and raise.
    """
    tracer = _spans.SpanTracer()
    total_spans = 0
    torn_tail = False
    last_lineno = len(lines)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            if lineno == last_lineno:
                torn_tail = True
                continue
            raise ReproError(f"{path}:{lineno}: bad trace line: {exc}") from exc
        if not isinstance(record, dict) or record.get("kind") != "span":
            continue
        total_spans += 1
        dur = float(record.get("dur_s", 0.0))
        one = {
            "count": 1,
            "total_s": dur,
            "self_s": float(record.get("self_s", dur)),
            "min_s": dur,
            "max_s": dur,
        }
        tracer.absorb_aggregates({record.get("name", "?"): one})
    header = f"span trace {path}: {total_spans} spans"
    if torn_tail:
        header += " (torn final line skipped)"
    header += "\n\n"
    return header + render_summary({"spans": tracer.aggregates()})
