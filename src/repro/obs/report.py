"""End-of-run reporting: summary tables and ``run_metrics.json``.

Two serialized artifacts, one renderer:

* **Metrics file** (``--metrics-out``) -- a single JSON object,
  schema :data:`METRICS_SCHEMA`::

      {"schema": "repro.run_metrics/1",
       "counters": {...}, "gauges": {...}, "histograms": {...},
       "spans": {name: {count, total_s, mean_s, min_s, max_s}},
       "derived": {"branches_per_sec": ..., "sim_wall_s": ...}}

* **Trace file** (``--trace-out``) -- JSON lines, one completed span
  per line (see :mod:`repro.obs.spans`).

``repro obs summarize PATH`` accepts either file and renders the same
aligned text table an in-process :func:`render_summary` produces.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.utils.tables import format_table

METRICS_SCHEMA = "repro.run_metrics/1"

#: Top-level keys of the metrics report; ``collect(extra=...)`` refuses
#: extras that would shadow them.
RESERVED_KEYS = (
    "schema",
    "counters",
    "gauges",
    "histograms",
    "spans",
    "derived",
    "extra",
)


def collect(extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Snapshot the global registry + tracer into one report dict.

    ``extra`` entries are namespaced under the report's ``"extra"``
    key; an extra named like a schema key (:data:`RESERVED_KEYS`) is a
    caller bug and raises :class:`ReproError` rather than silently
    clobbering the snapshot.
    """
    snapshot = _metrics.snapshot()
    counters = snapshot["counters"]
    branches = counters.get("sim.branches", 0)
    wall = counters.get("sim.wall_s", 0)
    cpu = counters.get("sim.cpu_s", 0) or wall
    report: Dict[str, Any] = {
        "schema": METRICS_SCHEMA,
        **snapshot,
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
    if extra:
        clobbered = sorted(set(extra) & set(RESERVED_KEYS))
        if clobbered:
            raise ReproError(
                f"collect(extra=...) keys {clobbered} collide with the "
                f"{METRICS_SCHEMA} schema; pick non-reserved names"
            )
        report["extra"] = dict(extra)
    return report


def write_metrics(path: str, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Write the current :func:`collect` report to ``path`` atomically."""
    from repro.runtime.durable import atomic_write_text

    report = collect(extra)
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
            [name, agg["count"], agg["total_s"], agg["mean_s"], agg["max_s"]]
            for name, agg in spans.items()
        ]
        blocks.append(
            "phase timings\n"
            + format_table(
                rows,
                headers=("span", "count", "total_s", "mean_s", "max_s"),
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

    gauges = {
        name: value
        for name, value in (report.get("gauges") or {}).items()
        if value is not None
    }
    if gauges:
        rows = [[name, value] for name, value in sorted(gauges.items())]
        blocks.append(
            "gauges\n" + format_table(rows, headers=("gauge", "value"))
        )

    histograms = report.get("histograms") or {}
    if histograms:
        rows = [
            [
                name,
                summary["count"],
                summary["mean"],
                _cell(summary.get("min")),
                _cell(summary.get("p50")),
                _cell(summary.get("p90")),
                _cell(summary.get("p99")),
                _cell(summary.get("max")),
            ]
            for name, summary in sorted(histograms.items())
        ]
        blocks.append(
            "histograms\n"
            + format_table(
                rows,
                headers=(
                    "histogram", "count", "mean",
                    "min", "p50", "p90", "p99", "max",
                ),
                float_fmt=".4g",
            )
        )

    extra = report.get("extra") or {}
    if extra:
        rows = [[name, _cell(value)] for name, value in sorted(extra.items())]
        blocks.append(
            "extra\n" + format_table(rows, headers=("key", "value"))
        )

    return "\n\n".join(blocks) if blocks else "(no telemetry recorded)"


def _cell(value: Any) -> Any:
    """A table cell for a possibly-missing numeric field."""
    return value if value is not None else "-"


def render_phases(report: Optional[Dict[str, Any]] = None) -> str:
    """The phase-profiler view: ``sim.phase.*`` time vs ``sim.wall_s``.

    Renders each profiled phase's total seconds, share of engine wall
    time, and per-occurrence p50/p99. Runs without ``--profile`` have
    empty phase histograms, which is reported as such rather than as a
    table of zeros.
    """
    if report is None:
        report = collect()
    from repro.obs.profile import PHASE_PREFIX, PHASES

    histograms = report.get("histograms") or {}
    counters = report.get("counters") or {}
    wall = float(counters.get("sim.wall_s") or 0.0)
    rows = []
    for name in PHASES:
        summary = histograms.get(PHASE_PREFIX + name) or {}
        count = int(summary.get("count") or 0)
        if not count:
            continue
        total = float(summary.get("total") or 0.0)
        rows.append(
            [
                name,
                count,
                total,
                f"{100.0 * total / wall:.1f}%" if wall else "-",
                _cell(summary.get("p50")),
                _cell(summary.get("p99")),
            ]
        )
    if not rows:
        return "(no phase telemetry; run with --profile)"
    header = f"phase profile (sim.wall_s = {wall:.4g}s)\n"
    return header + format_table(
        rows,
        headers=("phase", "count", "total_s", "% wall", "p50", "p99"),
        float_fmt=".4g",
    )


def summarize_path(path: str, phases: bool = False) -> str:
    """Render a saved metrics JSON or span-trace JSONL file as text.

    ``phases=True`` renders the phase-profiler view instead of the full
    summary (metrics files only; a span trace has no histograms).
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
        if whole.get("schema") != METRICS_SCHEMA:
            raise ReproError(
                f"telemetry file {path!r} has schema "
                f"{whole.get('schema')!r}, expected {METRICS_SCHEMA!r}"
            )
        return render_phases(whole) if phases else render_summary(whole)
    try:
        first = json.loads(stripped.splitlines()[0])
    except ValueError as exc:
        raise ReproError(
            f"telemetry file {path!r} is not JSON or JSONL: {exc}"
        ) from exc
    if isinstance(first, dict) and first.get("kind") == "span":
        if phases:
            raise ReproError(
                f"telemetry file {path!r} is a span trace; --phases "
                "needs a metrics file from a --profile run"
            )
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
    aggregates: Dict[str, list] = {}  # name -> [count, total, min, max]
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
        name, dur = record.get("name", "?"), float(record.get("dur_s", 0.0))
        agg = aggregates.get(name)
        if agg is None:
            aggregates[name] = [1, dur, dur, dur]
        else:
            agg[0] += 1
            agg[1] += dur
            agg[2] = min(agg[2], dur)
            agg[3] = max(agg[3], dur)
    spans = {
        name: {
            "count": count,
            "total_s": total,
            "mean_s": total / count,
            "min_s": lo,
            "max_s": hi,
        }
        for name, (count, total, lo, hi) in sorted(aggregates.items())
    }
    header = f"span trace {path}: {total_spans} spans"
    if torn_tail:
        header += " (torn final line skipped)"
    header += "\n\n"
    return header + render_summary(
        {"spans": spans, "counters": {}, "gauges": {}, "histograms": {}, "derived": {}}
    )
