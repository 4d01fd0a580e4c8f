"""Exporters: Chrome ``trace_event`` JSON and Prometheus textfiles.

Two one-way bridges out of the in-process telemetry:

* :func:`chrome_trace` converts the span tracer's in-memory tree into
  the Chrome ``trace_event`` format (``{"traceEvents": [...]}`` with
  ``"ph": "X"`` complete events, microsecond timestamps), which loads
  directly in Perfetto / ``chrome://tracing``. Enabled per run with
  ``repro run ... --trace-out FILE --trace-out-format chrome``. Only
  spans retained in the parent process tree are exported — per-worker
  span trees live in their own JSONL sinks.
* :func:`prometheus_text` renders a metrics snapshot (live registry,
  a saved ``run_metrics.json``, or the newest ledger rows) in the
  Prometheus textfile exposition format, for the node-exporter
  textfile collector or a future ``repro serve`` scrape endpoint.
  ``repro obs export-prom PATH`` writes it atomically.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Optional

from repro.obs.spans import SpanRecord, SpanTracer, get_tracer


def chrome_trace(tracer: Optional[SpanTracer] = None) -> Dict[str, Any]:
    """The tracer's span tree as a Chrome ``trace_event`` document.

    Every retained span becomes one complete ("X") event with
    microsecond ``ts`` (relative to the tracer's origin) and ``dur``;
    span attributes ride along in ``args``. The walk is iterative, so
    arbitrarily deep trees cannot hit the recursion limit.
    """
    if tracer is None:
        tracer = get_tracer()
    events: List[Dict[str, Any]] = []
    pid = os.getpid()
    stack: List[SpanRecord] = list(reversed(tracer.roots))
    while stack:
        record = stack.pop()
        if record.end is None:
            continue
        events.append(
            {
                "name": record.name,
                "ph": "X",
                "cat": "repro",
                "ts": (record.start - tracer.origin) * 1e6,
                "dur": record.duration * 1e6,
                "pid": pid,
                "tid": 1,
                "args": {k: _arg(v) for k, v in record.attrs.items()},
            }
        )
        stack.extend(reversed(record.children))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, tracer: Optional[SpanTracer] = None) -> int:
    """Write :func:`chrome_trace` to ``path``; returns the event count."""
    from repro.runtime.durable import atomic_write_text

    document = chrome_trace(tracer)
    atomic_write_text(path, json.dumps(document, sort_keys=True) + "\n")
    return len(document["traceEvents"])


def _arg(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# ----------------------------------------------------------------------
# Prometheus textfile exposition
# ----------------------------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    """A metric name sanitized into the Prometheus grammar."""
    return "repro_" + _NAME_RE.sub("_", name)


def _fmt(value: Any) -> str:
    if value is None:
        return "NaN"
    return repr(float(value))


def prometheus_text(snapshot: Dict[str, Any]) -> str:
    """A metrics snapshot in the Prometheus textfile format.

    ``snapshot`` is the ``{"counters", "gauges", "histograms"}`` shape
    produced by :func:`repro.obs.metrics.snapshot` (and embedded in
    ``run_metrics.json``). Counters become ``_total`` counters, gauges
    become gauges, histograms become summaries (``_count``/``_sum``
    plus ``quantile`` rows from the bucketed p50/p90/p99).
    """
    lines: List[str] = []
    for name, value in sorted((snapshot.get("counters") or {}).items()):
        metric = _prom_name(name) + "_total"
        lines.append(f"# HELP {metric} repro counter {name}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(value or 0)}")
    for name, value in sorted((snapshot.get("gauges") or {}).items()):
        if value is None:
            continue
        metric = _prom_name(name)
        lines.append(f"# HELP {metric} repro gauge {name}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(value)}")
    for name, summary in sorted((snapshot.get("histograms") or {}).items()):
        if not summary.get("count"):
            continue
        metric = _prom_name(name)
        lines.append(f"# HELP {metric} repro histogram {name}")
        lines.append(f"# TYPE {metric} summary")
        for quantile, q in (("p50", "0.5"), ("p90", "0.9"), ("p99", "0.99")):
            value = summary.get(quantile)
            if value is not None:
                lines.append(f'{metric}{{quantile="{q}"}} {_fmt(value)}')
        lines.append(f"{metric}_sum {_fmt(summary.get('total') or 0.0)}")
        lines.append(f"{metric}_count {int(summary.get('count') or 0)}")
    return "\n".join(lines) + "\n" if lines else ""


def ledger_prometheus_text(entries: List[Dict[str, Any]]) -> str:
    """The latest ledger row per bench as Prometheus gauges."""
    latest: Dict[str, Dict[str, Any]] = {}
    for entry in entries:
        latest[str(entry.get("bench", "?"))] = entry
    if not latest:
        return ""
    lines = [
        "# HELP repro_bench_branches_per_sec latest ledger throughput per bench",
        "# TYPE repro_bench_branches_per_sec gauge",
    ]
    for bench, entry in sorted(latest.items()):
        lines.append(
            f'repro_bench_branches_per_sec{{bench="{bench}"}} '
            f"{_fmt(entry.get('branches_per_sec') or 0.0)}"
        )
    lines.append("# HELP repro_bench_wall_seconds latest ledger wall time per bench")
    lines.append("# TYPE repro_bench_wall_seconds gauge")
    for bench, entry in sorted(latest.items()):
        lines.append(
            f'repro_bench_wall_seconds{{bench="{bench}"}} '
            f"{_fmt(entry.get('wall_s') or 0.0)}"
        )
    return "\n".join(lines) + "\n"


def write_prometheus(
    path: str,
    snapshot: Optional[Dict[str, Any]] = None,
    ledger_entries: Optional[List[Dict[str, Any]]] = None,
) -> str:
    """Write a Prometheus textfile to ``path`` atomically.

    With no arguments, exports the live registry. A ``run_metrics.json``
    dict can be passed as ``snapshot``; ledger rows (from
    :func:`repro.obs.ledger.load_entries`) append per-bench gauges.
    """
    from repro.obs import metrics as _metrics
    from repro.runtime.durable import atomic_write_text

    if snapshot is None:
        snapshot = _metrics.snapshot()
    text = prometheus_text(snapshot)
    if ledger_entries is not None:
        text += ledger_prometheus_text(ledger_entries)
    atomic_write_text(path, text)
    return text
