"""Observability: spans, metrics, structured logging, reports, progress.

A dependency-free telemetry layer the simulation and runtime stack
report into (see the per-module docs):

* :mod:`repro.obs.spans`    -- nested wall-clock spans, the one timing
  record: per-name count / total / self time, and an optional
  streamed JSONL trace sink;
* :mod:`repro.obs.metrics`  -- process-local counters in one global
  registry: what a run did, never how long it took;
* :mod:`repro.obs.logging`  -- key=value or JSON structured logging for
  the ``repro.*`` namespace;
* :mod:`repro.obs.report`   -- end-of-run summary tables and the
  ``run_metrics.json`` artifact (``repro obs summarize`` reads both);
* :mod:`repro.obs.progress` -- throttled stderr heartbeats with ETA,
  the one live display for serial and parallel sweeps alike.

The simulator's hot stages (``workload.generate``, ``trace_encode``,
``trace_decode``, ``index_stream``, ``counter_update`` with ``fsm_scan``
inside it, and ``persist``) are spans like any other, so every run's
span table is its phase breakdown: the self times of ``engine.<kind>``
and of the spans inside it sum to ``sim.wall_s``. Instrumentation is always on
but fires per sweep point / engine call (never per branch), so its
cost is noise; the file sinks and log verbosity are opt-in via the CLI
flags ``--trace-out``, ``--metrics-out``, ``--progress``, and
``--log-level``.
"""

from repro.obs.logging import get_logger, setup_logging, teardown_logging
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    MetricsRegistry,
    counter,
    reset_metrics,
    snapshot,
)
from repro.obs.progress import ProgressReporter
from repro.obs.report import (
    METRICS_SCHEMA,
    collect,
    render_summary,
    summarize_path,
    write_metrics,
)
from repro.obs.spans import (
    TRACE_SCHEMA,
    SpanRecord,
    SpanTracer,
    get_tracer,
    span,
)

__all__ = [
    "get_logger",
    "setup_logging",
    "teardown_logging",
    "REGISTRY",
    "Counter",
    "MetricsRegistry",
    "counter",
    "reset_metrics",
    "snapshot",
    "ProgressReporter",
    "METRICS_SCHEMA",
    "collect",
    "render_summary",
    "summarize_path",
    "write_metrics",
    "TRACE_SCHEMA",
    "SpanRecord",
    "SpanTracer",
    "get_tracer",
    "span",
]
