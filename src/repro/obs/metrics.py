"""Process-local counters, gauges, and histograms.

The runtime and simulation layers report what they *did* — branches
simulated, engine degradations, points restored, retries — into one
global :class:`MetricsRegistry`; the report layer snapshots it at the
end of a run. No sampling, no background threads, no dependencies:
every operation is a dict lookup plus an add under a lock, cheap enough
to leave enabled everywhere (instruments fire per *sweep point*, never
per branch).

Well-known instruments are pre-declared (:data:`WELL_KNOWN`), so a
metrics snapshot always carries the full schema — a run with zero
degradations reports ``guard.degradations: 0`` rather than omitting the
key, which keeps downstream tooling free of existence checks.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Optional, Tuple, Union

Number = Union[int, float]


class Counter:
    """Monotonically increasing value (int or seconds)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount!r}")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-write-wins value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self.value = value


#: Fixed log-spaced histogram bucket *upper bounds*: four per decade
#: from 1e-7 to 1e4 (seconds-scale and branches/sec-scale observations
#: both land inside the span). Fixed bounds are what make worker
#: histograms mergeable: two processes bucketing independently produce
#: bucket counts that add, so :meth:`Histogram.absorb` preserves the
#: distribution instead of collapsing it to count/mean/min/max.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** (k / 4.0) for k in range(-28, 17)
)


class Histogram:
    """Streaming summary with fixed log-spaced distribution buckets.

    Beyond count/sum/min/max, every observation lands in one of the
    :data:`BUCKET_BOUNDS` buckets (plus an overflow bucket), so
    :meth:`summary` can report bucketed percentile estimates
    (``p50``/``p90``/``p99``) and :meth:`absorb` can merge worker
    histograms without losing the shape of the distribution — the
    fleet-dashboard straggler detector keys off exactly that merged
    tail.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: Sparse bucket counts: index into :data:`BUCKET_BOUNDS` (or
        #: ``len(BUCKET_BOUNDS)`` for overflow) -> observation count.
        self.buckets: Dict[int, int] = {}

    @staticmethod
    def bucket_index(value: float) -> int:
        """The bucket whose upper bound first covers ``value``."""
        return bisect.bisect_left(BUCKET_BOUNDS, value)

    def observe(self, value: Number) -> None:
        value = float(value)
        index = self.bucket_index(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            self.buckets[index] = self.buckets.get(index, 0) + 1

    def _percentile(self, q: float) -> Optional[float]:
        """Bucketed estimate of the q-quantile (upper-bound biased).

        Returns the upper bound of the bucket containing the target
        rank, clamped to the observed ``[min, max]`` — exact at the
        edges, within one log-bucket (~78%) elsewhere.
        """
        if not self.count:
            return None
        rank = q * self.count
        cumulative = 0
        bound = self.max
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                if index < len(BUCKET_BOUNDS):
                    bound = BUCKET_BOUNDS[index]
                break
        assert bound is not None and self.min is not None and self.max is not None
        return min(max(bound, self.min), self.max)

    def summary(self) -> Dict[str, object]:
        with self._lock:
            return {
                "count": self.count,
                "total": self.total,
                "mean": self.total / self.count if self.count else 0.0,
                "min": self.min,
                "max": self.max,
                "p50": self._percentile(0.50),
                "p90": self._percentile(0.90),
                "p99": self._percentile(0.99),
                "buckets": [
                    [index, self.buckets[index]]
                    for index in sorted(self.buckets)
                ],
            }

    def absorb(self, summary: Dict[str, object]) -> None:
        """Merge another histogram's :meth:`summary` into this one.

        The parallel executor uses this at join time to fold each
        worker's saved histogram state into the parent registry, so the
        merged ``run_metrics.json`` covers the whole sweep. Bucket
        counts add (both sides bucket against the same fixed
        :data:`BUCKET_BOUNDS`), so the merged percentiles describe the
        whole fleet; a summary without buckets (older format) still
        merges its count/total/min/max.
        """
        count = int(summary.get("count") or 0)  # type: ignore[arg-type]
        if count <= 0:
            return
        lo = summary.get("min")
        hi = summary.get("max")
        pairs = summary.get("buckets")
        with self._lock:
            self.count += count
            self.total += float(summary.get("total") or 0.0)  # type: ignore[arg-type]
            if lo is not None:
                lo = float(lo)  # type: ignore[arg-type]
                self.min = lo if self.min is None else min(self.min, lo)
            if hi is not None:
                hi = float(hi)  # type: ignore[arg-type]
                self.max = hi if self.max is None else max(self.max, hi)
            if isinstance(pairs, list):
                for pair in pairs:
                    if (
                        isinstance(pair, (list, tuple))
                        and len(pair) == 2
                        and isinstance(pair[0], int)
                        and isinstance(pair[1], int)
                    ):
                        index, n = pair
                        if 0 <= index <= len(BUCKET_BOUNDS) and n > 0:
                            self.buckets[index] = (
                                self.buckets.get(index, 0) + n
                            )


#: Instruments every run reports, declared up front so snapshots have a
#: stable key set. ``grep`` for the name to find the emitting site.
WELL_KNOWN = {
    "counters": (
        "sim.branches",            # dynamic branches simulated (all engines)
        "sim.wall_s",              # seconds spent inside simulation engines
        "engine.vectorized.runs",
        "engine.reference.runs",
        "guard.degradations",      # vectorized -> reference fallbacks
        "guard.paranoid_checks",
        "guard.paranoid_disagreements",
        "sweep.points_computed",   # simulated this run
        "sweep.points_restored",   # points restored from a result store
        "retry.attempts",          # transient failures retried with backoff
        "deadline.expirations",
        "interrupt.deferred",      # SIGINTs held to the next point boundary
        "faults.injected",
        "check.findings",          # actionable static-check findings
        "sweep.points_pruned",     # points skipped by --plan-from-estimate
        "store.hits",              # trace-store loads that skipped generation
        "store.misses",            # trace-store requests that had to generate
        "exec.workers_spawned",    # pool worker processes started
        "exec.worker_failures",    # pool points lost to a worker error/death
        "doctor.repairs",          # artifacts repaired by `repro doctor`
        "store.evictions",         # trace-store files removed by gc/LRU
        "chaos.scenarios",         # chaos fault scenarios executed
        "chaos.failures",          # chaos scenarios that broke an invariant
        "sim.cpu_s",               # engine seconds summed across processes
        "exec.stragglers",         # workers flagged slower than fleet P90
        "analyze.functions",       # code objects decomposed into CFGs
        "analyze.cfg.blocks",      # basic blocks across extracted CFGs
        "analyze.cfg.edges",       # CFG edges across extracted CFGs
        "analyze.branches_profiled",  # branch outcomes recorded at runtime
        "cache.hits",              # result-store points served without simulating
        "cache.misses",            # result-store lookups that had to simulate
        "serve.jobs_submitted",    # jobs accepted into the serve queue
        "serve.jobs_deduped",      # submissions attached to an in-flight job
        "serve.jobs_completed",    # jobs finished with a result artifact
        "serve.jobs_failed",       # jobs that ended in an error state
        "serve.jobs_cancelled",    # jobs cancelled before completion
        "serve.rounds",            # pool runs the daemon started
    ),
    "gauges": (),
    "histograms": (
        "engine.branches_per_sec",  # per-engine-call throughput
        "sweep.point_s",            # wall seconds per computed sweep point
        # Phase profiler (repro.obs.profile; populated under --profile):
        "sim.phase.trace_decode",     # trace load/generation seconds
        "sim.phase.index_stream",     # counter-index stream computation
        "sim.phase.fsm_scan",         # segmented automaton scan passes
        "sim.phase.counter_update",   # sort/scatter around the scan
        "sim.phase.persist",          # result-store writes per point
        "sim.phase.engine_other",     # engine wall not covered above
        "analyze.profile_s",          # runtime branch-profiling seconds
        "serve.job_s",                # wall seconds per completed serve job
    ),
}


class MetricsRegistry:
    """Name -> instrument maps with get-or-create access."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._declare_well_known()

    def _declare_well_known(self) -> None:
        for name in WELL_KNOWN["counters"]:
            self.counter(name)
        for name in WELL_KNOWN["gauges"]:
            self.gauge(name)
        for name in WELL_KNOWN["histograms"]:
            self.histogram(name)

    def counter(self, name: str) -> Counter:
        return self._get(self.counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(self.gauges, name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(self.histograms, name, Histogram)

    def _get(self, table, name: str, factory):
        instrument = table.get(name)
        if instrument is None:
            with self._lock:
                instrument = table.setdefault(name, factory(name))
        return instrument

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict view of every instrument (JSON-serializable)."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self.counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: h.summary() for name, h in sorted(self.histograms.items())
            },
        }

    def reset(self) -> None:
        """Zero everything back to the declared baseline (tests)."""
        with self._lock:
            self.counters = {}
            self.gauges = {}
            self.histograms = {}
        self._declare_well_known()


#: The process-global registry all instrumented modules report into.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return REGISTRY.histogram(name)


def snapshot() -> Dict[str, Dict]:
    return REGISTRY.snapshot()


def reset_metrics() -> None:
    REGISTRY.reset()
