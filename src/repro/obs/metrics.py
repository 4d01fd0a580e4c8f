"""Process-local counters.

The runtime and simulation layers report what they *did* — branches
simulated, points restored, worker failures — into one global
:class:`MetricsRegistry`; the report layer snapshots it at the end of a
run. No sampling, no background threads, no dependencies:
every operation is a dict lookup plus an add under a lock, cheap enough
to leave enabled everywhere (instruments fire per *sweep point*, never
per branch).

Well-known counters are pre-declared (:data:`WELL_KNOWN`), so a
metrics snapshot always carries the full schema — a run with no worker
failures reports ``exec.worker_failures: 0`` rather than omitting the
key, which keeps downstream tooling free of existence checks. Timings
are not metrics: they are spans (:mod:`repro.obs.spans`).
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple, Union

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


#: Counters every run reports, declared up front so snapshots have a
#: stable key set. ``grep`` for the name to find the emitting site.
WELL_KNOWN: Tuple[str, ...] = (
    "sim.branches",            # dynamic branches simulated (all engines)
    "sim.wall_s",              # seconds spent inside simulation engines
    "engine.vectorized.runs",
    "engine.reference.runs",
    "sweep.points_computed",   # simulated this run
    "sweep.points_restored",   # points restored from a result store
    "interrupt.deferred",      # SIGINTs held to the next point boundary
    "store.hits",              # trace-store loads that skipped generation
    "store.misses",            # trace-store requests that had to generate
    "exec.workers_spawned",    # pool worker processes started
    "exec.worker_failures",    # pool points lost to a worker error/death
    "doctor.repairs",          # artifacts repaired by `repro doctor`
    "store.evictions",         # trace-store files removed by gc/LRU
    "sim.cpu_s",               # engine seconds summed across processes
    "sim.native_calls",        # kernel calls run in C (0: no compiler)
    "analyze.functions",       # code objects decomposed into CFGs
    "analyze.cfg.blocks",      # basic blocks across extracted CFGs
    "analyze.cfg.edges",       # CFG edges across extracted CFGs
    "analyze.branches_profiled",  # branch outcomes recorded at runtime
    "cache.hits",              # result-store points served without simulating
    "cache.misses",            # result-store lookups that had to simulate
)


class MetricsRegistry:
    """Name -> counter map with get-or-create access."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: Dict[str, Counter] = {}
        self._declare_well_known()

    def _declare_well_known(self) -> None:
        for name in WELL_KNOWN:
            self.counter(name)

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.counters.setdefault(name, Counter(name))
        return instrument

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict view of every counter (JSON-serializable)."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self.counters.items())
            },
        }

    def reset(self) -> None:
        """Zero everything back to the declared baseline (tests)."""
        with self._lock:
            self.counters = {}
        self._declare_well_known()


#: The process-global registry all instrumented modules report into.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def snapshot() -> Dict[str, Dict]:
    return REGISTRY.snapshot()


def reset_metrics() -> None:
    REGISTRY.reset()
