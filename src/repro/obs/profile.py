"""Opt-in phase profiler for the simulator's hot stages.

``repro run --profile`` (or :func:`enable_profiling`) turns on
per-phase wall-clock accumulation around the stages that dominate a
sweep: trace decode, counter-index stream computation, the segmented
automaton scan, the sort/scatter around it, and point persistence.
Each phase reports into a well-known ``sim.phase.*`` histogram
(:data:`repro.obs.metrics.WELL_KNOWN`), rendered by
``repro obs summarize --phases``.

Design constraints:

* **Zero cost when off.** The hot paths (``sim/vectorized.py``,
  ``sim/fsm_scan.py``) call :func:`phase` unconditionally; disabled, it
  is a single global-flag check and a bare ``yield``. The hot-path lint
  (``code.hot-time``) forbids ``time.*`` calls in those files — the
  clock lives here, behind the flag.
* **Phases tile the engine.** The engine-internal phases
  (``index_stream``, ``fsm_scan``, ``counter_update``) are
  non-overlapping by construction, and the engine guard records the
  *residual* of each engine call as ``engine_other``
  (:func:`record_engine_other`), so
  ``sum(sim.phase.<engine phases>) ~= sim.wall_s`` whenever profiling
  is on. ``trace_decode`` and ``persist`` (the result-store writes of
  each finished point) happen outside engine calls and are reported
  separately.
* **Low overhead.** One ``perf_counter_ns`` pair per phase entry, a
  histogram observation, and a dict add under a lock — phases fire per
  engine call / point write, never per branch. Measured overhead on
  the benchmark sweeps is under ~1% of wall time.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

from repro.obs.metrics import histogram

#: Histogram-name prefix for every profiled phase.
PHASE_PREFIX = "sim.phase."

#: All profiled phases, in pipeline order.
PHASES: Tuple[str, ...] = (
    "trace_decode",
    "index_stream",
    "fsm_scan",
    "counter_update",
    "persist",
    "engine_other",
)

#: Phases whose time is spent *inside* engine calls; their totals sum
#: to ``sim.wall_s`` (within measurement noise) when profiling is on,
#: because ``engine_other`` is defined as each call's residual.
ENGINE_PHASES: Tuple[str, ...] = (
    "index_stream",
    "fsm_scan",
    "counter_update",
    "engine_other",
)

#: Engine phases measured directly (everything but the residual).
_COVERED_ENGINE_PHASES: Tuple[str, ...] = (
    "index_stream",
    "fsm_scan",
    "counter_update",
)

_lock = threading.Lock()
_enabled = False
_totals: Dict[str, float] = {}


def enable_profiling() -> None:
    """Turn phase accumulation on (cleared totals, fresh run)."""
    global _enabled
    with _lock:
        _totals.clear()
        _enabled = True


def disable_profiling() -> None:
    """Turn phase accumulation off and forget accumulated totals."""
    global _enabled
    with _lock:
        _enabled = False
        _totals.clear()


def profiling_enabled() -> bool:
    """Whether :func:`phase` is currently measuring."""
    return _enabled


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Time one phase occurrence; a no-op while profiling is off.

    ``name`` must be one of :data:`PHASES` — the histogram it reports
    into (``sim.phase.<name>``) is pre-declared in ``WELL_KNOWN``.
    """
    if not _enabled:
        yield
        return
    started = time.perf_counter_ns()
    try:
        yield
    finally:
        seconds = (time.perf_counter_ns() - started) / 1e9
        _record(name, seconds)


def _record(name: str, seconds: float) -> None:
    histogram(PHASE_PREFIX + name).observe(seconds)
    with _lock:
        _totals[name] = _totals.get(name, 0.0) + seconds


def covered_engine_seconds() -> float:
    """Accumulated seconds of the directly measured engine phases.

    The engine guard snapshots this around each engine call to compute
    the call's ``engine_other`` residual.
    """
    with _lock:
        return sum(_totals.get(name, 0.0) for name in _COVERED_ENGINE_PHASES)


def record_engine_other(seconds: float) -> None:
    """Report one engine call's unattributed residual seconds."""
    if _enabled and seconds >= 0.0:
        _record("engine_other", seconds)


def phase_totals() -> Dict[str, float]:
    """Accumulated seconds per phase since profiling was enabled."""
    with _lock:
        return dict(_totals)
