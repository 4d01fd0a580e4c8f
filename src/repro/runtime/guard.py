"""Engine guarding: invariants, cross-validation, graceful degradation.

The vectorized engines make the paper's sweeps feasible, but a sweep
must not die because one point hit an engine bug. ``guarded_simulate``
implements the policy:

* ``engine="auto"`` -- try the vectorized engine; if it *crashes* (any
  non-library exception) or returns a result violating cheap
  invariants, log a structured warning and recompute the point with the
  scalar reference engine, which is the semantic ground truth.
* ``engine="vectorized"`` -- never degrade; crashes and invariant
  violations surface as :class:`~repro.errors.SimulationError` (with
  the original exception chained) so callers asking for a specific
  engine see its failures.
* ``paranoid=True`` -- additionally cross-check the two engines
  prediction-by-prediction on a bounded trace prefix; a disagreement
  degrades (auto) or raises (vectorized).

Deliberate library errors (:class:`~repro.errors.ReproError`: bad spec,
empty trace, ...) always propagate — degrading around a caller mistake
would just hide it.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.errors import ReproError, SimulationError
from repro.obs.logging import get_logger
from repro.obs.metrics import counter, histogram
from repro.obs.spans import span
from repro.predictors.specs import PredictorSpec
from repro.sim.reference import simulate_reference
from repro.sim.results import SimulationResult
from repro.sim.vectorized import has_vectorized_engine, simulate_vectorized
from repro.traces.trace import BranchTrace

logger = get_logger("repro.runtime.guard")

#: Prefix length for the paranoid cross-check. Long enough to exercise
#: warm-up, training and aliasing behaviour; short enough to keep the
#: check a small fraction of a realistic point's cost.
PARANOID_PREFIX = 2048


def result_invariant_violation(
    result: SimulationResult, trace: BranchTrace
) -> Optional[str]:
    """Cheap sanity checks on an engine result; None when clean."""
    predictions = np.asarray(result.predictions)
    if predictions.shape != (len(trace),):
        return (
            f"predictions shape {predictions.shape} != ({len(trace)},)"
        )
    if predictions.dtype != np.bool_:
        return f"predictions dtype {predictions.dtype} is not bool"
    if not np.array_equal(np.asarray(result.taken), trace.taken):
        return "result outcome stream differs from the trace"
    mispredictions = result.mispredictions
    if not 0 <= mispredictions <= len(trace):
        return (
            f"misprediction count {mispredictions} outside "
            f"[0, {len(trace)}]"
        )
    miss = result.first_level_miss_rate
    if miss is not None and not 0.0 <= miss <= 1.0:
        return f"first-level miss rate {miss} outside [0, 1]"
    return None


def _timed_engine(kind: str, run, spec: PredictorSpec, trace: BranchTrace):
    """Run one engine call under a span, reporting throughput metrics.

    ``engine.<kind>`` is the one span per engine call; the stage spans
    inside it (``index_stream``, ``counter_update``, ``fsm_scan``) and
    its own self time tile its duration. ``sim.wall_s`` and
    ``sim.cpu_s`` both advance by the call's elapsed time here; they
    diverge only in the parallel executor, which keeps worker engine
    time out of the parent's ``sim.wall_s`` (elapsed wall clock) while
    summing it into ``sim.cpu_s``.
    """
    with span(f"engine.{kind}", scheme=spec.scheme, trace=trace.name):
        started = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - started
    counter(f"engine.{kind}.runs").inc()
    counter("sim.branches").inc(len(trace))
    counter("sim.wall_s").inc(elapsed)
    counter("sim.cpu_s").inc(elapsed)
    if elapsed > 0:
        histogram("engine.branches_per_sec").observe(len(trace) / elapsed)
    return result


def _run_vectorized(spec: PredictorSpec, trace: BranchTrace) -> SimulationResult:
    return _timed_engine(
        "vectorized", lambda: simulate_vectorized(spec, trace), spec, trace
    )


def _run_reference(spec: PredictorSpec, trace: BranchTrace) -> SimulationResult:
    return _timed_engine(
        "reference", lambda: simulate_reference(spec, trace), spec, trace
    )


def _paranoid_disagreement(
    spec: PredictorSpec, trace: BranchTrace
) -> Optional[str]:
    """Cross-check both engines on a prefix; None when they agree."""
    counter("guard.paranoid_checks").inc()
    prefix = trace.slice(0, min(len(trace), PARANOID_PREFIX))
    with span("guard.paranoid", scheme=spec.scheme, trace=trace.name):
        fast = _run_vectorized(spec, prefix)
        slow = _run_reference(spec, prefix)
    mismatches = int(
        np.count_nonzero(fast.predictions != slow.predictions)
    )
    if mismatches:
        counter("guard.paranoid_disagreements").inc()
        return (
            f"engines disagree on {mismatches}/{len(prefix)} "
            "prefix predictions"
        )
    return None


def _warn_degraded(spec: PredictorSpec, trace: BranchTrace, reason: str) -> None:
    counter("guard.degradations").inc()
    logger.warning(
        "vectorized engine degraded to reference: "
        "scheme=%s shape=%s trace=%s reason=%r",
        spec.scheme,
        spec.size_label if spec.scheme != "static" else "-",
        trace.name,
        reason,
    )


def guarded_simulate(
    spec: PredictorSpec,
    trace: BranchTrace,
    engine: str = "auto",
    paranoid: bool = False,
) -> SimulationResult:
    """Simulate with the degradation policy described in the module doc."""
    if engine == "reference":
        return _run_reference(spec, trace)

    if engine == "vectorized":
        try:
            result = _run_vectorized(spec, trace)
        except ReproError:
            raise
        except Exception as exc:
            raise SimulationError(
                f"vectorized engine failed for {spec.describe()} on "
                f"{trace.name!r}: {exc}"
            ) from exc
        problem = result_invariant_violation(result, trace)
        if problem is None and paranoid:
            problem = _paranoid_disagreement(spec, trace)
        if problem is not None:
            raise SimulationError(
                f"vectorized engine produced an invalid result for "
                f"{spec.describe()}: {problem}"
            )
        return result

    # engine == "auto": degrade instead of dying.
    if not has_vectorized_engine(spec):
        return _run_reference(spec, trace)
    try:
        result = _run_vectorized(spec, trace)
        problem = result_invariant_violation(result, trace)
        if problem is None and paranoid:
            problem = _paranoid_disagreement(spec, trace)
    except ReproError:
        raise
    except Exception as exc:
        _warn_degraded(spec, trace, f"engine raised {exc!r}")
        return _run_reference(spec, trace)
    if problem is not None:
        _warn_degraded(spec, trace, problem)
        return _run_reference(spec, trace)
    return result
