"""Engine dispatch: vectorized when possible, reference otherwise."""

from __future__ import annotations

import time

from repro.errors import ConfigurationError
from repro.obs.metrics import counter
from repro.obs.spans import span
from repro.predictors.specs import PredictorSpec
from repro.sim.results import SimulationResult
from repro.traces.trace import BranchTrace

ENGINES = ("auto", "vectorized", "reference")


def simulate(
    spec: PredictorSpec,
    trace: BranchTrace,
    engine: str = "auto",
) -> SimulationResult:
    """Simulate one predictor configuration over one trace.

    ``engine="auto"`` (default) uses the vectorized engine whenever the
    scheme has one and the scalar reference loop otherwise; the two are
    bit-identical (``tests/test_sim_equivalence.py``). An engine's
    exception propagates as it is: there is no second execution path.

    ``engine.<kind>`` is the one span per call; the stage spans inside
    it (``index_stream``, ``counter_update``, ``fsm_scan``) and its own
    self time tile its duration. ``sim.wall_s`` and ``sim.cpu_s`` both
    advance by the call's elapsed time here; they diverge only in the
    parallel executor, which keeps worker engine time out of the
    parent's ``sim.wall_s`` (elapsed wall clock) while summing it into
    ``sim.cpu_s``.
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    from repro.sim.reference import simulate_reference
    from repro.sim.vectorized import has_vectorized_engine, simulate_vectorized

    if engine == "auto":
        engine = "vectorized" if has_vectorized_engine(spec) else "reference"
    run = simulate_vectorized if engine == "vectorized" else simulate_reference
    with span(f"engine.{engine}", scheme=spec.scheme, trace=trace.name):
        started = time.perf_counter()
        result = run(spec, trace)
        elapsed = time.perf_counter() - started
    counter(f"engine.{engine}.runs").inc()
    counter("sim.branches").inc(len(trace))
    counter("sim.wall_s").inc(elapsed)
    counter("sim.cpu_s").inc(elapsed)
    return result
