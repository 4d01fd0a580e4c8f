"""repro: a reproduction of Sechrest, Lee & Mudge (ISCA 1996),
"Correlation and Aliasing in Dynamic Branch Predictors".

The library provides:

* :mod:`repro.traces`     -- branch-trace container, I/O, characterization
* :mod:`repro.workloads`  -- calibrated synthetic workload generator
* :mod:`repro.predictors` -- the full two-level predictor design space
* :mod:`repro.sim`        -- scalar reference + vectorized numpy engines
* :mod:`repro.runtime`    -- resilient runs: sweep keys, atomic writes,
  cooperative interrupts
* :mod:`repro.obs`        -- observability: span tracing, metrics,
  structured logging, run reports, progress
* :mod:`repro.aliasing`   -- aliasing instrumentation and classification
* :mod:`repro.analysis`   -- surfaces, best-config selection, rendering
* :mod:`repro.experiments`-- one module per paper table/figure

Quickstart::

    from repro import make_workload, simulate, make_predictor_spec

    trace = make_workload("mpeg_play", length=200_000, seed=1)
    spec = make_predictor_spec("gshare", rows=1024, cols=4)
    result = simulate(spec, trace)
    print(result.misprediction_rate)
"""

from repro._version import __version__
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    ExperimentError,
    ReproError,
    TraceError,
    WorkloadError,
)
from repro.traces import BranchTrace, characterize, load_trace, save_trace

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "TraceError",
    "WorkloadError",
    "ExperimentError",
    "CheckpointError",
    "BranchTrace",
    "characterize",
    "load_trace",
    "save_trace",
    # populated lazily below
    "make_workload",
    "list_workloads",
    "make_predictor",
    "make_predictor_spec",
    "simulate",
    "sweep_tiers",
]


def __getattr__(name):  # noqa: ANN001, ANN202 - PEP 562 lazy re-exports
    """Lazily re-export the high-level API.

    The workload/predictor/sim subpackages import each other's leaf
    modules; loading them lazily keeps ``import repro`` cheap and free
    of import cycles.
    """
    if name in ("make_workload", "list_workloads"):
        from repro import workloads

        return getattr(workloads, name)
    if name in ("make_predictor", "make_predictor_spec"):
        from repro import predictors

        return getattr(predictors, name)
    if name in ("simulate", "sweep_tiers"):
        from repro import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
