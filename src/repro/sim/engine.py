"""Engine dispatch: vectorized when possible, reference otherwise."""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.predictors.specs import PredictorSpec
from repro.sim.results import SimulationResult
from repro.traces.trace import BranchTrace

ENGINES = ("auto", "vectorized", "reference")


def simulate(
    spec: PredictorSpec,
    trace: BranchTrace,
    engine: str = "auto",
    paranoid: bool = False,
) -> SimulationResult:
    """Simulate one predictor configuration over one trace.

    ``engine="auto"`` (default) uses the vectorized engine whenever the
    scheme has one and falls back to the scalar reference loop
    otherwise — including when the vectorized engine crashes or
    produces a result failing cheap invariants (a structured warning is
    logged; see :mod:`repro.runtime.guard`). ``engine="vectorized"``
    never degrades: its failures raise
    :class:`~repro.errors.SimulationError`.

    ``paranoid=True`` additionally cross-checks the two engines
    prediction-by-prediction on a bounded trace prefix.
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    from repro.runtime.guard import guarded_simulate

    return guarded_simulate(spec, trace, engine=engine, paranoid=paranoid)
