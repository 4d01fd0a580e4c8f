"""Simulation engines.

Two engines with identical semantics:

* :mod:`repro.sim.reference` — a scalar loop driving the predictor
  objects from :mod:`repro.predictors`; obviously correct, slow.
* :mod:`repro.sim.vectorized` — index streams from one history loop
  feeding the counter kernel (:mod:`repro.sim.fsm_scan`), sequential
  C passes per configuration (:mod:`repro.sim.native`), or, without a
  compiler, the same loops transcribed into Python: the paper simulated
  hundreds of millions of branches per configuration, and the
  configuration sweeps of Figures 4-10 multiply that by ~80 shapes.

``simulate`` picks the vectorized engine when one exists for the spec
and falls back to the reference loop otherwise; tests in
``tests/test_sim_equivalence.py`` assert the two agree exactly,
prediction by prediction.
"""

from repro.sim.engine import simulate
from repro.sim.fsm_scan import segmented_counter_predictions
from repro.sim.reference import simulate_reference
from repro.sim.results import SimulationResult, TierSurface
from repro.sim.sweep import sweep_tiers
from repro.sim.vectorized import has_vectorized_engine, simulate_vectorized

__all__ = [
    "simulate",
    "simulate_reference",
    "simulate_vectorized",
    "has_vectorized_engine",
    "segmented_counter_predictions",
    "SimulationResult",
    "TierSurface",
    "sweep_tiers",
]
