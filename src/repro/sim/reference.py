"""The scalar reference engine.

One Python loop, one predictor object, one branch at a time. Slow and
obviously correct: this is the semantics the vectorized engines are
tested against, and the only engine for schemes whose table interactions
resist scanning (bi-mode's cross-table partial update).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import TraceError
from repro.predictors.base import BranchPredictor
from repro.predictors.factory import build_predictor
from repro.predictors.specs import PredictorSpec
from repro.sim.results import SimulationResult
from repro.traces.trace import BranchTrace


def simulate_reference(
    spec_or_predictor: Union[PredictorSpec, BranchPredictor],
    trace: BranchTrace,
) -> SimulationResult:
    """Drive a predictor over ``trace`` and collect every prediction."""
    if len(trace) == 0:
        raise TraceError("cannot simulate an empty trace")
    if isinstance(spec_or_predictor, PredictorSpec):
        spec = spec_or_predictor
        predictor = build_predictor(spec)
    else:
        predictor = spec_or_predictor
        spec = _spec_for(predictor)

    predictions = np.empty(len(trace), dtype=bool)
    pc_list = trace.pc.tolist()
    taken_list = trace.taken.tolist()
    target_list = trace.target.tolist()
    predict = predictor.predict
    update = predictor.update
    for i in range(len(trace)):
        pc = pc_list[i]
        target = target_list[i]
        taken = taken_list[i]
        predictions[i] = predict(pc, target)
        update(pc, taken, target)

    # Per-address predictors (PAg/PAs/PAp) report their first level.
    miss_rate = getattr(predictor, "first_level_miss_rate", None)
    return SimulationResult(
        spec=spec,
        trace_name=trace.name,
        predictions=predictions,
        taken=trace.taken.copy(),
        first_level_miss_rate=miss_rate,
        engine="reference",
    )


def _spec_for(predictor: BranchPredictor) -> PredictorSpec:
    """Best-effort spec when handed a bare predictor object."""
    rows = getattr(predictor, "rows", 1)
    cols = getattr(predictor, "cols", 1)
    scheme = predictor.scheme
    try:
        return PredictorSpec(scheme=scheme, rows=rows, cols=cols)
    except Exception:
        # Exotic objects (tournaments built by hand): record the scheme
        # with a neutral shape; results stay usable either way.
        return PredictorSpec(scheme="static", static_policy="taken")
