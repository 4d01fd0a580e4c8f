"""Figure 9: PAs misprediction surfaces with perfect histories.

Shape findings: the surfaces are flat; single-column configurations
are optimal or close to it (self-history patterns mean nearly the same
thing for every branch, so collapsing columns costs little); growing
the second-level table buys far less than it does for global schemes.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.base import FOCUS, ExperimentOptions, ExperimentResult
from repro.experiments.surface_common import surface_experiment

EXPERIMENT_ID = "fig9"
TITLE = "PAs surfaces, perfect histories (paper Figure 9)"


def run(options: Optional[ExperimentOptions] = None) -> ExperimentResult:
    return surface_experiment(
        EXPERIMENT_ID, TITLE, scheme="pas", default_benchmarks=FOCUS,
        options=options,
    )

