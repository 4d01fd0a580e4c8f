"""Aliasing instrumentation and classification.

The paper's definition (section 3): "Aliasing conflicts between
branches occur when consecutive branch instances accessing a particular
counter arise from distinct branches. These conflicts correspond to the
conflicts in a direct mapped cache."

This subpackage measures that quantity on the counter-index streams the
simulation engines compute (so the aliasing a figure reports is the
aliasing the simulated predictor actually experienced), classifies
conflicts into harmless and destructive, and isolates the paper's
all-ones observation ("approximately a fifth of the aliasing for the
larger benchmarks was for the pattern with all recorded branches
taken").

What removing that aliasing buys is simulated, not modelled:
:func:`dealias_delta` runs the shared table against private
per-branch tables on one index stream.
"""

from repro.aliasing.classify import (
    ConflictStats,
    all_ones_conflict_share,
    classify_conflicts,
)
from repro.aliasing.instrumentation import (
    aliasing_rate,
    conflict_mask,
    dealias_delta,
    interference_free_predictions,
    sweep_aliasing,
)
from repro.aliasing.report import aliasing_report

__all__ = [
    "ConflictStats",
    "classify_conflicts",
    "all_ones_conflict_share",
    "aliasing_rate",
    "conflict_mask",
    "dealias_delta",
    "interference_free_predictions",
    "sweep_aliasing",
    "aliasing_report",
]
