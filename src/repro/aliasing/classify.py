"""Harmless vs destructive conflicts and the all-ones pattern.

Section 3 of the paper: "the aliasing for GAg is not always harmful.
Approximately a fifth of the aliasing for the larger benchmarks was for
the pattern with all recorded branches taken. This corresponds to
repeated execution of a tight loop. The behavior of all such loops is
identical, so all occurrences of the all-ones pattern ... could,
without harm, be aliased to a single counter."

We classify a conflict as *harmless* when the conflicting access's
outcome agrees with the previous (other-branch) access to the same
counter — the intruder trained the counter toward the direction this
branch wanted anyway — and *destructive* otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aliasing.instrumentation import conflict_mask, neighbour_conflicts
from repro.errors import ConfigurationError, TraceError
from repro.predictors.specs import PredictorSpec
from repro.sim.vectorized import index_stream
from repro.traces.trace import BranchTrace


@dataclass(frozen=True)
class ConflictStats:
    """Breakdown of counter-index conflicts on one (spec, trace) pair."""

    accesses: int
    conflicts: int
    harmless: int
    destructive: int

    @property
    def aliasing_rate(self) -> float:
        return self.conflicts / self.accesses

    @property
    def harmless_share(self) -> float:
        """Fraction of conflicts whose intruder agreed in direction."""
        if self.conflicts == 0:
            return 0.0
        return self.harmless / self.conflicts

    @property
    def destructive_rate(self) -> float:
        """Destructive conflicts as a fraction of all accesses."""
        return self.destructive / self.accesses


def classify_conflicts(
    spec: PredictorSpec, trace: BranchTrace
) -> ConflictStats:
    """Count conflicts and split them into harmless/destructive."""
    if len(trace) == 0:
        raise TraceError("cannot classify conflicts on an empty trace")
    order, conflict = neighbour_conflicts(index_stream(spec, trace), trace.pc)
    sorted_taken = trace.taken[order]
    agreeing = sorted_taken[1:] == sorted_taken[:-1]

    conflicts = int(np.count_nonzero(conflict))
    harmless = int(np.count_nonzero(conflict & agreeing))
    return ConflictStats(
        accesses=len(trace),
        conflicts=conflicts,
        harmless=harmless,
        destructive=conflicts - harmless,
    )


def all_ones_conflict_share(
    spec: PredictorSpec, trace: BranchTrace
) -> float:
    """Share of conflicts occurring on the all-taken history pattern.

    Only meaningful for global-history row selection (GAg/GAs), where a
    row corresponds to one history pattern; the paper reports roughly a
    fifth of large-benchmark GAg aliasing lands there.
    """
    if spec.scheme not in ("gag", "gas"):
        raise ConfigurationError(
            "the all-ones pattern is defined for global-history rows "
            f"(gag/gas), not {spec.scheme!r}"
        )
    if len(trace) == 0:
        raise TraceError("cannot classify conflicts on an empty trace")
    indices = index_stream(spec, trace)
    conflict = conflict_mask(indices, trace.pc)
    total = int(np.count_nonzero(conflict))
    if total == 0:
        return 0.0
    # The row is the global history's low bits: all ones is the last row.
    all_ones = (indices >> spec.column_bits) == spec.rows - 1
    return int(np.count_nonzero(conflict & all_ones)) / total
