"""Per-branch outcome models.

Each static branch in a synthetic program carries a behaviour object: a
parameter record describing how its outcomes arise. Behaviours compute
nothing during a walk. The trace walker
(:mod:`repro.workloads.generator`) reads their parameters once into its
per-program arrays and builds the outcomes of many invocations at a
time; behaviours also feed calibration (:meth:`Behavior.expected_taken_rate`)
and program dumps (:func:`behavior_summary`).

The behaviour classes mirror the branch populations the paper describes:

* :class:`BiasedBehavior` — the "very highly biased" majority (error and
  bounds checks, rarely-failing conditionals) and, with ``p`` near 0.5,
  the hard data-dependent branches.
* :class:`PatternBehavior` — short periodic outcome sequences; these are
  the branches whose *self-history* is strongly predictive, the case PAs
  schemes exploit (paper section 5).
* :class:`CorrelatedBehavior` — outcome determined (modulo noise) by an
  earlier branch in the same loop body; these are the branches whose
  *global history* is predictive, the case GAs/gshare exploit (section 4).

Loop back-edges do not get a behaviour object: the routine walker emits
them directly (taken on every iteration but the last).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import RandomSource
from repro.utils.validation import check_in_range


class Behavior:
    """Outcome model of one static branch."""

    def expected_taken_rate(self) -> float:
        """Long-run taken probability; used for profile calibration tests."""
        raise NotImplementedError


@dataclass
class BiasedBehavior(Behavior):
    """Independent Bernoulli outcomes with fixed taken probability."""

    p_taken: float

    def __post_init__(self) -> None:
        check_in_range(self.p_taken, "p_taken", 0.0, 1.0)

    def expected_taken_rate(self) -> float:
        return self.p_taken


@dataclass
class PatternBehavior(Behavior):
    """Deterministic periodic outcome sequence, e.g. T T N, T N, ...

    The phase persists across invocations, so the pattern continues where
    the previous invocation of the enclosing routine left off — exactly
    the behaviour a per-address history register can learn.
    """

    pattern: Tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.pattern) < 2:
            raise ConfigurationError(
                f"pattern must have length >= 2, got {self.pattern!r}"
            )
        self.pattern = tuple(map(bool, self.pattern))

    def expected_taken_rate(self) -> float:
        return sum(self.pattern) / len(self.pattern)


@dataclass
class LoopPositionBehavior(Behavior):
    """Outcome determined by position within the enclosing loop.

    Taken for the first ``ceil(fraction * trips)`` iterations of each
    invocation and not-taken afterwards (inverted when ``invert``).
    This models guards like ``if (i < first_phase_end)``: a moderate
    overall taken rate, yet fully deterministic given loop progress —
    the kind of branch history-based predictors excel at and a lone
    2-bit counter cannot track.
    """

    fraction: float
    invert: bool = False

    def __post_init__(self) -> None:
        check_in_range(self.fraction, "fraction", 0.0, 1.0)

    def expected_taken_rate(self) -> float:
        return 1.0 - self.fraction if self.invert else self.fraction


@dataclass
class CorrelatedBehavior(Behavior):
    """Outcome tied to an earlier branch in the same loop body.

    The outcome equals the source branch's outcome this iteration
    (inverted when ``invert`` is set), flipped independently with
    probability ``noise``. A global-history predictor whose history
    window reaches back to the source branch can predict this branch
    almost perfectly; a self-history predictor cannot.
    """

    source_slot: int
    invert: bool = False
    noise: float = 0.05

    def __post_init__(self) -> None:
        if self.source_slot < 0:
            raise ConfigurationError(
                f"source_slot must be >= 0, got {self.source_slot}"
            )
        check_in_range(self.noise, "noise", 0.0, 1.0)

    def expected_taken_rate(self) -> float:
        # Depends on the source's rate; 0.5 is the uninformed prior and
        # good enough for calibration summaries.
        return 0.5


def behavior_summary(behavior: Behavior) -> str:
    """One-token description used by program dumps and tests."""
    if isinstance(behavior, BiasedBehavior):
        return f"biased({behavior.p_taken:.2f})"
    if isinstance(behavior, PatternBehavior):
        bits = "".join("T" if b else "N" for b in behavior.pattern)
        return f"pattern({bits})"
    if isinstance(behavior, CorrelatedBehavior):
        return f"correlated(slot={behavior.source_slot})"
    if isinstance(behavior, LoopPositionBehavior):
        return f"loop_position({behavior.fraction:.2f})"
    return type(behavior).__name__


def make_pattern(rng: RandomSource, max_period: int = 6) -> Tuple[bool, ...]:
    """Draw a short non-constant periodic pattern."""
    period = int(rng.integers(2, max_period + 1))
    while True:
        bits = tuple(map(bool, rng.integers(0, 2, size=period)))
        if any(bits) and not all(bits):
            return bits


def population_mix_taken_rate(behaviors: Sequence[Behavior]) -> float:
    """Average expected taken rate of a behaviour population."""
    if not behaviors:
        raise ConfigurationError("empty behaviour population")
    return float(np.mean([b.expected_taken_rate() for b in behaviors]))
