"""The synthetic program model.

A program is a set of *routines*. Each routine is a loop: one back-edge
branch (taken to repeat, not-taken to exit) plus a body of conditional
branches executed once per iteration, each with an *inclusion
probability* modelling nesting (a body branch guarded by an enclosing
conditional executes on only some iterations).

Calibration works backwards from the target per-branch dynamic
frequencies (:func:`repro.workloads.profiles.WorkloadProfile.weights`):

* branches are sorted hottest-first and partitioned into routines;
* the hottest member of each routine becomes its back-edge (executes on
  every iteration);
* every other member's inclusion probability is its weight relative to
  the back-edge's, so within-routine frequency ratios match the target;
* the routine's invocation weight is the back-edge weight divided by the
  routine's mean trip count, so across-routine frequencies match too.

Phased execution (a hot always-active set plus rotating cold sets)
provides the working-set turnover that makes counters be re-learned —
the temporal side of the paper's aliasing story.

Construction draws from a :class:`~repro.utils.rng.RandomTape`, not a
numpy Generator. Each body slot makes about five scalar draws of
interleaved kinds (its class, its behaviour's parameters, a far-target
coin and offset, an inclusion-mode coin), so drawing them as numpy
batches would reorder the stream and change every program, while one
scalar Generator call costs 1-25 µs of argument handling. The tape
replays the same stream value for value in plain Python; real_gcc's
15,351 sites take about 0.1 s instead of 0.2 s on a 2-CPU x86 host.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.utils.rng import RandomSource, RandomTape, make_rng
from repro.workloads.behaviors import (
    Behavior,
    BiasedBehavior,
    CorrelatedBehavior,
    LoopPositionBehavior,
    PatternBehavior,
    make_pattern,
)
from repro.workloads.layout import (
    backedge_target,
    choose_taken_target,
    place_routines,
)
from repro.workloads.profiles import WorkloadProfile

if TYPE_CHECKING:
    from repro.workloads.generator import WalkTables


@dataclass
class StaticBranch:
    """One branch site in the synthetic program."""

    pc: int
    taken_target: int
    weight: float
    behavior: Optional[Behavior]  # None for back-edges
    inclusion: float  # probability of executing per loop iteration
    behavior_class: str
    is_backedge: bool = False
    #: How per-iteration inclusion is realized: "prefix" executes the
    #: branch on the first ~inclusion*trips iterations (deterministic
    #: given loop progress, like a guard on the loop index — this keeps
    #: global-history content structured); "random" draws iid (data-
    #: dependent guards).
    inclusion_mode: str = "prefix"


@dataclass
class Routine:
    """A loop: an ordered body plus a back-edge, with trip-count model.

    Trip counts follow a mixture: most invocations run the routine's
    characteristic ``fixed_trips`` (real loops usually iterate over
    structures whose size is stable run-to-run, which is what lets
    history-based predictors learn the exit), the rest draw a geometric
    around ``mean_trips`` (data-dependent loop bounds).
    """

    index: int
    base: int
    body: List[StaticBranch]
    backedge: StaticBranch
    mean_trips: float
    invocation_weight: float

    @property
    def fixed_trips(self) -> int:
        return max(2, int(round(self.mean_trips)))

    @property
    def branches(self) -> List[StaticBranch]:
        return self.body + [self.backedge]


@dataclass
class Program:
    """A complete synthetic program ready for trace generation."""

    name: str
    profile: WorkloadProfile
    routines: List[Routine]
    #: Per phase: (routine indices, sampling probabilities).
    phases: List[Tuple[np.ndarray, np.ndarray]]
    seed: int
    #: The program as arrays for the trace walker, built by the first
    #: :func:`~repro.workloads.generator.generate_trace` call; a program
    #: is not changed once it has been walked.
    walk_tables: Optional["WalkTables"] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_static_branches(self) -> int:
        return sum(len(r.branches) for r in self.routines)

    def branch_table(self) -> Dict[int, StaticBranch]:
        """Map PC -> branch for inspection and tests."""
        table: Dict[int, StaticBranch] = {}
        for routine in self.routines:
            for branch in routine.branches:
                table[branch.pc] = branch
        return table

    def describe(self) -> str:
        """Short human-readable structural summary."""
        classes: Dict[str, int] = {}
        for routine in self.routines:
            for branch in routine.branches:
                classes[branch.behavior_class] = (
                    classes.get(branch.behavior_class, 0) + 1
                )
        mix = ", ".join(f"{k}={v}" for k, v in sorted(classes.items()))
        return (
            f"Program({self.name}: {len(self.routines)} routines, "
            f"{self.num_static_branches} branches, "
            f"{len(self.phases)} phases; {mix})"
        )


# ----------------------------------------------------------------------
# Behaviour class assignment
# ----------------------------------------------------------------------

_HOT_BIAS_EXPONENT_RANGE = (-3.0, -1.3)  # p = 1 - 10^u -> 0.95 .. 0.999


def _behavior_class_cdf(profile: WorkloadProfile) -> Tuple[Tuple[str, ...], List[float]]:
    """Class names and the CDF ``rng.choice(names, p=...)`` would build.

    Drawing ``names[bisect_right(cdf, rng.random())]`` consumes one
    double and picks the same class as ``choice``, without rebuilding
    the array and its CDF on every body slot.
    """
    names, probs = zip(*profile.behavior_mix.as_probabilities())
    cdf = np.asarray(probs, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return names, cdf.tolist()


def _is_random_source(behavior: Behavior) -> bool:
    """True for branches whose outcome is fresh randomness per iteration.

    Correlating with such a source is what separates global-history
    schemes from everything else: the dependent branch is near-perfectly
    predictable *only* by a predictor whose history window contains the
    source's outcome. (Correlating with a deterministic pattern would be
    learnable by self-history and even by address-indexed counters.)
    """
    return isinstance(behavior, BiasedBehavior) and 0.1 < behavior.p_taken < 0.9


def _make_behavior(
    behavior_class: str,
    body_slot: int,
    last_random_source: Optional[int],
    rng: RandomSource,
) -> Tuple[Behavior, str]:
    """Instantiate the behaviour for one body slot.

    A correlated branch takes the nearest earlier *random-moderate* body
    slot, ``last_random_source``, as its source; when there is none it
    correlates with the slot just before it, and the first slot becomes
    a pattern instead.
    """
    if behavior_class == "biased_taken":
        p = 1.0 - 10.0 ** rng.uniform(*_HOT_BIAS_EXPONENT_RANGE)
        return BiasedBehavior(p), behavior_class
    if behavior_class == "biased_not_taken":
        p = 10.0 ** rng.uniform(*_HOT_BIAS_EXPONENT_RANGE)
        return BiasedBehavior(p), behavior_class
    if behavior_class == "moderate":
        # Data-dependent branches with moderate taken rates. Most are
        # deterministic given context (long periodic patterns, loop
        # phase splits) — unpredictable for a lone 2-bit counter but
        # learnable from history, like real compiler/interpreter
        # branches; a minority carry irreducible Bernoulli noise.
        flavor = rng.random()
        if flavor < 0.45:
            return (
                PatternBehavior(make_pattern(rng, max_period=6)),
                behavior_class,
            )
        if flavor < 0.85:
            return (
                LoopPositionBehavior(
                    fraction=float(rng.uniform(0.2, 0.8)),
                    invert=bool(rng.integers(0, 2)),
                ),
                behavior_class,
            )
        offset = float(rng.uniform(0.15, 0.38))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return BiasedBehavior(0.5 + sign * offset), behavior_class
    if behavior_class == "pattern":
        return PatternBehavior(make_pattern(rng, max_period=4)), behavior_class
    if behavior_class == "correlated":
        if last_random_source is not None:
            source = last_random_source
        elif body_slot > 0:
            # No fresh-randomness source nearby: correlate with the
            # nearest earlier branch anyway. The composite is then
            # deterministic-given-context rather than global-history-
            # exclusive, which is also how real code behaves.
            source = body_slot - 1
        else:
            return (
                PatternBehavior(make_pattern(rng, max_period=4)),
                "pattern",
            )
        return (
            CorrelatedBehavior(
                source_slot=source,
                invert=bool(rng.integers(0, 2)),
                noise=float(rng.uniform(0.01, 0.08)),
            ),
            behavior_class,
        )
    raise WorkloadError(f"unknown behaviour class {behavior_class!r}")


# ----------------------------------------------------------------------
# Program construction
# ----------------------------------------------------------------------


#: Fraction of routines that are tight loops (one body branch plus the
#: back-edge). Their short per-iteration signature is what produces the
#: paper's "all recorded branches taken" history patterns, and their
#: exits are the loop behaviour global histories can actually learn.
_TIGHT_LOOP_PROB = 0.15


def _partition_sizes(
    total: int,
    size_range: Tuple[int, int],
    rng: RandomSource,
    large_fraction: float = 0.0,
    large_range: Tuple[int, int] = (24, 96),
) -> List[int]:
    """Split ``total`` branches into routine sizes (body + back-edge).

    Most routines draw from ``size_range``; a ``large_fraction`` of
    them draw from ``large_range`` (big loop bodies), and a fixed small
    share are tight loops (one body branch).
    """
    low, high = size_range
    sizes: List[int] = []
    remaining = total
    while remaining > 0:
        roll = rng.random()
        if roll < _TIGHT_LOOP_PROB:
            size = 2
        elif roll < _TIGHT_LOOP_PROB + large_fraction:
            size = int(rng.integers(large_range[0] + 1, large_range[1] + 2))
        else:
            size = int(rng.integers(low + 1, high + 2))  # +1 for back-edge
        size = min(size, remaining)
        sizes.append(size)
        remaining -= size
    # A routine needs its back-edge plus at least one body branch; merge
    # a trailing singleton into its neighbour.
    if len(sizes) > 1 and sizes[-1] == 1:
        last = sizes.pop()
        sizes[-1] += last
    return sizes


def build_program(
    profile: WorkloadProfile, seed: int, name: Optional[str] = None
) -> Program:
    """Construct the synthetic program for ``profile``.

    The same (profile, seed) pair always yields the identical program;
    trace generation adds its own seed on top (so one program can emit
    many independent traces).
    """
    name = name or profile.name
    rng = RandomTape(make_rng(seed, f"program:{profile.name}"))

    weights = profile.weights().tolist()
    total = len(weights)
    sizes = _partition_sizes(
        total,
        profile.body_size_range,
        rng,
        large_fraction=profile.large_body_fraction,
        large_range=profile.large_body_range,
    )

    placements = place_routines(
        body_sizes=sizes,
        kernel_fraction=profile.kernel_fraction,
        rng=RandomTape(make_rng(seed, f"layout:{profile.name}")),
    )

    class_names, class_cdf = _behavior_class_cdf(profile)
    trip_lo, trip_hi = profile.trip_count_range
    log_trip_lo, log_trip_hi = float(np.log(trip_lo)), float(np.log(trip_hi))
    routines: List[Routine] = []
    cursor = 0
    for routine_index, size in enumerate(sizes):
        segment = weights[cursor : cursor + size]
        cursor += size
        placement = placements[routine_index]
        mean_trips = float(np.exp(rng.uniform(log_trip_lo, log_trip_hi)))
        if size > profile.body_size_range[1] + 1:
            # Large bodies iterate less: a loop over a big region runs
            # a few times where a tight loop spins dozens.
            mean_trips = max(2.0, mean_trips / 3.0)

        # Hottest member becomes the back-edge (loop branch).
        backedge_weight = segment[0]
        body_weights = segment[1:]
        body_count = len(body_weights)

        # Draw behaviour classes for the body, then instantiate in body
        # order so correlated branches can reference earlier slots.
        body_order = rng.permutation(body_count)
        classes = [
            class_names[bisect_right(class_cdf, rng.random())]
            for _ in range(body_count)
        ]
        body: List[StaticBranch] = []
        last_random_source: Optional[int] = None
        for slot in range(body_count):
            weight = body_weights[body_order[slot]]
            behavior, actual_class = _make_behavior(
                classes[slot], slot, last_random_source, rng
            )
            if _is_random_source(behavior):
                last_random_source = slot
            pc = placement.branch_pcs[slot]
            target = choose_taken_target(pc, placement.base, rng)
            mode = "prefix" if rng.random() < 0.85 else "random"
            # Positional: a keyword call costs half again as much here.
            body.append(
                StaticBranch(
                    pc, target, weight, behavior,
                    min(1.0, weight / backedge_weight), actual_class, False, mode,
                )
            )

        backedge_pc = placement.branch_pcs[-1]
        backedge = StaticBranch(
            pc=backedge_pc,
            taken_target=backedge_target(placement.base),
            weight=backedge_weight,
            behavior=None,
            inclusion=1.0,
            behavior_class="backedge",
            is_backedge=True,
        )
        routines.append(
            Routine(
                index=routine_index,
                base=placement.base,
                body=body,
                backedge=backedge,
                mean_trips=mean_trips,
                invocation_weight=backedge_weight / mean_trips,
            )
        )

    phases = _build_phases(routines, profile.num_phases)
    return Program(
        name=name, profile=profile, routines=routines, phases=phases, seed=seed
    )


def _build_phases(
    routines: List[Routine], num_phases: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split routines into phases: hot set always active, cold rotating.

    The hot set is the smallest prefix of routines (by descending member
    weight) covering 55% of total branch weight — shared library and
    main-loop code that every phase touches. The remaining routines are
    dealt round-robin across ``num_phases`` groups.
    """
    member_weight = np.array(
        [sum(b.weight for b in r.branches) for r in routines]
    )
    order = np.argsort(member_weight)[::-1]
    cumulative = np.cumsum(member_weight[order])
    hot_cut = int(np.searchsorted(cumulative, 0.55 * cumulative[-1])) + 1
    hot = order[:hot_cut]
    cold = order[hot_cut:]

    num_phases = max(1, num_phases)
    phases: List[Tuple[np.ndarray, np.ndarray]] = []
    for p in range(num_phases):
        cold_members = cold[p::num_phases]
        members = np.concatenate([hot, cold_members]).astype(np.int64)
        inv_weights = np.array(
            [routines[i].invocation_weight for i in members]
        )
        # A cold routine is active in only one of num_phases phases;
        # boosting its in-phase weight by num_phases keeps its long-run
        # invocation rate equal to the calibration target.
        inv_weights[len(hot):] *= num_phases
        probs = inv_weights / inv_weights.sum()
        phases.append((members, probs))
    return phases
