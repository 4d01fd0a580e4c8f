"""Benchmark profiles calibrated to the paper's Tables 1 and 2.

A :class:`WorkloadProfile` captures everything the synthetic generator
needs to mimic one of the paper's fourteen benchmarks:

* the static conditional-branch population size and how dynamic
  executions are distributed over it (Table 1's "static branches" and
  "branches constituting 90%" columns; Table 2's 50/40/9/1% buckets for
  espresso, mpeg_play and real_gcc);
* the conditional-branch share of the instruction stream (Table 1);
* the behaviour-class mix (the paper notes SPECint92's small programs —
  especially eqntott and compress — have *less* biased active branches,
  while the IBS workloads execute proportionally more highly-biased
  instances);
* program-shape knobs: loop-body sizes, trip counts, phase structure,
  and, for the IBS traces, a kernel-text fraction (those traces include
  Ultrix kernel and X-server code at high addresses).

Where Table 2 gives explicit bucket counts we use them verbatim; for the
other benchmarks buckets are derived from Table 1 via the ratios the
three fully-specified benchmarks share (the 50%-bucket is ~11% of the
90%-coverage count; 99% coverage lands near n90 plus a quarter of the
cold population).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.utils.validation import check_in_range, check_positive_int

#: Dynamic-share per Table 2 bucket.
BUCKET_SHARES: Tuple[float, ...] = (0.50, 0.40, 0.09, 0.01)


@dataclass(frozen=True)
class BehaviorMix:
    """Fractions of non-back-edge branch sites per behaviour class.

    ``biased_taken + biased_not_taken + moderate + pattern + correlated``
    must sum to 1. Back-edges are implicit (one per routine) and always
    loop-like.
    """

    biased_taken: float
    biased_not_taken: float
    moderate: float
    pattern: float
    correlated: float

    def __post_init__(self) -> None:
        total = (
            self.biased_taken
            + self.biased_not_taken
            + self.moderate
            + self.pattern
            + self.correlated
        )
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"behaviour mix must sum to 1, got {total}")
        for name in (
            "biased_taken",
            "biased_not_taken",
            "moderate",
            "pattern",
            "correlated",
        ):
            check_in_range(getattr(self, name), name, 0.0, 1.0)

    def as_probabilities(self) -> Tuple[Tuple[str, float], ...]:
        return (
            ("biased_taken", self.biased_taken),
            ("biased_not_taken", self.biased_not_taken),
            ("moderate", self.moderate),
            ("pattern", self.pattern),
            ("correlated", self.correlated),
        )


#: Mix for the small SPECint92 programs: noticeably less biased actives
#: (the paper singles out eqntott and compress), more correlation to
#: exploit.
SPEC_SMALL_MIX = BehaviorMix(
    biased_taken=0.22,
    biased_not_taken=0.14,
    moderate=0.26,
    pattern=0.18,
    correlated=0.20,
)

#: Mix for gcc and the IBS-Ultrix workloads: "proportionally even more
#: instances of these highly biased branches".
LARGE_PROGRAM_MIX = BehaviorMix(
    biased_taken=0.42,
    biased_not_taken=0.28,
    moderate=0.12,
    pattern=0.09,
    correlated=0.09,
)


@dataclass(frozen=True)
class WorkloadProfile:
    """Calibration record for one benchmark."""

    name: str
    suite: str  # "specint92" or "ibs-ultrix"
    #: Table 2 buckets: number of static branches contributing each of
    #: the 50/40/9/1% dynamic shares, hottest first.
    buckets: Tuple[int, int, int, int]
    #: Conditional branches as a fraction of dynamic instructions.
    branch_fraction: float
    #: Paper's Table 1 reference values, kept for reporting.
    paper_static_branches: int
    paper_branches_for_90pct: int
    paper_dynamic_branches: int
    behavior_mix: BehaviorMix = LARGE_PROGRAM_MIX
    #: Loop-body sizes (branches per routine, excluding the back-edge).
    body_size_range: Tuple[int, int] = (3, 10)
    #: Fraction of routines with large bodies (deep loop nests and
    #: long straight-line regions folded into one loop level). Large
    #: bodies are what pressure a bounded first-level history table:
    #: every iteration touches this many distinct branches, so their
    #: registers compete for the same few sets (paper Figure 10).
    large_body_fraction: float = 0.0
    large_body_range: Tuple[int, int] = (24, 96)
    #: Mean loop trip counts are drawn log-uniformly from this range.
    trip_count_range: Tuple[float, float] = (3.0, 24.0)
    #: Expected number of routine invocations per phase residence.
    phase_length: int = 400
    #: Number of cold-code phases the non-hot routines are split across.
    num_phases: int = 6
    #: Fraction of routines placed in kernel text (IBS traces only).
    kernel_fraction: float = 0.0
    #: Default trace length when none is requested.
    default_length: int = 500_000

    def __post_init__(self) -> None:
        if len(self.buckets) != len(BUCKET_SHARES):
            raise WorkloadError(
                f"expected {len(BUCKET_SHARES)} buckets, got {self.buckets!r}"
            )
        for count in self.buckets:
            check_positive_int(count, "bucket count")
        check_in_range(self.branch_fraction, "branch_fraction", 0.01, 0.5)
        check_in_range(self.kernel_fraction, "kernel_fraction", 0.0, 0.9)
        if self.body_size_range[0] < 1 or self.body_size_range[1] < self.body_size_range[0]:
            raise WorkloadError(f"bad body_size_range {self.body_size_range}")
        if self.trip_count_range[0] < 1.0 or self.trip_count_range[1] < self.trip_count_range[0]:
            raise WorkloadError(f"bad trip_count_range {self.trip_count_range}")

    @property
    def static_branches(self) -> int:
        """Executed static-branch population (sum of Table 2 buckets)."""
        return sum(self.buckets)

    def weights(self) -> np.ndarray:
        """Target dynamic-frequency weights, hottest branch first."""
        return bucket_weights(self.buckets, BUCKET_SHARES)


def bucket_weights(
    buckets: Sequence[int],
    shares: Sequence[float] = BUCKET_SHARES,
    decay: float = 6.0,
) -> np.ndarray:
    """Build a descending weight vector realizing the bucket targets.

    Within bucket ``b`` (``n`` branches sharing total weight ``s``) the
    weights decay geometrically over a factor of ``decay`` from first to
    last branch, then the whole vector is normalized and sorted. The
    steeply decreasing bucket *averages* (50%/12 vs 1%/1376 for espresso)
    keep the vector globally monotone in practice; sorting guarantees it.
    """
    if len(buckets) != len(shares):
        raise WorkloadError("buckets and shares must have equal lengths")
    segments: List[np.ndarray] = []
    for count, share in zip(buckets, shares):
        count = int(count)
        if count <= 0:
            raise WorkloadError(f"bucket counts must be positive, got {count}")
        ramp = np.geomspace(1.0, 1.0 / decay, num=count)
        segments.append(share * ramp / ramp.sum())
    weights = np.concatenate(segments)
    weights = np.sort(weights)[::-1]
    return weights / weights.sum()


def derive_buckets(
    static_branches: int, branches_for_90pct: int, hot_count: int = 0
) -> Tuple[int, int, int, int]:
    """Derive Table 2 style buckets from Table 1 columns.

    ``hot_count`` overrides the 50%-bucket size when the paper states it
    (sdet: "only 8 distinct branches account for 50%").
    """
    n90 = branches_for_90pct
    if not 0 < n90 < static_branches:
        raise WorkloadError(
            f"need 0 < branches_for_90pct ({n90}) < static ({static_branches})"
        )
    b1 = hot_count or max(1, round(0.11 * n90))
    b1 = min(b1, n90 - 1)
    b2 = n90 - b1
    cold = static_branches - n90
    b3 = max(1, round(0.25 * cold))
    b4 = cold - b3
    if b4 < 1:
        b3, b4 = max(1, cold - 1), 1
    return (b1, b2, b3, b4)


def _spec(name: str, **kwargs) -> WorkloadProfile:
    return WorkloadProfile(name=name, suite="specint92", **kwargs)


def _ibs(name: str, **kwargs) -> WorkloadProfile:
    kwargs.setdefault("kernel_fraction", 0.25)
    kwargs.setdefault("large_body_fraction", 0.12)
    return WorkloadProfile(name=name, suite="ibs-ultrix", **kwargs)


def _build_profiles() -> Dict[str, WorkloadProfile]:
    profiles = [
        # ---- SPECint92 (Table 1, upper half) --------------------------
        _spec(
            "compress",
            buckets=derive_buckets(236, 13),
            branch_fraction=0.140,
            paper_static_branches=236,
            paper_branches_for_90pct=13,
            paper_dynamic_branches=11_739_532,
            behavior_mix=SPEC_SMALL_MIX,
            body_size_range=(3, 7),
            trip_count_range=(6.0, 40.0),
            num_phases=2,
        ),
        _spec(
            "eqntott",
            buckets=derive_buckets(494, 51),
            branch_fraction=0.246,
            paper_static_branches=494,
            paper_branches_for_90pct=51,
            paper_dynamic_branches=342_595_193,
            behavior_mix=SPEC_SMALL_MIX,
            body_size_range=(3, 8),
            trip_count_range=(8.0, 48.0),
            num_phases=2,
        ),
        _spec(
            "espresso",
            # Table 2 row, verbatim.
            buckets=(12, 93, 296, 1376),
            branch_fraction=0.147,
            paper_static_branches=1764,
            paper_branches_for_90pct=110,
            paper_dynamic_branches=76_466_469,
            behavior_mix=SPEC_SMALL_MIX,
            body_size_range=(3, 9),
            trip_count_range=(4.0, 32.0),
            num_phases=3,
        ),
        _spec(
            "gcc",
            buckets=derive_buckets(9531, 2020),
            branch_fraction=0.152,
            paper_static_branches=9531,
            paper_branches_for_90pct=2020,
            paper_dynamic_branches=21_579_307,
            behavior_mix=LARGE_PROGRAM_MIX,
            body_size_range=(4, 12),
            large_body_fraction=0.12,
            trip_count_range=(2.0, 12.0),
            num_phases=8,
        ),
        _spec(
            "xlisp",
            buckets=derive_buckets(489, 48),
            branch_fraction=0.113,
            paper_static_branches=489,
            paper_branches_for_90pct=48,
            paper_dynamic_branches=147_425_333,
            behavior_mix=SPEC_SMALL_MIX,
            body_size_range=(3, 8),
            trip_count_range=(4.0, 24.0),
            num_phases=2,
        ),
        _spec(
            "sc",
            buckets=derive_buckets(1269, 157),
            branch_fraction=0.169,
            paper_static_branches=1269,
            paper_branches_for_90pct=157,
            paper_dynamic_branches=150_381_340,
            behavior_mix=SPEC_SMALL_MIX,
            body_size_range=(3, 9),
            trip_count_range=(4.0, 24.0),
            num_phases=3,
        ),
        # ---- IBS-Ultrix (Table 1, lower half) -------------------------
        _ibs(
            "groff",
            buckets=derive_buckets(6333, 459),
            branch_fraction=0.113,
            paper_static_branches=6333,
            paper_branches_for_90pct=459,
            paper_dynamic_branches=11_901_481,
            trip_count_range=(2.0, 16.0),
        ),
        _ibs(
            "gs",
            buckets=derive_buckets(12852, 1160),
            branch_fraction=0.138,
            paper_static_branches=12852,
            paper_branches_for_90pct=1160,
            paper_dynamic_branches=16_308_247,
            num_phases=8,
            trip_count_range=(2.0, 14.0),
        ),
        _ibs(
            "mpeg_play",
            # Table 2 row, verbatim.
            buckets=(64, 466, 1372, 3694),
            branch_fraction=0.096,
            paper_static_branches=5598,
            paper_branches_for_90pct=532,
            paper_dynamic_branches=9_566_290,
            trip_count_range=(3.0, 20.0),
        ),
        _ibs(
            "nroff",
            buckets=derive_buckets(5249, 228),
            branch_fraction=0.173,
            paper_static_branches=5249,
            paper_branches_for_90pct=228,
            paper_dynamic_branches=22_574_884,
            trip_count_range=(3.0, 20.0),
        ),
        _ibs(
            "real_gcc",
            # Table 2 row, verbatim.
            buckets=(327, 2877, 6398, 5749),
            branch_fraction=0.133,
            paper_static_branches=17361,
            paper_branches_for_90pct=3214,
            paper_dynamic_branches=14_309_667,
            body_size_range=(4, 12),
            num_phases=10,
            trip_count_range=(2.0, 10.0),
        ),
        _ibs(
            "sdet",
            # Paper text: "only 8 distinct branches account for 50% of
            # its dynamic instances", the rest spread widely.
            buckets=derive_buckets(5310, 506, hot_count=8),
            branch_fraction=0.131,
            paper_static_branches=5310,
            paper_branches_for_90pct=506,
            paper_dynamic_branches=5_514_439,
            num_phases=8,
            trip_count_range=(2.0, 16.0),
        ),
        _ibs(
            "verilog",
            buckets=derive_buckets(4636, 650),
            branch_fraction=0.132,
            paper_static_branches=4636,
            paper_branches_for_90pct=650,
            paper_dynamic_branches=6_212_381,
            trip_count_range=(2.0, 16.0),
        ),
        _ibs(
            "video_play",
            buckets=derive_buckets(4606, 757),
            branch_fraction=0.110,
            paper_static_branches=4606,
            paper_branches_for_90pct=757,
            paper_dynamic_branches=5_759_231,
            trip_count_range=(3.0, 20.0),
        ),
    ]
    return {p.name: p for p in profiles}


PROFILES: Dict[str, WorkloadProfile] = _build_profiles()

SPEC_BENCHMARKS: Tuple[str, ...] = tuple(
    name for name, p in PROFILES.items() if p.suite == "specint92"
)
IBS_BENCHMARKS: Tuple[str, ...] = tuple(
    name for name, p in PROFILES.items() if p.suite == "ibs-ultrix"
)

#: The paper's fourteen benchmarks in report order (suite, then name):
#: the default of every paper-wide artifact (Table 1, Figures 2 and 3).
PAPER_BENCHMARKS: Tuple[str, ...] = tuple(
    sorted(PROFILES, key=lambda name: (PROFILES[name].suite, name))
)

#: The three benchmarks the paper's figures focus on.
FOCUS_BENCHMARKS: Tuple[str, ...] = ("espresso", "mpeg_play", "real_gcc")


def get_profile(name: str) -> WorkloadProfile:
    """Look up a benchmark profile by name."""
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise WorkloadError(
            f"unknown workload {name!r}; known workloads: {known}"
        ) from None
