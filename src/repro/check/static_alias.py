"""Pass 2: ahead-of-time aliasing analysis.

Which branches collide in a predictor table is a *pure function* of
the static branch addresses, the table geometry, and the scheme's
index function — no simulation required. This pass computes the exact
alias equivalence classes from a workload's static layout
(:mod:`repro.workloads.layout` via :class:`repro.workloads.program.Program`)
and a :class:`~repro.predictors.specs.PredictorSpec`, using the same
index-function API (:func:`repro.predictors.specs.static_collision_key`)
the engines index with — so the static sets are provably a superset of
anything :mod:`repro.aliasing.instrumentation` can observe (tested
exact on micro workloads).

Following the paper's section 4, collisions between branches whose
steady direction agrees (the all-ones tight-loop population) are
classified *predicted-harmless*: "all occurrences of the all-ones
pattern ... could, without harm, be aliased to a single counter".
Behaviour metadata comes from :mod:`repro.workloads.profiles` classes
attached to each :class:`~repro.workloads.program.StaticBranch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.check.findings import Finding
from repro.errors import CheckError
from repro.predictors.specs import (
    PER_ADDRESS_SCHEMES,
    PredictorSpec,
    bht_set_index,
    static_collision_key,
    word_index,
)
from repro.workloads.program import Program

#: Behaviour classes with a statically known steady direction.
_STEADY_DIRECTIONS: Dict[str, bool] = {
    "backedge": True,  # loop branches: the paper's all-ones population
    "biased_taken": True,
    "biased_not_taken": False,
}


@dataclass(frozen=True)
class StaticBranchInfo:
    """What the analysis knows about one branch site before any run."""

    pc: int
    #: Statically predicted steady direction (None = data-dependent).
    direction: Optional[bool] = None
    behavior_class: str = "unknown"
    weight: float = 0.0


def branch_infos_from_program(program: Program) -> List[StaticBranchInfo]:
    """Extract the static view the analysis needs from a built program."""
    infos: List[StaticBranchInfo] = []
    for routine in program.routines:
        for branch in routine.branches:
            infos.append(
                StaticBranchInfo(
                    pc=branch.pc,
                    direction=_STEADY_DIRECTIONS.get(branch.behavior_class),
                    behavior_class=branch.behavior_class,
                    weight=branch.weight,
                )
            )
    return infos


def alias_sets(
    spec: PredictorSpec, pcs: Iterable[int]
) -> List[Tuple[int, ...]]:
    """Exact second-level alias equivalence classes for ``spec``.

    Two branches are in one class iff they can share a counter for some
    reachable dynamic state. Returns sorted tuples of PCs, one per
    multi-branch class, sorted by first member — the same shape
    :func:`repro.aliasing.observed_alias_sets` reports, so the two are
    directly comparable.
    """
    classes: Dict[int, List[int]] = {}
    for pc in sorted(set(pcs)):
        key = static_collision_key(spec, word_index(pc))
        if key is None:
            continue
        classes.setdefault(int(key), []).append(pc)
    return sorted(
        tuple(members)
        for members in classes.values()
        if len(members) > 1
    )


def first_level_alias_sets(
    spec: PredictorSpec, pcs: Iterable[int]
) -> List[Tuple[int, ...]]:
    """First-level (BHT) contention groups for the PA family.

    For a tagged set-associative table, branches sharing a set only
    contend once the set holds more members than ways — groups at or
    under the associativity are returned with the others so callers can
    see the full placement, but pressure metrics should count only
    groups larger than ``bht_assoc``.
    """
    if spec.scheme not in PER_ADDRESS_SCHEMES or spec.bht_entries is None:
        raise CheckError(
            "first-level analysis applies to PA-family specs with a "
            f"finite bht_entries, not {spec.describe()}"
        )
    groups: Dict[int, List[int]] = {}
    for pc in sorted(set(pcs)):
        key = int(bht_set_index(spec, word_index(pc)))
        groups.setdefault(key, []).append(pc)
    return sorted(
        tuple(members)
        for members in groups.values()
        if len(members) > 1
    )


@dataclass(frozen=True)
class AliasPressure:
    """Predicted alias pressure of one (spec, static layout) pair."""

    static_branches: int
    aliased_branches: int
    alias_classes: int
    harmless_classes: int
    #: Dynamic-weight share sitting in classes predicted harmful.
    harmful_weight_share: float

    @property
    def aliased_fraction(self) -> float:
        if self.static_branches == 0:
            return 0.0
        return self.aliased_branches / self.static_branches

    @property
    def harmful_classes(self) -> int:
        return self.alias_classes - self.harmless_classes


def alias_pressure(
    spec: PredictorSpec, infos: Sequence[StaticBranchInfo]
) -> AliasPressure:
    """Summarize predicted pressure: how much aliasing, how much harm.

    A class is predicted harmless when every member has the same known
    steady direction — colliding branches train the shared counter the
    way each wants anyway (the paper's harmless all-ones collisions).
    Classes mixing directions, or containing data-dependent members,
    are predicted harmful.
    """
    by_pc = {info.pc: info for info in infos}
    sets = alias_sets(spec, by_pc)
    aliased = 0
    harmless = 0
    harmful_weight = 0.0
    total_weight = sum(info.weight for info in infos) or 1.0
    for members in sets:
        aliased += len(members)
        directions = {by_pc[pc].direction for pc in members}
        if len(directions) == 1 and None not in directions:
            harmless += 1
        else:
            harmful_weight += sum(by_pc[pc].weight for pc in members)
    return AliasPressure(
        static_branches=len(by_pc),
        aliased_branches=aliased,
        alias_classes=len(sets),
        harmless_classes=harmless,
        harmful_weight_share=harmful_weight / total_weight,
    )


#: Predicted-harmful weight share above which a finding escalates from
#: note to warning. The *worst* split of a tier always aliases heavily
#: (few columns), so escalation keys on the *best* split: when even the
#: most column-rich split keeps most of the hot population fighting
#: over counters, the tier is in the paper's "large workload on a small
#: table" regime and no (c, r) choice will dealias it.
HARMFUL_SHARE_WARNING = 0.5

#: Dynamic-weight share contending for oversubscribed first-level sets
#: above which the ``alias.first-level`` finding escalates to warning.
OVERSUBSCRIBED_SHARE_WARNING = 0.25


def _first_level_pressure(
    spec: PredictorSpec, infos: Sequence[StaticBranchInfo]
) -> Dict[str, object]:
    """BHT set-contention stats for a PA-family spec with a finite
    first level.

    A set only loses histories once it holds more branches than ways,
    so pressure counts groups larger than the associativity and the
    dynamic-weight share living in them (the weight whose per-address
    histories keep getting reset — the paper's Figure-10 pollution).
    """
    by_pc = {info.pc: info for info in infos}
    groups = first_level_alias_sets(spec, by_pc)
    oversubscribed = [g for g in groups if len(g) > spec.bht_assoc]
    total_weight = sum(info.weight for info in infos) or 1.0
    contended = sum(
        by_pc[pc].weight for group in oversubscribed for pc in group
    )
    return {
        "bht_entries": spec.bht_entries,
        "bht_assoc": spec.bht_assoc,
        "shared_sets": len(groups),
        "oversubscribed_sets": len(oversubscribed),
        "largest_set": max((len(g) for g in groups), default=0),
        "contended_weight_share": round(contended / total_weight, 4),
    }


def check_aliasing(
    benchmarks: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
    size_bits: Optional[Sequence[int]] = None,
    seed: int = 0,
    bht_entries: Optional[int] = None,
    bht_assoc: int = 4,
) -> List[Finding]:
    """The full aliasing pass: predicted pressure per sweep point.

    For every benchmark program and scheme, walks the tier grid and
    reports the worst split per tier. Pure partition arithmetic — no
    branch is ever simulated. Passing ``bht_entries`` additionally
    folds first-level set contention into the PA-family findings: one
    ``alias.first-level`` finding per (benchmark, scheme) — the set
    geometry is tier-independent — and the contention stats attached
    to every per-tier finding's data.
    """
    from repro.sim.sweep import SWEEPABLE_SCHEMES, spec_for_point
    from repro.workloads.profiles import FOCUS_BENCHMARKS, get_profile
    from repro.workloads.program import build_program

    benchmarks = tuple(benchmarks or FOCUS_BENCHMARKS)
    schemes = tuple(schemes or ("gshare", "gas", "pas"))
    grid = tuple(size_bits or (8, 10, 12))
    for scheme in schemes:
        if scheme not in SWEEPABLE_SCHEMES:
            raise CheckError(
                f"aliasing analysis sweeps {SWEEPABLE_SCHEMES}, "
                f"not {scheme!r}"
            )

    findings: List[Finding] = []
    for benchmark in benchmarks:
        program = build_program(get_profile(benchmark), seed=seed)
        infos = branch_infos_from_program(program)
        # Every sweepable scheme's collision key is the column index,
        # so pressure is a function of the column width alone — compute
        # each width once and share it across schemes and tiers.
        pressure_by_col_bits: Dict[int, AliasPressure] = {}
        for scheme in schemes:
            first_level: Optional[Dict[str, object]] = None
            if bht_entries is not None and scheme in PER_ADDRESS_SCHEMES:
                # Set placement depends only on the first-level
                # geometry, never on the tier split; one probe spec
                # covers the whole grid.
                probe = spec_for_point(
                    scheme,
                    col_bits=0,
                    row_bits=1,
                    bht_entries=bht_entries,
                    bht_assoc=bht_assoc,
                )
                first_level = _first_level_pressure(probe, infos)
                share = float(
                    first_level["contended_weight_share"]  # type: ignore[arg-type]
                )
                findings.append(
                    Finding(
                        check="alias.first-level",
                        severity=(
                            "warning"
                            if share > OVERSUBSCRIBED_SHARE_WARNING
                            else "info"
                        ),
                        why=(
                            f"{benchmark}: "
                            f"{first_level['oversubscribed_sets']} of "
                            f"{first_level['shared_sets']} shared "
                            f"first-level sets hold more branches than "
                            f"the {bht_assoc}-way associativity "
                            f"(largest {first_level['largest_set']}); "
                            f"{share:.0%} of dynamic weight keeps "
                            "losing its history slot"
                        ),
                        scheme=scheme,
                        point=f"bht={bht_entries}x{bht_assoc}",
                        data={"benchmark": benchmark, **first_level},
                    )
                )
            for n in grid:
                worst: Optional[AliasPressure] = None
                best: Optional[AliasPressure] = None
                worst_point = best_point = ""
                for row_bits in range(n + 1):
                    col_bits = n - row_bits
                    pressure = pressure_by_col_bits.get(col_bits)
                    if pressure is None:
                        spec = spec_for_point(
                            scheme, col_bits=col_bits, row_bits=row_bits
                        )
                        pressure = alias_pressure(spec, infos)
                        pressure_by_col_bits[col_bits] = pressure
                    point = f"n={n} c={col_bits} r={row_bits}"
                    if (
                        worst is None
                        or pressure.harmful_weight_share
                        > worst.harmful_weight_share
                    ):
                        worst, worst_point = pressure, point
                    if (
                        best is None
                        or pressure.harmful_weight_share
                        < best.harmful_weight_share
                    ):
                        best, best_point = pressure, point
                assert worst is not None and best is not None
                severity = (
                    "warning"
                    if best.harmful_weight_share > HARMFUL_SHARE_WARNING
                    else "info"
                )
                data: Dict[str, object] = {
                    "benchmark": benchmark,
                    "aliased_fraction": round(
                        worst.aliased_fraction, 4
                    ),
                    "harmful_weight_share": round(
                        worst.harmful_weight_share, 4
                    ),
                    "best_point": best_point,
                    "best_harmful_weight_share": round(
                        best.harmful_weight_share, 4
                    ),
                }
                if first_level is not None:
                    data["first_level"] = first_level
                why = (
                    f"{benchmark}: worst split puts "
                    f"{worst.aliased_branches}/"
                    f"{worst.static_branches} branches into "
                    f"{worst.alias_classes} alias classes "
                    f"({worst.harmless_classes} predicted "
                    f"harmless), {worst.harmful_weight_share:.0%} "
                    "of dynamic weight in harmful classes; best "
                    f"split ({best_point}) keeps "
                    f"{best.harmful_weight_share:.0%} harmful"
                )
                findings.append(
                    Finding(
                        check="alias.pressure",
                        severity=severity,
                        why=why,
                        scheme=scheme,
                        point=worst_point,
                        data=data,
                    )
                )
    return findings
