"""Synthetic workloads calibrated to the paper's benchmark suite.

The paper drives its simulations with MIPS R2000 traces of six SPECint92
programs and eight IBS-Ultrix programs. Those traces are not available,
so this subpackage implements the substitution described in DESIGN.md: a
*program model* (routines with loop bodies, phased control flow, and
per-branch behaviour models) whose knobs are calibrated, per benchmark,
to the statistics the paper reports in its Tables 1 and 2.

Public entry points::

    trace = make_workload("mpeg_play", length=500_000, seed=7)
    names = list_workloads()
    profile = get_profile("espresso")
"""

from repro.workloads.behaviors import (
    Behavior,
    BiasedBehavior,
    CorrelatedBehavior,
    PatternBehavior,
)
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import (
    IBS_BENCHMARKS,
    PAPER_BENCHMARKS,
    SPEC_BENCHMARKS,
    WorkloadProfile,
    bucket_weights,
    get_profile,
)
from repro.workloads.program import Program, Routine, StaticBranch, build_program
from repro.workloads.registry import list_workloads, make_workload
from repro.workloads.store import TraceStore

__all__ = [
    "Behavior",
    "BiasedBehavior",
    "PatternBehavior",
    "CorrelatedBehavior",
    "generate_trace",
    "WorkloadProfile",
    "get_profile",
    "bucket_weights",
    "SPEC_BENCHMARKS",
    "IBS_BENCHMARKS",
    "PAPER_BENCHMARKS",
    "Program",
    "Routine",
    "StaticBranch",
    "build_program",
    "make_workload",
    "list_workloads",
    "TraceStore",
]
