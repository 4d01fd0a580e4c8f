"""Table 1: characterization of the SPECint92 and IBS-Ultrix benchmarks.

Columns (paper): dynamic instructions, dynamic conditional branches
(and percent of instructions), static conditional branches, and static
branches constituting 90% of dynamic conditional branches. We print the
measured values for the synthetic traces next to the paper's reference
values, so the calibration is auditable at a glance. Real-program
kernels (``--benchmark real_quicksort``) have no paper row: their suite
reads ``real`` and the paper columns ``-``.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.base import ExperimentOptions, ExperimentResult
from repro.traces.stats import characterize
from repro.utils.tables import format_table
from repro.workloads.profiles import PAPER_BENCHMARKS, PROFILES

EXPERIMENT_ID = "table1"
TITLE = "Benchmark characterization (paper Table 1)"


def run(options: Optional[ExperimentOptions] = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    benchmarks = options.resolve_benchmarks(PAPER_BENCHMARKS)

    headers = [
        "benchmark",
        "suite",
        "dyn instrs",
        "dyn cond branches",
        "branch %",
        "static",
        "static (paper)",
        "90% cover",
        "90% cover (paper)",
    ]
    rows = []
    data = {}
    for name in benchmarks:
        stats = characterize(options.trace(name))
        profile = PROFILES.get(name)  # None for a real-program kernel
        rows.append(
            [
                name,
                profile.suite if profile else "real",
                stats.dynamic_instructions,
                stats.dynamic_branches,
                f"{stats.branch_fraction:.1%}",
                stats.static_branches,
                profile.static_branches if profile else "-",
                stats.branches_for_90pct,
                profile.paper_branches_for_90pct if profile else "-",
            ]
        )
        data[name] = stats
    note = (
        "\nNote: traces are scaled to "
        f"{options.length} dynamic conditional branches (the paper ran "
        "5M-340M); static-branch columns converge toward the paper's "
        "values as the length grows."
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=format_table(rows, headers=headers) + note,
        data={"stats": data, "profiles": dict(PROFILES)},
        options=options,
    )
