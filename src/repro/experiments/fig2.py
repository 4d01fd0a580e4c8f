"""Figure 2: misprediction rates of address-indexed predictors.

One curve per benchmark, table sizes 16 .. 32768 two-bit counters. The
paper's shape finding: the five small-footprint SPECint92 programs
saturate almost immediately (every hot branch already has a private
counter), while gcc and the IBS-Ultrix benchmarks keep improving
through the largest tables because aliasing persists.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.ascii_plots import render_series
from repro.experiments.base import ExperimentOptions, ExperimentResult
from repro.sim.sweep import sweep_tiers
from repro.workloads.profiles import PAPER_BENCHMARKS

EXPERIMENT_ID = "fig2"
TITLE = "Address-indexed predictors (paper Figure 2)"


def run(options: Optional[ExperimentOptions] = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    benchmarks = options.resolve_benchmarks(PAPER_BENCHMARKS)
    size_bits = list(options.size_bits)

    series: Dict[str, List[float]] = {}
    for name in benchmarks:
        trace = options.trace(name)
        surface = sweep_tiers(
            "gas", trace, size_bits=size_bits, row_bits_filter=[0],
            **options.sweep_kwargs(),
        )
        series[name] = [
            surface.point(n, 0).misprediction_rate for n in size_bits
        ]
    text = render_series(
        series,
        x_labels=[f"2^{n}" for n in size_bits],
        title="Misprediction rate, address-indexed table of 2-bit counters",
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={"series": series, "size_bits": size_bits},
        options=options,
    )
