"""Figure 3: misprediction rates of GAg (single column, global history).

One curve per benchmark, column heights 16 .. 32768 counters (history
lengths 4 .. 15). Shape findings: accuracy improves with history
length for everyone; the small SPECint92 programs suffer less pattern
aliasing and reach low rates at shorter histories than the large
programs do.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.ascii_plots import render_series
from repro.experiments.base import ExperimentOptions, ExperimentResult
from repro.sim.sweep import sweep_tiers
from repro.workloads.profiles import PAPER_BENCHMARKS

EXPERIMENT_ID = "fig3"
TITLE = "GAg predictors (paper Figure 3)"


def run(options: Optional[ExperimentOptions] = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    benchmarks = options.resolve_benchmarks(PAPER_BENCHMARKS)
    size_bits = list(options.size_bits)

    series: Dict[str, List[float]] = {}
    for name in benchmarks:
        trace = options.trace(name)
        rates = []
        for n in size_bits:
            surface = sweep_tiers(
                "gas", trace, size_bits=[n], row_bits_filter=[n],
                **options.sweep_kwargs(),
            )
            rates.append(surface.point(n, n).misprediction_rate)
        series[name] = rates
    text = render_series(
        series,
        x_labels=[f"2^{n}" for n in size_bits],
        title="Misprediction rate, GAg column of 2-bit counters",
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={"series": series, "size_bits": size_bits},
        options=options,
    )
