"""Shared driver for the surface figures (4, 6, 9, 10)."""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.ascii_plots import render_surface
from repro.experiments.base import ExperimentOptions, ExperimentResult
from repro.sim.results import TierSurface
from repro.sim.sweep import sweep_tiers


def surface_experiment(
    experiment_id: str,
    title: str,
    scheme: str,
    default_benchmarks,
    options: Optional[ExperimentOptions],
    bht_entries: Optional[int] = None,
    bht_assoc: int = 4,
) -> ExperimentResult:
    """Sweep full tier surfaces for one scheme over the benchmarks."""
    options = options or ExperimentOptions()
    benchmarks = options.resolve_benchmarks(default_benchmarks)

    surfaces: Dict[str, TierSurface] = {}
    blocks = []
    for name in benchmarks:
        trace = options.trace(name)
        surface = sweep_tiers(
            scheme,
            trace,
            size_bits=options.size_bits,
            bht_entries=bht_entries,
            bht_assoc=bht_assoc,
            **options.sweep_kwargs(),
        )
        surfaces[name] = surface
        blocks.append(render_surface(surface))
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        text="\n\n".join(blocks),
        data={"surfaces": surfaces},
        options=options,
    )
