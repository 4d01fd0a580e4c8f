"""Analysis and rendering: surfaces, best configurations, text plots."""

from repro.analysis.ascii_plots import (
    render_series,
    render_surface,
    render_surface_grid,
)
from repro.analysis.best_config import BestConfigRow, best_configurations
from repro.analysis.branch_report import (
    BranchRecord,
    branch_breakdown,
    branch_report,
    concentration,
    predictability_alignment,
)
from repro.analysis.compare import DiffGrid, diff_surfaces
from repro.analysis.export import (
    diff_grid_to_csv,
    series_to_csv,
    surface_to_csv,
    surface_to_json,
    surface_to_rows,
)
from repro.analysis.metrics import (
    per_branch_misprediction,
    warmup_trimmed_rate,
)

__all__ = [
    "BranchRecord",
    "branch_breakdown",
    "branch_report",
    "concentration",
    "predictability_alignment",
    "diff_grid_to_csv",
    "series_to_csv",
    "surface_to_csv",
    "surface_to_json",
    "surface_to_rows",
    "render_series",
    "render_surface",
    "render_surface_grid",
    "BestConfigRow",
    "best_configurations",
    "DiffGrid",
    "diff_surfaces",
    "per_branch_misprediction",
    "warmup_trimmed_rate",
]
