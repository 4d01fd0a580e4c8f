"""Experiment registry."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import ExperimentError
from repro.experiments import (
    ablation_aliasing,
    ablation_budget,
    ablation_dealias,
    ablation_first_level,
    ablation_multiprogramming,
    ablation_pipeline,
    ablation_tagged,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    table1,
    table2,
    table3,
)
from repro.experiments.base import ExperimentOptions, ExperimentResult

_MODULES = (
    table1,
    table2,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    table3,
    ablation_aliasing,
    ablation_dealias,
    ablation_budget,
    ablation_tagged,
    ablation_pipeline,
    ablation_multiprogramming,
    ablation_first_level,
)

_REGISTRY: Dict[str, Callable[[Optional[ExperimentOptions]], ExperimentResult]]
_REGISTRY = {module.EXPERIMENT_ID: module.run for module in _MODULES}
_TITLES = {module.EXPERIMENT_ID: module.TITLE for module in _MODULES}


def list_experiments() -> List[str]:
    """Experiment ids in paper order."""
    return list(_REGISTRY)


def get_experiment(experiment_id: str):
    """The run callable for one experiment id."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def experiment_title(experiment_id: str) -> str:
    get_experiment(experiment_id)  # validates the id
    return _TITLES[experiment_id]


def run_experiment(
    experiment_id: str, options: Optional[ExperimentOptions] = None
) -> ExperimentResult:
    """Run one experiment by id.

    When ``options.checkpoint_dir`` is set the experiment's sweeps
    write every finished point to a result store there as it lands and
    restore them on the next run, so whatever interrupts the run
    (Ctrl-C, ``kill -9``, an engine error), completed work is never
    lost.
    """
    from repro.obs.spans import span

    with span("experiment", id=experiment_id):
        return get_experiment(experiment_id)(options)
