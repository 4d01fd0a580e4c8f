"""Shared experiment plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.traces.trace import BranchTrace
from repro.workloads.profiles import FOCUS_BENCHMARKS, PROFILES
from repro.workloads.registry import make_workload

#: Default dynamic conditional-branch count per benchmark trace. The
#: paper simulates 5M-340M branches per benchmark; rate statistics at
#: the table sizes studied converge much earlier, and EXPERIMENTS.md
#: records the scale used for each regenerated artifact.
DEFAULT_LENGTH = 150_000

#: Default tier exponents. The paper's figures span 2^4..2^15; the
#: default skips nothing.
DEFAULT_SIZE_BITS = tuple(range(4, 16))


@dataclass
class ExperimentOptions:
    """Options shared by all experiments.

    ``length``/``seed`` control trace generation; ``benchmarks`` and
    ``size_bits`` default to whatever the paper used for the artifact
    (each experiment module narrows them).

    The runtime fields make long runs resilient: ``checkpoint_dir``
    writes every finished sweep point to a result store there (and
    ``resume`` restores prior progress from it); ``paranoid``
    cross-checks the vectorized engine against the scalar reference on
    every point (see :mod:`repro.runtime`). ``on_point`` is the
    sweep progress hook ``on_point(point, done, total)`` — the CLI's
    ``--progress`` heartbeat plugs in here (see :mod:`repro.obs`).
    ``precheck`` statically verifies every planned sweep spec before
    the first point simulates (see :mod:`repro.check`); the CLI's
    ``--no-precheck`` turns it off. ``workers`` runs sweep points on a
    worker pool (see :mod:`repro.exec`; the CLI's ``--workers``), and
    ``plan_from_estimate`` skips
    points below a predicted-delta threshold (``--plan-from-estimate``).
    ``dashboard`` renders the live fleet table on stderr for parallel
    sweeps (``--dashboard``; see :mod:`repro.obs.dashboard`).
    ``use_cache`` memoizes finished points through the
    content-addressed result store when ``$REPRO_RESULT_STORE`` is set
    (``--no-cache`` opts out; see :mod:`repro.serve.results`).
    """

    length: int = DEFAULT_LENGTH
    seed: int = 0
    benchmarks: Optional[Sequence[str]] = None
    size_bits: Sequence[int] = DEFAULT_SIZE_BITS
    checkpoint_dir: Optional[str] = None
    resume: bool = True
    paranoid: bool = False
    on_point: Optional[Callable[[Any, int, int], None]] = None
    precheck: bool = True
    workers: int = 1
    plan_from_estimate: Optional[float] = None
    dashboard: bool = False
    use_cache: bool = True

    def sweep_kwargs(self) -> Dict[str, Any]:
        """Runtime keyword arguments for :func:`repro.sim.sweep.sweep_tiers`."""
        return {
            "checkpoint_dir": self.checkpoint_dir,
            "resume": self.resume,
            "paranoid": self.paranoid,
            "on_point": self.on_point,
            "precheck": self.precheck,
            "workers": self.workers,
            "plan_from_estimate": self.plan_from_estimate,
            "dashboard": self.dashboard,
            "use_cache": self.use_cache,
        }

    def resolve_benchmarks(self, default: Sequence[str]) -> List[str]:
        from repro.workloads.registry import is_real_workload

        names = list(self.benchmarks) if self.benchmarks else list(default)
        for name in names:
            if name not in PROFILES and not is_real_workload(name):
                raise ExperimentError(f"unknown benchmark {name!r}")
        return names

    def trace(self, benchmark: str) -> BranchTrace:
        """The benchmark's trace, via the trace store when one is set.

        With ``$REPRO_TRACE_STORE`` pointing at a directory, repeated
        runs load the materialized ``.npz`` instead of regenerating
        (``store.hits``/``store.misses`` count the difference); unset,
        generation behaves exactly as before.
        """
        from repro.workloads.store import TraceStore

        store = TraceStore.from_env()
        if store is not None:
            return store.get(benchmark, length=self.length, seed=self.seed)
        return make_workload(benchmark, length=self.length, seed=self.seed)


@dataclass
class ExperimentResult:
    """A regenerated artifact: rendered text plus structured data."""

    experiment_id: str
    title: str
    text: str
    data: Dict[str, Any] = field(default_factory=dict)
    options: Optional[ExperimentOptions] = None

    def show(self) -> None:
        """Print the rendered artifact (the CLI's output path)."""
        print(f"# {self.experiment_id}: {self.title}")
        print(self.text)


FOCUS = FOCUS_BENCHMARKS
