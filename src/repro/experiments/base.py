"""Shared experiment plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.traces.trace import BranchTrace
from repro.workloads.profiles import FOCUS_BENCHMARKS, PROFILES
from repro.workloads.registry import DEFAULT_LENGTH, make_workload

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
    names the result store every finished sweep point is written to (and
    restored from on a re-run; without it, ``$REPRO_RESULT_STORE`` names
    the store); ``use_cache`` false reads no point from the store and
    simulates them all (``--no-cache``; see :mod:`repro.serve.results`).
    ``on_point`` is
    the sweep progress hook ``on_point(point, done, total)`` — the
    CLI's ``--progress`` heartbeat plugs in here (see :mod:`repro.obs`).
    ``workers`` runs sweep points on a worker pool (see
    :mod:`repro.exec`; the CLI's ``--workers``).
    """

    length: int = DEFAULT_LENGTH
    seed: int = 0
    benchmarks: Optional[Sequence[str]] = None
    size_bits: Sequence[int] = DEFAULT_SIZE_BITS
    checkpoint_dir: Optional[str] = None
    on_point: Optional[Callable[[Any, int, int], None]] = None
    workers: int = 1
    use_cache: bool = True

    def sweep_kwargs(self) -> Dict[str, Any]:
        """Runtime keyword arguments for :func:`repro.sim.sweep.sweep_tiers`."""
        return {
            "checkpoint_dir": self.checkpoint_dir,
            "on_point": self.on_point,
            "workers": self.workers,
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
