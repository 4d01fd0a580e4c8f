"""Top-level workload factory with caching.

``make_workload`` is the one call most users need: profile lookup,
program construction, and trace generation in one step, with an
in-process cache so experiment code can re-request the same trace
without regenerating it.

Two workload families share the namespace:

* **synthetic** benchmarks (``espresso``, ``mpeg_play``, ...) —
  generated from profiles calibrated to the paper's tables;
* **real-program** benchmarks (``real_quicksort``, ...) — measured by
  instrumenting actual Python kernels and recording their conditional
  branches (:mod:`repro.cfg.corpus`).

Both produce a plain :class:`~repro.traces.trace.BranchTrace`, so
everything downstream — simulation, sweeps, the trace store, figures —
treats them identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.spans import span
from repro.traces.trace import BranchTrace
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import PAPER_BENCHMARKS, PROFILES, get_profile
from repro.workloads.program import build_program

#: Default dynamic conditional-branch count per benchmark trace for
#: the experiments and the CLI. The paper simulates 5M-340M branches
#: per benchmark; rate statistics at the table sizes studied converge
#: much earlier, and EXPERIMENTS.md records the scale used for each
#: regenerated artifact.
DEFAULT_LENGTH = 150_000

_CACHE: Dict[Tuple[str, int, int, int], BranchTrace] = {}
_CACHE_LIMIT = 32


def list_workloads() -> List[str]:
    """All benchmark names: the paper's fourteen calibrated profiles,
    then the registered real-program workloads."""
    from repro.cfg.corpus import list_real_workloads

    return list(PAPER_BENCHMARKS) + list_real_workloads()


def is_real_workload(name: str) -> bool:
    """Whether ``name`` is a measured real-program workload."""
    from repro.cfg.corpus import is_real_workload as _is_real

    return _is_real(name)


def make_workload(
    name: str,
    length: Optional[int] = None,
    seed: int = 0,
    trace_seed: Optional[int] = None,
    cache: bool = True,
) -> BranchTrace:
    """Generate (or fetch from cache) a benchmark trace.

    Parameters
    ----------
    name:
        Benchmark name (see :func:`list_workloads`) — synthetic or
        real-program.
    length:
        Dynamic conditional-branch count; defaults to the profile's
        (or real workload's) ``default_length``.
    seed:
        Program-structure seed (branch population, layout, behaviours).
        Real workloads have no structure seed; it is folded into the
        data seed.
    trace_seed:
        Dynamic-path seed; defaults to ``seed`` so a single integer
        fully determines the trace. For real workloads this seeds the
        kernel's input data.
    cache:
        Keep the trace in an in-process cache (bounded) for reuse.

    Generation runs under a ``workload.generate`` span; a cache hit
    opens none.
    """
    if trace_seed is None:
        trace_seed = seed
    if name not in PROFILES and is_real_workload(name):
        from repro.cfg.corpus import get_real_workload, make_real_workload

        if length is None:
            length = get_real_workload(name).default_length
        key = (name, int(length), int(seed), int(trace_seed))
        if cache and key in _CACHE:
            return _CACHE[key]
        with span("workload.generate", workload=name, length=length):
            trace = make_real_workload(name, length=length, seed=trace_seed)
        _remember(key, trace, cache)
        return trace
    if name not in PROFILES:
        from repro.errors import WorkloadError

        known = ", ".join(list_workloads())
        raise WorkloadError(
            f"unknown workload {name!r}; known workloads: {known}"
        )
    profile = get_profile(name)
    if length is None:
        length = profile.default_length
    key = (name, int(length), int(seed), int(trace_seed))
    if cache and key in _CACHE:
        return _CACHE[key]
    with span("workload.generate", workload=name, length=length):
        program = build_program(profile, seed=seed)
        trace = generate_trace(program, length=length, seed=trace_seed)
    _remember(key, trace, cache)
    return trace


def _remember(
    key: Tuple[str, int, int, int], trace: BranchTrace, cache: bool
) -> None:
    if cache:
        if len(_CACHE) >= _CACHE_LIMIT:
            _CACHE.pop(next(iter(_CACHE)))
        _CACHE[key] = trace


def clear_cache() -> None:
    """Drop all cached traces (mainly for tests)."""
    _CACHE.clear()
