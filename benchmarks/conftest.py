"""Shared benchmark-harness plumbing.

Every ``bench_<id>.py`` regenerates one paper artifact through the
experiment registry, prints the same rows/series the paper reports, and
records the wall-clock cost under pytest-benchmark (single round: these
are artifact regenerations, not micro-benchmarks).

Each regeneration also appends one row to the run ledger through
:func:`repro.obs.ledger.record_run` (``repro obs history`` lists it),
with the harness's own wall time: ``branches_per_sec`` means "dynamic
branches simulated per second of wall time", comparable across PRs as
the engines get faster.

Scale knobs (see EXPERIMENTS.md for the paper-vs-measured record):

* ``REPRO_BENCH_LENGTH``  — dynamic conditional branches per trace
  (default 120000; the paper ran 5M-340M).
* ``REPRO_BENCH_SEED``    — workload seed (default 0).
"""

import os
import time

import pytest

from repro.experiments import ExperimentOptions, run_experiment
from repro.obs import reset_metrics, snapshot
from repro.obs.ledger import record_run

BENCH_LENGTH = int(os.environ.get("REPRO_BENCH_LENGTH", "120000"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

#: Tier exponents used by the figure benches. The paper's full range is
#: 4..15; the default trims nothing.
FULL_SIZE_BITS = tuple(range(4, 16))


def scaled_options(**overrides) -> ExperimentOptions:
    merged = dict(length=BENCH_LENGTH, seed=BENCH_SEED)
    merged.update(overrides)
    return ExperimentOptions(**merged)


@pytest.fixture
def regenerate(benchmark):
    """Run one experiment once under the benchmark timer, print it, and
    record its throughput in the run ledger."""

    def runner(experiment_id: str, options: ExperimentOptions):
        reset_metrics()
        started = time.perf_counter()
        result = benchmark.pedantic(
            run_experiment,
            args=(experiment_id, options),
            rounds=1,
            iterations=1,
        )
        wall_s = time.perf_counter() - started
        branches = snapshot()["counters"].get("sim.branches", 0)
        # Explicit harness timings: the bench timer brackets more than
        # engine wall time.
        record_run(
            experiment_id,
            branches_per_sec=branches / wall_s if wall_s else 0.0,
            wall_s=wall_s,
            workers=options.workers,
        )
        print()
        result.show()
        return result

    return runner
