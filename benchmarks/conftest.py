"""Shared benchmark-harness plumbing.

Every ``bench_<id>.py`` regenerates one paper artifact through the
experiment registry, prints the same rows/series the paper reports, and
records the wall-clock cost under pytest-benchmark (single round: these
are artifact regenerations, not micro-benchmarks).

The perf trajectory across revisions is the end-to-end harness in
``benchmarks/e2e`` (``run.py --out``, then ``run.py compare``); these
benches check the paper's findings at a chosen scale.

Scale knobs (see EXPERIMENTS.md for the paper-vs-measured record):

* ``REPRO_BENCH_LENGTH``  — dynamic conditional branches per trace
  (default 120000; the paper ran 5M-340M).
* ``REPRO_BENCH_SEED``    — workload seed (default 0).
"""

import os

import pytest

from repro.experiments import ExperimentOptions, run_experiment

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
    """Run one experiment once under the benchmark timer and print it."""

    def runner(experiment_id: str, options: ExperimentOptions):
        result = benchmark.pedantic(
            run_experiment,
            args=(experiment_id, options),
            rounds=1,
            iterations=1,
        )
        print()
        result.show()
        return result

    return runner
