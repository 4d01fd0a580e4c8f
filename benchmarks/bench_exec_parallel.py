"""Serial vs parallel sweep wall-clock on a Figure-9-style tier.

One ``pas`` tier, computed twice over the same trace: once with the
serial runner, once on a pool of two workers. Asserts the parallel
surface is byte-identical to the serial one and that two workers buy a
real speedup.
"""

import os
import time

from conftest import BENCH_SEED, scaled_options

from repro.sim.sweep import sweep_tiers
from repro.workloads.registry import make_workload

#: Tier exponent: 2^12 counters, 13 (c, r) splits — enough simulation
#: per worker that process startup is noise.
TIER_BITS = 12

#: Parallel must beat serial by at least this factor at 2 workers
#: (the ISSUE's acceptance bar) — on machines with >= 2 cores.
MIN_SPEEDUP = 1.5

#: On a single-core machine 2 workers cannot beat serial; the bench
#: degrades to bounding the executor's orchestration overhead.
MAX_SINGLE_CORE_OVERHEAD = 1.3

LENGTH = int(os.environ.get("REPRO_BENCH_LENGTH", "120000"))


def _cells(surface):
    return [
        (n, p.col_bits, p.row_bits, p.misprediction_rate,
         p.aliasing_rate, p.first_level_miss_rate)
        for n, points in surface.tiers.items()
        for p in points
    ]


def _timed_sweep(trace, workers):
    started = time.perf_counter()
    surface = sweep_tiers(
        "pas",
        trace,
        size_bits=[TIER_BITS],
        bht_entries=512,
        workers=workers,
    )
    return surface, time.perf_counter() - started


def bench_exec_parallel():
    options = scaled_options(length=LENGTH)
    trace = make_workload(
        "compress", length=options.length, seed=BENCH_SEED
    )

    serial, serial_s = _timed_sweep(trace, 1)
    parallel, parallel_s = _timed_sweep(trace, 2)

    assert _cells(parallel) == _cells(serial)
    speedup = serial_s / parallel_s
    print(
        f"\nserial {serial_s:.2f}s, 2 workers {parallel_s:.2f}s, "
        f"speedup {speedup:.2f}x over {len(_cells(serial))} points "
        f"({os.cpu_count()} cpu)"
    )
    if (os.cpu_count() or 1) >= 2:
        assert speedup >= MIN_SPEEDUP, (
            f"2-worker speedup {speedup:.2f}x below {MIN_SPEEDUP}x"
        )
    else:
        # A lone core cannot run two CPU-bound workers faster than
        # one; what the executor owes us there is bounded overhead.
        assert parallel_s <= serial_s * MAX_SINGLE_CORE_OVERHEAD, (
            f"parallel overhead {parallel_s / serial_s:.2f}x exceeds "
            f"{MAX_SINGLE_CORE_OVERHEAD}x on a single core"
        )
