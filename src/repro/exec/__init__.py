"""Parallel execution: one worker pool for sweep points.

The paper's constant-size tiers are embarrassingly parallel — every
``(c, r)`` split simulates independently — so sweep points run on a
pool of worker processes. :mod:`repro.exec.parallel` holds the pool
(:func:`run_points`) that ``sweep_tiers(..., workers=N)`` uses:
workers return finished points, the parent writes them.

Parallel results are exactly the serial results: the same
:func:`~repro.sim.sweep.compute_point` runs on the same trace bytes,
and every point lands in the parent under its content key.
"""

from repro.exec.parallel import PointTask, run_points

__all__ = ["PointTask", "run_points"]
