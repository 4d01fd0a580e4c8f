"""Static verification: prove properties before spending simulation time.

Two passes, exposed as ``repro check [configs|code|all]``:

* :mod:`repro.check.configs` — config contract verification: every
  registered scheme spec and every ``(c, r)`` sweep split is proved
  index-sound before a sweep starts; ``--fix`` attaches the nearest
  sound split to budget mismatches.
* :mod:`repro.check.lint` — AST-based repo invariants generic linters
  can't express (hot-path purity, trip-count-bounded hot loops,
  pre-declared metric names, atomic artifact writes, checkpoint-key
  stability).

Aliasing is measured, not predicted: :mod:`repro.aliasing` counts
conflicts on the index streams the engines simulate
(:func:`~repro.aliasing.classify_conflicts` splits them into harmless
and destructive, :func:`~repro.aliasing.dealias_delta` simulates the
cost of removing them), and
:func:`repro.sim.vectorized.bht_miss_stream` counts first-level misses
(the ``L1-miss`` column of ``repro simulate``).

All passes emit :class:`~repro.check.findings.Finding` records;
exit codes are 0 (clean), 1 (findings), 2 (internal error).
Import the submodules directly; this package re-exports nothing.
"""
