"""Static checks and store integrity.

* :mod:`repro.check.lint` — ``repro check``: AST-based repo invariants
  generic linters can't express (hot-path purity, trip-count-bounded
  hot loops, pre-declared metric names, atomic artifact writes,
  checkpoint-key stability).
* :mod:`repro.check.doctor` — ``repro doctor``: every trace archive
  and result artifact in a store must load and verify.

Predictor configurations need no pass of their own:
:class:`~repro.predictors.specs.PredictorSpec` refuses, at
construction, every configuration the engines cannot simulate, and
:func:`~repro.sim.sweep.sweep_tiers` builds all its specs before any
point runs.

Aliasing is measured, not predicted: :mod:`repro.aliasing` counts
conflicts on the index streams the engines simulate
(:func:`~repro.aliasing.classify_conflicts` splits them into harmless
and destructive, :func:`~repro.aliasing.dealias_delta` simulates the
cost of removing them), and
:func:`repro.sim.vectorized.bht_miss_stream` counts first-level misses
(the ``L1-miss`` column of ``repro simulate``).

Both emit :class:`~repro.check.findings.Finding` records; exit codes
are 0 (clean), 1 (findings), 2 (a file or store could not be read).
Import the submodules directly; this package re-exports nothing.
"""
