"""Static verification: prove properties before spending simulation time.

Three core passes, exposed as ``repro check [configs|aliasing|code|all]``:

* :mod:`repro.check.configs` — config contract verification: every
  registered scheme spec and every ``(c, r)`` sweep split is proved
  index-sound before a sweep starts; ``--fix`` attaches the nearest
  sound split to budget mismatches.
* :mod:`repro.check.static_alias` — ahead-of-time aliasing analysis:
  exact alias equivalence classes from static branch layout + table
  geometry, with predicted-harmless classification from behaviour
  metadata and first-level set contention for the PA family
  (no simulation).
* :mod:`repro.check.lint` — AST-based repo invariants generic linters
  can't express (hot-path purity, trip-count-bounded hot loops,
  pre-declared metric names, atomic artifact writes, checkpoint-key
  stability).

Plus one opt-in pass (never part of a bare ``all``):

* :mod:`repro.check.estimator` (``repro check dealias``) — static
  dealiasing-benefit estimation: an analytic row-occupancy mixture
  model predicting the misprediction-rate delta dealiasing each sweep
  split would yield; ``--validate`` cross-checks the predictions
  against the real engine on the Figure-9 micro workloads.

All passes emit :class:`~repro.check.findings.Finding` records;
exit codes are 0 (clean), 1 (findings), 2 (internal error).
"""

from repro.check.configs import (
    canonical_specs,
    check_configs,
    nearest_sound_split,
    verify_spec,
    verify_spec_dict,
    verify_sweep_plan,
)
from repro.check.estimator import (
    SplitDelta,
    check_dealias,
    predict_dealias_delta,
    predicted_split_deltas,
    validate_dealias,
)
from repro.check.findings import SEVERITIES, CheckReport, Finding
from repro.check.lint import lint_paths, lint_source
from repro.check.runner import OPT_IN_PASSES, PASSES, run_checks
from repro.check.static_alias import (
    AliasPressure,
    StaticBranchInfo,
    alias_pressure,
    alias_sets,
    branch_infos_from_program,
    check_aliasing,
    first_level_alias_sets,
)

__all__ = [
    "Finding",
    "CheckReport",
    "SEVERITIES",
    "PASSES",
    "OPT_IN_PASSES",
    "run_checks",
    "canonical_specs",
    "check_configs",
    "nearest_sound_split",
    "verify_spec",
    "verify_spec_dict",
    "verify_sweep_plan",
    "lint_paths",
    "lint_source",
    "StaticBranchInfo",
    "AliasPressure",
    "alias_sets",
    "first_level_alias_sets",
    "alias_pressure",
    "branch_infos_from_program",
    "check_aliasing",
    "SplitDelta",
    "check_dealias",
    "predict_dealias_delta",
    "predicted_split_deltas",
    "validate_dealias",
]
