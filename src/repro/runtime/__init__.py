"""Resilient experiment runtime.

Makes long-running sweeps resumable and self-verifying:

* :mod:`repro.runtime.durable`   -- sweep keys and atomic writes, the
  primitives behind resumable sweeps (finished points live in the
  content-addressed result store; a re-run restores them).
* :mod:`repro.runtime.interrupt` -- cooperative SIGINT handling: a
  sweep finishes its in-flight point before it stops.
* :mod:`repro.runtime.guard`     -- engine invariant checks with
  graceful degradation to the scalar reference engine, plus the opt-in
  paranoid vectorized-vs-reference cross-check.
"""

from repro.runtime.durable import atomic_write_text, sweep_key
from repro.runtime.guard import (
    PARANOID_PREFIX,
    guarded_simulate,
    result_invariant_violation,
)
from repro.runtime.interrupt import CooperativeInterrupt

__all__ = [
    "atomic_write_text",
    "sweep_key",
    "CooperativeInterrupt",
    "guarded_simulate",
    "result_invariant_violation",
    "PARANOID_PREFIX",
]
