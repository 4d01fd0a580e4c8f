"""Resilient experiment runtime.

Makes long-running sweeps resumable, bounded, and self-verifying:

* :mod:`repro.runtime.durable` -- sweep keys and atomic writes, the
  primitives behind resumable sweeps (finished points live in the
  content-addressed result store; a re-run restores them).
* :mod:`repro.runtime.deadline`   -- soft time budgets, cooperative
  SIGINT handling, and retry-with-backoff for transient failures.
* :mod:`repro.runtime.guard`      -- engine invariant checks with
  graceful degradation to the scalar reference engine, plus the opt-in
  paranoid vectorized-vs-reference cross-check.
* :mod:`repro.runtime.faults`     -- deterministic fault injection
  (``REPRO_FAULT_SPEC``) used by the resilience test-suite.
"""

from repro.runtime.durable import atomic_write_text, sweep_key
from repro.runtime.deadline import (
    CooperativeInterrupt,
    Deadline,
    DeadlineExceeded,
    retry_with_backoff,
)
from repro.runtime.faults import (
    FAULT_ENV,
    InjectedFault,
    clear_faults,
    install_faults,
    maybe_inject,
    parse_fault_spec,
)
from repro.runtime.guard import (
    PARANOID_PREFIX,
    guarded_simulate,
    result_invariant_violation,
)

__all__ = [
    "atomic_write_text",
    "sweep_key",
    "CooperativeInterrupt",
    "Deadline",
    "DeadlineExceeded",
    "retry_with_backoff",
    "FAULT_ENV",
    "InjectedFault",
    "clear_faults",
    "install_faults",
    "maybe_inject",
    "parse_fault_spec",
    "guarded_simulate",
    "result_invariant_violation",
    "PARANOID_PREFIX",
]
