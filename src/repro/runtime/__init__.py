"""Resilient experiment runtime.

Makes long-running sweeps resumable:

* :mod:`repro.runtime.durable`   -- sweep keys and atomic writes, the
  primitives behind resumable sweeps (finished points live in the
  content-addressed result store; a re-run restores them).
* :mod:`repro.runtime.interrupt` -- cooperative SIGINT handling: a
  sweep finishes its in-flight point before it stops.
"""

from repro.runtime.durable import atomic_write_text, sweep_key
from repro.runtime.interrupt import CooperativeInterrupt

__all__ = [
    "atomic_write_text",
    "sweep_key",
    "CooperativeInterrupt",
]
