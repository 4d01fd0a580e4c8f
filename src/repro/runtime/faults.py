"""Fault injection for resilience testing.

Long sweeps must survive engine crashes, interrupted and killed
processes, and damaged result artifacts; this module lets tests (and brave operators) force
those failures deterministically instead of waiting for them.

A fault spec is a comma-separated list of clauses::

    site:action            fire on every pass through ``site``
    site:action(arg)       fire with a numeric argument
    site:action@N          fire on the N-th pass (1-based), once
    site:action%N          fire on every N-th pass

Actions:

* ``raise``      -- raise :class:`InjectedFault` (a ``RuntimeError``, so
  it models a non-library engine crash);
* ``interrupt``  -- raise ``KeyboardInterrupt`` (models Ctrl-C / kill);
* ``corrupt``    -- no exception; callers that support corruption (the
  result store's ``put``) flip bytes in their payload instead;
* ``delay(S)``   -- sleep ``S`` seconds in place (models a paused or
  descheduled process);
* ``torn-write`` -- no exception; writer sites truncate their payload
  mid-line instead (models a crash between ``write`` and ``fsync``);
* ``kill``       -- ``SIGKILL`` the current process (models a worker
  dying with no chance to clean up).

Known sites (grep for ``maybe_inject`` / ``fire_site``):
``engine.vectorized``, ``sweep.point``, ``trace.save``, ``results.put``
(one result artifact write), ``exec.worker`` (per point in a pool
worker, outside the retry wrapper — models a worker crash), and
``exec.poll`` (the pool parent's scheduling loop).

Specs come from the ``REPRO_FAULT_SPEC`` environment variable (read on
every pass, so tests can monkeypatch it) or programmatically via
:func:`install_faults` / :func:`clear_faults`.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError

#: Environment variable holding the active fault spec.
FAULT_ENV = "REPRO_FAULT_SPEC"

ACTIONS = (
    "raise",
    "interrupt",
    "corrupt",
    "delay",
    "torn-write",
    "kill",
)


class InjectedFault(RuntimeError):
    """The exception raised by a ``raise`` fault clause.

    Deliberately *not* a :class:`repro.errors.ReproError`: it stands in
    for an unexpected engine crash (a numpy error, a bug), which is the
    class of failure the guard layer must degrade around.
    """


@dataclass
class FaultClause:
    """One ``site:action[(arg)][@N|%N]`` clause."""

    site: str
    action: str
    arg: Optional[float] = None
    nth: Optional[int] = None
    every: Optional[int] = None
    hits: int = 0

    def should_fire(self) -> bool:
        self.hits += 1
        if self.nth is not None:
            return self.hits == self.nth
        if self.every is not None:
            return self.hits % self.every == 0
        return True


@dataclass
class FaultPlan:
    """All active clauses, grouped by site."""

    clauses: Dict[str, List[FaultClause]] = field(default_factory=dict)

    def add(self, clause: FaultClause) -> None:
        self.clauses.setdefault(clause.site, []).append(clause)

    def for_site(self, site: str) -> List[FaultClause]:
        return self.clauses.get(site, [])


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULT_SPEC`` string into a :class:`FaultPlan`."""
    plan = FaultPlan()
    for raw in spec.split(","):
        raw = raw.strip()
        if not raw:
            continue
        try:
            site, action = raw.split(":", 1)
        except ValueError:
            raise ConfigurationError(
                f"bad fault clause {raw!r}: expected "
                "'site:action[(arg)][@N|%N]'"
            ) from None
        nth = every = None
        if "@" in action:
            action, _, count = action.partition("@")
            nth = _parse_count(count, raw)
        elif "%" in action:
            action, _, count = action.partition("%")
            every = _parse_count(count, raw)
        arg = None
        if "(" in action:
            action, _, rest = action.partition("(")
            if not rest.endswith(")"):
                raise ConfigurationError(
                    f"bad fault argument in {raw!r}: unclosed '('"
                )
            arg = _parse_arg(rest[:-1], raw)
        if action not in ACTIONS:
            raise ConfigurationError(
                f"bad fault action {action!r} in {raw!r}; known: {ACTIONS}"
            )
        plan.add(
            FaultClause(
                site=site, action=action, arg=arg, nth=nth, every=every
            )
        )
    return plan


def _parse_count(text: str, clause: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ConfigurationError(
            f"bad fault count {text!r} in clause {clause!r}"
        ) from None
    if value < 1:
        raise ConfigurationError(
            f"fault count must be >= 1 in clause {clause!r}"
        )
    return value


def _parse_arg(text: str, clause: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(
            f"bad fault argument {text!r} in clause {clause!r}"
        ) from None


#: Programmatically installed plan (takes precedence over the env var).
_installed: Optional[FaultPlan] = None
#: Lazily parsed plan for the current env-var value.
_env_cache: Optional[tuple] = None  # (spec string, FaultPlan)


def install_faults(spec: str) -> FaultPlan:
    """Install a fault plan for this process (tests' entry point)."""
    global _installed
    _installed = parse_fault_spec(spec)
    return _installed


def clear_faults() -> None:
    """Remove any installed plan and forget the env cache."""
    global _installed, _env_cache
    _installed = None
    _env_cache = None


def active_plan() -> Optional[FaultPlan]:
    """The plan in effect, if any (installed beats environment)."""
    global _env_cache
    if _installed is not None:
        return _installed
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        _env_cache = None
        return None
    if _env_cache is None or _env_cache[0] != spec:
        _env_cache = (spec, parse_fault_spec(spec))
    return _env_cache[1]


def fire_site(site: str) -> Dict[str, float]:
    """Fire any matching fault for ``site``.

    Raises for ``raise``/``interrupt`` clauses, sleeps out ``delay``
    clauses in place, kills the process for ``kill``, and returns the
    passive actions that fired (``corrupt``, ``torn-write``) mapped to
    their argument (``0.0`` when none was given) — the caller applies
    those to its own payload.
    """
    plan = active_plan()
    if plan is None:
        return {}
    from repro.obs.metrics import counter

    fired: Dict[str, float] = {}
    for clause in plan.for_site(site):
        if not clause.should_fire():
            continue
        counter("faults.injected").inc()
        if clause.action == "raise":
            raise InjectedFault(f"injected fault at {site}")
        if clause.action == "interrupt":
            raise KeyboardInterrupt(f"injected interrupt at {site}")
        if clause.action == "delay":
            time.sleep(clause.arg if clause.arg is not None else 0.05)
            continue
        if clause.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        fired[clause.action] = clause.arg if clause.arg is not None else 0.0
    return fired


def maybe_inject(site: str) -> bool:
    """Fire any matching fault for ``site``.

    Raises for ``raise``/``interrupt`` clauses; returns True when a
    ``corrupt`` clause fired (the caller mangles its own payload).
    Callers that distinguish the other passive actions use
    :func:`fire_site` directly.
    """
    return "corrupt" in fire_site(site)

