"""Suite-wide isolation for cross-run telemetry.

``repro run`` appends to the run ledger (``~/.repro/ledger.jsonl`` by
default), which must never leak out of (or between) tests. Every test
gets a throwaway ledger path via ``$REPRO_LEDGER`` and a pinned
``$REPRO_GIT_REV`` (so ledger tests never shell out to git).

The fault fixtures below fail the real code by substituting one
function: a crashing engine, a real SIGINT sent from inside a point.
Forked pool workers inherit the substitution.
"""

import os
import signal
import time

import pytest


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger.jsonl"))
    monkeypatch.setenv("REPRO_GIT_REV", "testrev")
    monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
    yield


@pytest.fixture
def sigint_on_point(monkeypatch):
    """Arm a real Ctrl-C: ``arm(nth)`` makes the ``nth`` point this
    process computes send SIGINT to this process, then finish normally.

    The sweep's cooperative interrupt defers the signal, so the
    in-flight point still lands before ``KeyboardInterrupt`` is raised.
    """
    import repro.sim.sweep as sweep

    real = sweep.compute_point

    def arm(nth):
        calls = []

        def interrupting(*args, **kwargs):
            calls.append(1)
            if len(calls) == nth:
                os.kill(os.getpid(), signal.SIGINT)
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep, "compute_point", interrupting)

    return arm


@pytest.fixture
def worker_sigint(monkeypatch):
    """Arm a real Ctrl-C from a pool worker: ``arm(n, row_bits)`` makes
    the worker that computes that point send SIGINT to its parent (the
    test process), then finish the point normally.

    The worker pauses before computing, so the parent stops the pool
    while the point is still in flight, whatever the other workers
    finish meanwhile. Forked workers inherit the patch; the parent's
    own calls (the serial fallback) never send it.
    """
    from repro.exec import parallel

    real = parallel.compute_point
    parent = os.getpid()

    def arm(n, row_bits):
        def interrupting(scheme, trace, point_n, point_row_bits, **kwargs):
            if os.getpid() != parent and (point_n, point_row_bits) == (
                n,
                row_bits,
            ):
                os.kill(parent, signal.SIGINT)
                time.sleep(0.5)
            return real(scheme, trace, point_n, point_row_bits, **kwargs)

        monkeypatch.setattr(parallel, "compute_point", interrupting)

    return arm


@pytest.fixture
def crashing_vectorized(monkeypatch):
    """Make vectorized engine calls crash with a ``RuntimeError``, as an
    engine bug would: ``arm()`` crashes every call, ``arm({1, 3})`` only
    the first and third. The guard must degrade to the reference engine.
    """
    import repro.runtime.guard as guard

    real = guard.simulate_vectorized

    def arm(crash_on=None):
        calls = []

        def crashing(spec, trace):
            calls.append(1)
            if crash_on is None or len(calls) in crash_on:
                raise RuntimeError("vectorized engine crashed")
            return real(spec, trace)

        monkeypatch.setattr(guard, "simulate_vectorized", crashing)

    return arm
