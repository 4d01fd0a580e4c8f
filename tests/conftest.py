"""Suite-wide test isolation and fault fixtures.

An operator's ``$REPRO_RESULT_STORE`` must never leak into a test: a
run would serve its points from (and write them to) that shared store.
Likewise the native kernels build into a cache of the session's own.

The fault fixtures below fail the real code by substituting one
function: a crashing engine, a real SIGINT sent from inside a point.
Forked pool workers inherit the substitution.
"""

import os
import signal
import time

import pytest


@pytest.fixture(autouse=True, scope="session")
def _private_build_cache(tmp_path_factory):
    """Build the native kernels into a per-session cache, never into
    the developer's ``~/.cache``."""
    saved = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("xdg-cache"))
    yield
    if saved is None:
        os.environ.pop("XDG_CACHE_HOME", None)
    else:
        os.environ["XDG_CACHE_HOME"] = saved


@pytest.fixture(autouse=True)
def _no_env_result_store(monkeypatch):
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
        def interrupting(spec, trace):
            point = (spec.column_bits + spec.history_bits, spec.history_bits)
            if os.getpid() != parent and point == (n, row_bits):
                os.kill(parent, signal.SIGINT)
                time.sleep(0.5)
            return real(spec, trace)

        monkeypatch.setattr(parallel, "compute_point", interrupting)

    return arm


@pytest.fixture
def crashing_vectorized(monkeypatch):
    """Make vectorized engine calls crash with a ``RuntimeError``, as an
    engine bug would: ``arm()`` crashes every call, ``arm({1, 3})`` only
    the first and third. The exception propagates out of ``simulate``.
    """
    import repro.sim.vectorized as vectorized

    real = vectorized.simulate_vectorized

    def arm(crash_on=None):
        calls = []

        def crashing(spec, trace):
            calls.append(1)
            if crash_on is None or len(calls) in crash_on:
                raise RuntimeError("vectorized engine crashed")
            return real(spec, trace)

        monkeypatch.setattr(vectorized, "simulate_vectorized", crashing)

    return arm
