"""Bounded execution: soft deadlines, cooperative interrupts, retries.

Three small tools with one shared philosophy — a long sweep should stop
at a *point boundary*, with every finished point already persisted:

* :class:`Deadline` -- a soft wall-clock budget checked between points;
  when it expires the sweep raises :class:`DeadlineExceeded`, and the
  run is resumable.
* :class:`CooperativeInterrupt` -- a context manager that converts
  SIGINT into a flag; the sweep finishes the current point and then
  re-raises ``KeyboardInterrupt`` cleanly.
* :func:`retry_with_backoff` -- bounded retries for transient failures
  (artifact-directory contention, flaky filesystems).
"""

from __future__ import annotations

import signal
import time
from typing import Callable, Optional, Tuple, Type, TypeVar

from repro.errors import SimulationError
from repro.obs.metrics import counter

T = TypeVar("T")


class DeadlineExceeded(SimulationError):
    """A sweep's soft time budget ran out (finished points are kept)."""


class Deadline:
    """Soft wall-clock budget for a run.

    ``None`` seconds means unbounded; ``check()`` is then free. The
    clock is monotonic, so system clock changes cannot cut a run short.
    """

    def __init__(self, seconds: Optional[float] = None):
        if seconds is not None and seconds <= 0:
            raise SimulationError(
                f"deadline must be positive, got {seconds!r}"
            )
        self.seconds = seconds
        self._started = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def remaining(self) -> Optional[float]:
        if self.seconds is None:
            return None
        return self.seconds - self.elapsed()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def check(self, context: str = "run") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired():
            counter("deadline.expirations").inc()
            raise DeadlineExceeded(
                f"{context} exceeded its {self.seconds:.3g}s deadline "
                f"after {self.elapsed():.3g}s"
            )


class CooperativeInterrupt:
    """Defer SIGINT to the next point boundary.

    Inside the ``with`` block the first Ctrl-C only sets a flag; the
    loop polls :attr:`pending` (or calls :meth:`checkpoint`) between
    points and exits cleanly. A second Ctrl-C falls through to the
    default handler — the escape hatch when a point itself hangs.

    In threads where signal handlers cannot be installed (or when the
    handler is not the Python default), the manager degrades to a
    no-op and SIGINT behaves as usual.
    """

    def __init__(self) -> None:
        self.pending = False
        self._previous = None
        self._installed = False

    def _on_sigint(self, signum, frame) -> None:  # noqa: ANN001
        if self.pending:  # second Ctrl-C: stop deferring
            raise KeyboardInterrupt
        self.pending = True
        counter("interrupt.deferred").inc()

    def __enter__(self) -> "CooperativeInterrupt":
        try:
            self._previous = signal.signal(signal.SIGINT, self._on_sigint)
            self._installed = True
        except ValueError:  # not the main thread
            self._installed = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:  # noqa: ANN001
        if self._installed:
            signal.signal(signal.SIGINT, self._previous)

    def checkpoint(self) -> None:
        """Raise ``KeyboardInterrupt`` now if a SIGINT was deferred."""
        if self.pending:
            raise KeyboardInterrupt


def retry_with_backoff(
    fn: Callable[[], T],
    retries: int = 3,
    base_delay: float = 0.05,
    max_delay: float = 2.0,
    retryable: Tuple[Type[BaseException], ...] = (OSError,),
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn``, retrying transient failures with exponential backoff.

    ``retries`` is the number of *re*-tries after the first attempt;
    the final failure propagates unchanged. Only exception types listed
    in ``retryable`` are retried — everything else escapes immediately.
    """
    if retries < 0:
        raise SimulationError(f"retries must be >= 0, got {retries}")
    attempt = 0
    while True:
        try:
            return fn()
        except retryable:
            if attempt >= retries:
                raise
            counter("retry.attempts").inc()
            delay = min(max_delay, base_delay * (2 ** attempt))
            sleep(delay)
            attempt += 1
