"""Cooperative interrupts: stop a long sweep at a point boundary.

:class:`CooperativeInterrupt` converts SIGINT into a flag; the sweep
finishes the current point, persists it, and then re-raises
``KeyboardInterrupt`` cleanly, so every finished point is already in
the result store when the run exits.
"""

from __future__ import annotations

import signal

from repro.obs.metrics import counter


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
