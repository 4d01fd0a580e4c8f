"""Live fleet dashboard for parallel sweeps (``--dashboard``).

While ``repro run --workers N --dashboard`` is polling its worker
fleet, the parent renders a throttled ANSI table on **stderr** (stdout
stays byte-identical to a serial run) showing, per worker: points
landed, recent points/second, and a straggler flag. The header line
carries fleet-wide done/total progress.

The terminal contract is deliberately minimal — *output only*, no
keybindings, no alternate screen: each frame moves the cursor up over
the previous frame (``ESC[nA``) and erases to the end of the screen
(``ESC[0J``) before reprinting, and only when stderr is a TTY.
Redirected to a file, frames are plain text separated by blank lines at
the same throttle, so CI logs stay readable.

Straggler detection: every observed point completion contributes a
per-point duration sample; once the fleet has :attr:`min_samples`
samples, a worker whose time-since-last-landed-point exceeds the fleet
P90 is flagged (and ``exec.stragglers`` increments once per
transition into the flagged state).
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, TextIO

from repro.obs.metrics import counter
from repro.utils.tables import format_table

#: Bound on retained per-point duration samples (oldest dropped).
MAX_SAMPLES = 512


class FleetDashboard:
    """Throttled per-worker status table over the poll loop's progress.

    The worker pool calls :meth:`update` from its scheduling loop with
    each worker's landed-point count; the dashboard owns all rendering
    and throttling. ``clock`` is
    injectable for tests.
    """

    def __init__(
        self,
        label: str,
        stream: Optional[TextIO] = None,
        min_interval_s: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
        min_samples: int = 8,
    ):
        self.label = label
        self.min_interval_s = min_interval_s
        self.min_samples = min_samples
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._last_frame_at: Optional[float] = None
        self._last_frame_lines = 0
        self._samples: List[float] = []
        # wid -> {points, last_change, rate, straggler}
        self._workers: Dict[int, Dict[str, float]] = {}

    # -- poll-loop API -------------------------------------------------

    def due(self, now: Optional[float] = None) -> bool:
        """Whether enough time has passed to render another frame."""
        now = self._clock() if now is None else now
        return (
            self._last_frame_at is None
            or now - self._last_frame_at >= self.min_interval_s
        )

    def update(
        self,
        progress: Dict[int, Dict[str, int]],
        *,
        done: int = 0,
        total: int = 0,
        now: Optional[float] = None,
    ) -> None:
        """Fold one poll's worker progress in and render if due."""
        now = self._clock() if now is None else now
        self._ingest(progress, now)
        if self.due(now):
            self._render(done=done, total=total, now=now)

    def finish(self) -> None:
        """Leave the final frame in place and stop rewriting it."""
        if self._last_frame_lines and self._is_tty():
            self._stream.write("\n")
            self._stream.flush()
        self._last_frame_at = None
        self._last_frame_lines = 0

    # -- bookkeeping ---------------------------------------------------

    def _ingest(self, progress: Dict[int, Dict[str, int]], now: float) -> None:
        for wid, row in progress.items():
            points = int(row.get("points") or 0)
            state = self._workers.get(wid)
            if state is None:
                state = {
                    "points": 0.0,
                    "last_change": now,
                    "rate": 0.0,
                    "straggler": 0.0,
                }
                self._workers[wid] = state
            landed = points - int(state["points"])
            if landed > 0:
                elapsed = now - float(state["last_change"])
                if elapsed > 0:
                    per_point = elapsed / landed
                    self._samples.append(per_point)
                    del self._samples[:-MAX_SAMPLES]
                    state["rate"] = landed / elapsed
                state["last_change"] = now
            state["points"] = float(points)
        p90 = self.fleet_p90()
        for state in self._workers.values():
            stale_for = now - float(state["last_change"])
            flagged = (
                p90 is not None
                and stale_for > max(p90, self.min_interval_s)
            )
            if flagged and not state["straggler"]:
                counter("exec.stragglers").inc()
            state["straggler"] = 1.0 if flagged else 0.0

    def fleet_p90(self) -> Optional[float]:
        """P90 of observed per-point durations (None until warmed up)."""
        if len(self._samples) < self.min_samples:
            return None
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, int(0.9 * len(ordered)))
        return ordered[index]

    def stragglers(self) -> List[int]:
        """Worker ids currently flagged as stragglers."""
        return sorted(
            wid for wid, state in self._workers.items() if state["straggler"]
        )

    # -- rendering -----------------------------------------------------

    def _is_tty(self) -> bool:
        isatty = getattr(self._stream, "isatty", None)
        try:
            return bool(isatty()) if callable(isatty) else False
        except (OSError, ValueError):
            return False

    def render_frame(self, *, done: int = 0, total: int = 0) -> str:
        """The current frame as plain text (no ANSI)."""
        header = f"[{self.label}] fleet: {len(self._workers)} worker(s)"
        if total:
            header += f", {done}/{total} points"
        if not self._workers:
            return header + "\n(waiting for workers)"
        rows = [
            [
                f"w{wid:04d}",
                int(state["points"]),
                float(state["rate"]),
                "straggler" if state["straggler"] else "ok",
            ]
            for wid, state in sorted(self._workers.items())
        ]
        table = format_table(
            rows,
            headers=("worker", "points", "points/s", "status"),
            float_fmt=".2f",
        )
        return header + "\n" + table

    def _render(self, *, done: int, total: int, now: float) -> None:
        frame = self.render_frame(done=done, total=total)
        if self._is_tty() and self._last_frame_lines:
            # Rewrite in place: up over the old frame, erase below.
            self._stream.write(f"\x1b[{self._last_frame_lines}A\x1b[0J")
        elif self._last_frame_lines:
            self._stream.write("\n")
        self._stream.write(frame + "\n")
        self._stream.flush()
        self._last_frame_lines = frame.count("\n") + 1
        self._last_frame_at = now
