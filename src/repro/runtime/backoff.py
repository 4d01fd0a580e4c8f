"""Shared jittered exponential-backoff policy.

A :class:`BackoffPolicy` declares an exponential retry schedule once
(base, factor, cap, jitter) instead of inline ``min(cap, base * 2**n)``
arithmetic, and makes it testable in isolation.

Jitter is *full* jitter on the top fraction of the delay: with
``jitter=0.25`` the sleep is uniform in ``[0.75 * d, d]``. The default
policy has zero jitter so deterministic tests can pin exact sleep
sequences.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import SimulationError


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff schedule: ``base * factor**attempt``, capped."""

    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    #: Fraction of each delay randomized away (0 = deterministic).
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.base_delay < 0 or self.max_delay < 0:
            raise SimulationError(
                f"backoff delays must be >= 0, got {self}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise SimulationError(
                f"backoff jitter must be in [0, 1], got {self.jitter}"
            )

    def delay_for(
        self, attempt: int, rng: Optional[random.Random] = None
    ) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise SimulationError(f"attempt must be >= 0, got {attempt}")
        delay = min(self.max_delay, self.base_delay * (self.factor ** attempt))
        if self.jitter:
            scale = (rng.random() if rng is not None else random.random())
            delay -= delay * self.jitter * scale
        return delay

    def sleep(
        self,
        attempt: int,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> float:
        """Sleep out the delay for ``attempt``; returns the seconds slept."""
        delay = self.delay_for(attempt, rng)
        if delay > 0:
            sleep(delay)
        return delay


#: Per-point simulation retries (matches retry_with_backoff defaults).
RETRY_BACKOFF = BackoffPolicy(base_delay=0.05, factor=2.0, max_delay=2.0)
