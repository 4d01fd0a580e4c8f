"""Deterministic random-number plumbing.

Every stochastic component (workload generation, test-trace synthesis)
derives its generator from an explicit integer seed so that experiments
are exactly reproducible run-to-run. Sub-streams are derived by hashing
the parent seed with a string label, which keeps independent components
decorrelated without threading generator objects everywhere.

:class:`RandomTape` replays a ``default_rng`` stream draw for draw in
plain Python. Program construction makes tens of thousands of scalar
draws of interleaved kinds, and a scalar ``np.random.Generator`` call
costs 1-25 µs of argument handling; the tape reads raw PCG64 words in
blocks and applies numpy's own transforms to them, so the values are
bit-identical at a fraction of the cost. It reads ahead, so it suits a
generator that is discarded after use, never one whose state is read
or handed on afterwards.
"""

from __future__ import annotations

import hashlib
import math
from operator import index as _index
from typing import Any, List, Optional, Protocol

import numpy as np

#: Raw 64-bit words the tape takes from the bit generator per refill.
RAW_BLOCK = 2048

_U32_MAX = 0xFFFF_FFFF
_DOUBLE_SCALE = 1.0 / 9007199254740992.0  # 2**-53


class RandomSource(Protocol):
    """The draws program construction makes: a Generator or a tape."""

    def random(self) -> float: ...

    def uniform(self, low: float, high: float) -> float: ...

    def integers(self, low: int, high: int, size: Any = None) -> Any: ...

    def permutation(self, x: int) -> Any: ...


def derive_seed(seed: int, label: str) -> int:
    """Derive a child seed from ``seed`` and a human-readable ``label``.

    The derivation is a SHA-256 hash, so children of the same parent with
    different labels are statistically independent, and the mapping is
    stable across Python versions and platforms (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def make_rng(seed: int, label: str = "") -> np.random.Generator:
    """Create a numpy Generator for the (seed, label) sub-stream."""
    if label:
        seed = derive_seed(seed, label)
    return np.random.default_rng(seed)


class RandomTape:
    """Bit-exact replay of a PCG64 ``np.random.Generator``'s scalar draws.

    Each method returns what the same call on ``generator`` would have
    returned at that point of its stream:

    * ``random()`` is ``(raw >> 11) * 2**-53``, one raw word;
    * ``uniform(a, b)`` is ``a + (b - a) * random()``;
    * ``integers(lo, hi[, size])`` draws from the range ``hi - 1 - lo``:
      nothing for 0, a bare 32-bit draw for ``2**32 - 1``, and Lemire's
      multiply-and-reject on 32-bit draws otherwise;
    * ``permutation(n)`` is a Fisher-Yates shuffle of ``range(n)`` from
      the top, each index by masked rejection on 32-bit draws.

    A 32-bit draw is the low half of a raw word, with the high half kept
    for the next 32-bit draw (PCG64's own buffer, seeded from the
    generator's state); doubles never touch it. Calls outside these
    shapes (ranges of 2**32 or more, other dtypes, ``endpoint``) raise
    ``TypeError`` or ``ValueError`` rather than return different values.
    ``generator`` itself is advanced in whole blocks of
    :data:`RAW_BLOCK` words and must not be drawn from afterwards.
    """

    __slots__ = ("_bitgen", "_words", "_pop", "_u32")

    def __init__(self, generator: np.random.Generator) -> None:
        self._bitgen = generator.bit_generator
        state = self._bitgen.state
        if state["bit_generator"] != "PCG64":
            raise TypeError(
                f"RandomTape replays PCG64, not {state['bit_generator']}"
            )
        # Unread raw words, next one last. Every draw pops one word with
        # ``try: self._pop() except IndexError: self._refill()``, inline:
        # a draw costs a few hundred ns, so each call level shows.
        self._words: List[int] = []
        self._pop = self._words.pop
        #: The buffered high half of a raw word, or None when empty.
        self._u32: Optional[int] = (
            int(state["uinteger"]) if state["has_uint32"] else None
        )

    def _refill(self) -> int:
        """Read the next block of raw words and pop the first."""
        self._words[:] = self._bitgen.random_raw(RAW_BLOCK)[::-1].tolist()
        return self._pop()

    def _uint32(self) -> int:
        half = self._u32
        if half is not None:
            self._u32 = None
            return half
        try:
            word = self._pop()
        except IndexError:
            word = self._refill()
        self._u32 = word >> 32
        return word & _U32_MAX

    def _draw(self, span: int) -> int:
        """A value in ``[0, span]`` for ``0 < span < 2**32 - 1`` (Lemire)."""
        excl = span + 1
        m = self._uint32() * excl
        if m & _U32_MAX < excl:
            threshold = (_U32_MAX - span) % excl
            while m & _U32_MAX < threshold:
                m = self._uint32() * excl
        return m >> 32

    def random(self) -> float:
        try:
            word = self._pop()
        except IndexError:
            word = self._refill()
        return (word >> 11) * _DOUBLE_SCALE

    def uniform(self, low: float, high: float) -> float:
        width = high - low
        if not 0.0 <= width < math.inf:
            raise ValueError(f"uniform: bad range ({low}, {high})")
        try:
            word = self._pop()
        except IndexError:
            word = self._refill()
        return low + width * ((word >> 11) * _DOUBLE_SCALE)

    def integers(self, low: int, high: int, size: Optional[int] = None) -> Any:
        """``generator.integers(low, high[, size])``; a list when sized."""
        low = _index(low)
        span = _index(high) - 1 - low
        if size is None and 0 < span < _U32_MAX:
            return low + self._draw(span)
        if not 0 <= span <= _U32_MAX:
            raise ValueError(
                f"integers: range [{low}, {high}) is empty or exceeds the "
                "tape's 32-bit draws"
            )
        if size is None:
            return low + (self._uint32() if span else 0)
        count = _index(size)
        if count < 0:
            raise ValueError(f"integers: negative size {size}")
        if 0 < span < _U32_MAX:
            draw = self._draw
            return [low + draw(span) for _ in range(count)]
        if span:
            uint32 = self._uint32
            return [low + uint32() for _ in range(count)]
        return [low] * count

    def permutation(self, x: int) -> List[int]:
        """``generator.permutation(x)`` for an integer ``x``, as a list."""
        items = list(range(_index(x)))
        if len(items) - 1 > _U32_MAX:
            raise ValueError("permutation: length exceeds 32-bit draws")
        uint32 = self._uint32
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = uint32() & mask
            while j > i:
                j = uint32() & mask
            items[i], items[j] = items[j], items[i]
        return items
