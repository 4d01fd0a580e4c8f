"""The first-level branch-history table (BHT) of PAs schemes.

Section 5 of the paper: "Realistic implementations of PAs schemes will
store branch histories in a first-level table of some bounded size.
Conflicts between branches can result in the pollution of the stored
history information." The paper models a *tagged*, set-associative
table: a tag mismatch is detected and the history is reset to "a fixed
mixture of zeros and ones ... the appropriate length prefix of the
pattern 0xC3FF, avoiding excessive aliasing for the patterns of all
taken or all not taken branches."
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.bits import mask
from repro.utils.validation import check_positive_int, check_power_of_two

#: The paper's history reset pattern.
RESET_PATTERN = 0xC3FF
RESET_PATTERN_BITS = 16


def reset_history(history_bits: int) -> int:
    """The ``history_bits``-long prefix of 0xC3FF (its high bits).

    0xC3FF is 1100001111111111 in binary; its prefixes mix zeros and
    ones for every length >= 2, which is exactly why the paper chose it.
    """
    check_positive_int(history_bits, "history_bits")
    # Only the paper's 16 bits are specified; longer histories repeat
    # the pattern, keeping the same prefix idea.
    pattern = format(RESET_PATTERN, f"0{RESET_PATTERN_BITS}b")
    repeats = history_bits // RESET_PATTERN_BITS + 1
    return int((pattern * repeats)[:history_bits], 2)


def check_bht_geometry(entries: int, assoc: int) -> None:
    """Raise unless ``entries`` splits into ``assoc``-way sets."""
    check_power_of_two(entries, "BHT entries")
    check_positive_int(assoc, "BHT associativity")
    if assoc > entries:
        raise ConfigurationError(
            f"associativity {assoc} exceeds entry count {entries}"
        )
    if entries % assoc != 0:
        raise ConfigurationError(
            f"entries ({entries}) must be a multiple of assoc ({assoc})"
        )


class BranchHistoryTable:
    """Tagged set-associative table of per-branch history registers.

    LRU replacement within each set. A lookup that misses (tag not
    present) allocates the entry with the reset pattern; the paper's
    "first-level table miss rate" is ``misses / accesses``.
    """

    def __init__(self, entries: int, assoc: int, history_bits: int):
        check_bht_geometry(entries, assoc)
        check_positive_int(history_bits, "history_bits")
        self.entries = entries
        self.assoc = assoc
        self.history_bits = history_bits
        self.num_sets = entries // assoc
        self._reset_value = reset_history(history_bits)
        self._mask = mask(history_bits)
        # Per set: list of (tag, history), most recently used first.
        self._sets: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.num_sets)
        ]
        self.accesses = 0
        self.misses = 0

    def _locate(self, pc: int) -> Tuple[int, int]:
        word = pc >> 2
        return word % self.num_sets, word // self.num_sets

    def lookup(self, pc: int) -> Tuple[int, bool]:
        """Return ``(history, hit)`` for the branch at ``pc``.

        A miss allocates the entry (evicting the LRU way if the set is
        full) and returns the reset-pattern history.
        """
        set_index, tag = self._locate(pc)
        ways = self._sets[set_index]
        self.accesses += 1
        for position, (way_tag, history) in enumerate(ways):
            if way_tag == tag:
                if position != 0:
                    ways.insert(0, ways.pop(position))
                return history, True
        self.misses += 1
        if len(ways) >= self.assoc:
            ways.pop()
        ways.insert(0, (tag, self._reset_value))
        return self._reset_value, False

    def miss_stream(self, pcs: Sequence[int]) -> np.ndarray:
        """Whether each lookup of ``pcs``, made in order, missed."""
        return np.fromiter(
            (not self.lookup(pc)[1] for pc in pcs), dtype=bool, count=len(pcs)
        )

    def record(self, pc: int, taken: bool) -> None:
        """Shift the resolved outcome into the branch's history.

        The entry must be resident (``lookup`` allocates on miss, and
        predictors always look up before they record).
        """
        set_index, tag = self._locate(pc)
        ways = self._sets[set_index]
        for position, (way_tag, history) in enumerate(ways):
            if way_tag == tag:
                new_history = ((history << 1) | int(taken)) & self._mask
                ways[position] = (way_tag, new_history)
                return
        raise ConfigurationError(
            f"record() for pc {pc:#x} without a resident entry; call "
            "lookup() first"
        )

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0.0 before any access)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def reset(self) -> None:
        """Empty the table and clear statistics."""
        self._sets = [[] for _ in range(self.num_sets)]
        self.accesses = 0
        self.misses = 0

    @property
    def storage_bits(self) -> int:
        """History storage only; the paper omits tag cost, noting tags
        can be folded into a BTB or the instruction cache."""
        return self.entries * self.history_bits


class PerfectHistoryTable:
    """The idealized first level: one history register per branch.

    This is the paper's "PAs(inf)" — "the assumption that accurate
    history information is available for each branch" (Figure 9).
    """

    def __init__(self, history_bits: int):
        check_positive_int(history_bits, "history_bits")
        self.history_bits = history_bits
        self._mask = mask(history_bits)
        self._initial = reset_history(history_bits)
        self._histories: Dict[int, int] = {}
        self.accesses = 0
        self.misses = 0  # always zero; kept for interface symmetry

    def lookup(self, pc: int) -> Tuple[int, bool]:
        self.accesses += 1
        return self._histories.get(pc, self._initial), True

    def record(self, pc: int, taken: bool) -> None:
        history = self._histories.get(pc, self._initial)
        self._histories[pc] = ((history << 1) | int(taken)) & self._mask

    @property
    def miss_rate(self) -> float:
        return 0.0

    def reset(self) -> None:
        self._histories.clear()
        self.accesses = 0

    @property
    def storage_bits(self) -> int:
        return 0  # idealized


def drive_history(
    key: Optional[np.ndarray],
    reset_at: Optional[np.ndarray],
    chunk: np.ndarray,
    shift: int,
    register_mask: int,
    reset: int,
    regs: np.ndarray,
    out: np.ndarray,
) -> None:
    """Python twin of ``repro_history`` (``sim/kernels.c``).

    Access t takes register ``regs[key[t]]`` (``regs[0]`` without a
    key), sets it to ``reset`` where ``reset_at[t]`` holds, writes it
    to ``out[t]`` and stores ``((r << shift) | chunk[t]) & mask`` back
    into the caller's ``regs``. Trusts its arguments as the C loop
    does; :func:`repro.sim.vectorized.run_history` checks them.
    """
    n = len(chunk)
    registers = regs.tolist()
    keys = repeat(0, n) if key is None else key.tolist()
    resets = repeat(0, n) if reset_at is None else reset_at.tolist()
    values = [0] * n
    for t, (k, reset_now, c) in enumerate(zip(keys, resets, chunk.tolist())):
        r = reset if reset_now else registers[k]
        values[t] = r
        registers[k] = ((r << shift) | c) & register_mask
    regs[:] = registers
    out[:] = values
