"""Address layout for synthetic programs.

Predictor tables are indexed by PC bits, so *where* branches sit in the
address space determines which branches alias. The layout model places
each routine in its own contiguous "function" of text, with branches
separated by a few non-branch instructions, mirroring compiled code:

* low PC bits distinguish branches within a routine,
* mid bits distinguish routines, and collide once the active routine
  count exceeds the table size — the paper's column-aliasing mechanism,
* IBS-style traces put a fraction of routines in kernel text at
  0x80000000+, so user and kernel branches share the index space (the
  paper notes kernel branches behave like application branches but add
  to the population competing for counters).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List, Tuple

from repro.errors import WorkloadError
from repro.traces.trace import INSTRUCTION_BYTES
from repro.utils.rng import RandomSource

USER_TEXT_BASE = 0x0040_0000  # Ultrix user text segment
KERNEL_TEXT_BASE = 0x8003_0000  # kseg0, where Ultrix kernel code lives


@dataclass(frozen=True)
class RoutinePlacement:
    """Addresses assigned to one routine."""

    base: int
    branch_pcs: Tuple[int, ...]
    is_kernel: bool


def place_routines(
    body_sizes: List[int],
    kernel_fraction: float,
    rng: RandomSource,
    min_gap_words: int = 2,
    max_gap_words: int = 9,
) -> List[RoutinePlacement]:
    """Assign base addresses and branch PCs to every routine.

    ``body_sizes`` counts branches per routine *including* the back-edge.
    Routines are laid out in shuffled order (so hotness does not imply
    adjacency) with random inter-branch gaps and inter-routine padding.
    """
    if not body_sizes:
        raise WorkloadError("cannot place an empty routine list")
    n = len(body_sizes)
    order = rng.permutation(n)
    n_kernel = int(round(kernel_fraction * n))
    kernel_set = set(order[:n_kernel])

    placements: List[RoutinePlacement] = [None] * n  # type: ignore[list-item]
    cursors = {False: USER_TEXT_BASE, True: KERNEL_TEXT_BASE}
    for routine_index in order:
        size = body_sizes[routine_index]
        is_kernel = routine_index in kernel_set
        base = cursors[is_kernel]
        gaps = rng.integers(min_gap_words, max_gap_words + 1, size=size)
        pcs = tuple(
            base + int(words) * INSTRUCTION_BYTES for words in accumulate(gaps)
        )
        # Pad past the last branch plus an epilogue before the next
        # routine starts.
        epilogue = int(rng.integers(4, 17)) * INSTRUCTION_BYTES
        cursors[is_kernel] = pcs[-1] + epilogue
        placements[routine_index] = RoutinePlacement(
            base=base, branch_pcs=pcs, is_kernel=is_kernel
        )
    return placements


def choose_taken_target(
    pc: int,
    routine_base: int,
    rng: RandomSource,
    far_target_prob: float = 0.10,
    text_span: int = 1 << 22,
) -> int:
    """Pick the taken-target address for a branch at ``pc``.

    Most branches jump a short forward distance (if/else skips); a small
    fraction jump far (to model calls/returns folded into the stream).
    Path-based predictors (Nair) consume low target bits, so target
    diversity matters; exact destinations do not.
    """
    if rng.random() < far_target_prob:
        span_base = KERNEL_TEXT_BASE if pc >= KERNEL_TEXT_BASE else USER_TEXT_BASE
        return span_base + int(rng.integers(0, text_span // INSTRUCTION_BYTES)) * (
            INSTRUCTION_BYTES
        )
    skip = int(rng.integers(2, 24))
    return pc + skip * INSTRUCTION_BYTES


def backedge_target(routine_base: int) -> int:
    """A loop back-edge jumps to the top of its routine."""
    return routine_base
