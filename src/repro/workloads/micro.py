"""Hand-built micro-workloads.

Tiny, fully-understood traces for unit tests, documentation, and
debugging — each isolates one behaviour the calibrated workloads mix
together. Every generator returns a plain :class:`BranchTrace` and is
deterministic given its arguments.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.traces.trace import BranchTrace
from repro.utils.rng import make_rng


def loop_trace(
    trips: int,
    repeats: int,
    pc: int = 0x1000,
    name: str = "micro-loop",
) -> BranchTrace:
    """One back-edge executing ``trips``-iteration loops ``repeats``
    times: T^(trips-1) N, repeated. The minimal all-ones-pattern
    producer."""
    if trips < 2 or repeats < 1:
        raise WorkloadError("need trips >= 2 and repeats >= 1")
    taken = np.tile(
        np.array([True] * (trips - 1) + [False]), repeats
    )
    pcs = np.full(len(taken), pc, dtype=np.uint64)
    return BranchTrace(
        pc=pcs,
        taken=taken,
        target=np.full(len(taken), pc - 64, dtype=np.uint64),
        name=name,
    )


def alternating_trace(
    length: int, pc: int = 0x1000, name: str = "micro-alternating"
) -> BranchTrace:
    """T N T N ...: defeats any single counter, trivial for 1-bit
    self-history."""
    if length < 2:
        raise WorkloadError("need length >= 2")
    taken = np.arange(length) % 2 == 0
    pcs = np.full(length, pc, dtype=np.uint64)
    return BranchTrace(
        pc=pcs,
        taken=taken,
        target=pcs + np.uint64(32),
        name=name,
    )


def correlated_pair_trace(
    length: int,
    noise: float = 0.0,
    seed: int = 0,
    name: str = "micro-correlated",
) -> BranchTrace:
    """Branch B repeats branch A's (random) outcome: the pure
    inter-branch correlation case. Global history predicts B nearly
    perfectly; nothing else can."""
    if length < 2:
        raise WorkloadError("need length >= 2")
    pairs = length // 2
    rng = make_rng(seed, "micro-correlated")
    a_outcomes = rng.random(pairs) < 0.5
    b_outcomes = a_outcomes.copy()
    if noise > 0.0:
        b_outcomes ^= rng.random(pairs) < noise
    pc = np.empty(pairs * 2, dtype=np.uint64)
    taken = np.empty(pairs * 2, dtype=bool)
    pc[0::2] = 0x1000
    pc[1::2] = 0x1040
    taken[0::2] = a_outcomes
    taken[1::2] = b_outcomes
    return BranchTrace(
        pc=pc,
        taken=taken,
        target=pc + np.uint64(64),
        name=name,
    )


def aliasing_pair_trace(
    length: int,
    stride_counters: int = 16,
    opposite: bool = True,
    name: str = "micro-aliasing",
) -> BranchTrace:
    """Two branches exactly ``stride_counters`` counters apart, so they
    collide in any table of that many entries. ``opposite`` makes the
    collision destructive (one always taken, one never); otherwise it
    is harmless."""
    if length < 2:
        raise WorkloadError("need length >= 2")
    half = length // 2
    pc = np.empty(half * 2, dtype=np.uint64)
    taken = np.empty(half * 2, dtype=bool)
    pc[0::2] = 0x1000
    pc[1::2] = 0x1000 + 4 * stride_counters
    taken[0::2] = True
    taken[1::2] = not opposite
    return BranchTrace(
        pc=pc,
        taken=taken,
        target=pc + np.uint64(16),
        name=name,
    )


def pattern_trace(
    pattern: Sequence[bool],
    repeats: int,
    pc: int = 0x1000,
    name: str = "micro-pattern",
) -> BranchTrace:
    """One branch cycling through ``pattern``; the canonical
    self-history workload."""
    if len(pattern) < 2 or repeats < 1:
        raise WorkloadError("need a pattern of length >= 2 and repeats >= 1")
    taken = np.tile(np.asarray(pattern, dtype=bool), repeats)
    pcs = np.full(len(taken), pc, dtype=np.uint64)
    return BranchTrace(
        pc=pcs,
        taken=taken,
        target=pcs + np.uint64(24),
        name=name,
    )


def interference_field_trace(
    branches: int = 16,
    length: int = 24000,
    taken_fraction: float = 0.5,
    taken_probability: float = 0.98,
    seed: int = 0,
    base_pc: int = 0x1000,
    name: str = "micro-interference-field",
) -> BranchTrace:
    """A field of steady branches with mixed directions, randomly
    interleaved: the stress case for :func:`repro.aliasing.dealias_delta`.

    Branch ``i`` sits at consecutive word addresses (``base_pc + 4*i``)
    so column splits peel the field apart predictably; a seeded random
    subset of ``round(branches * taken_fraction)`` branches is steadily
    taken (rate ``taken_probability``), the rest steadily not-taken
    (rate ``1 - taken_probability``). Accesses draw branches uniformly
    at random, so shared counters see well-mixed streams and aliasing
    between opposite-direction branches is destructive.
    """
    if branches < 2 or length < branches:
        raise WorkloadError("need branches >= 2 and length >= branches")
    if not 0.0 <= taken_fraction <= 1.0:
        raise WorkloadError("taken_fraction must be within [0, 1]")
    if not 0.5 <= taken_probability <= 1.0:
        raise WorkloadError("taken_probability must be within [0.5, 1]")
    rng = make_rng(seed, "micro-interference-field")
    num_taken = int(round(branches * taken_fraction))
    steady_taken = np.zeros(branches, dtype=bool)
    steady_taken[rng.permutation(branches)[:num_taken]] = True
    which = rng.integers(0, branches, size=length)
    pc = (base_pc + 4 * which).astype(np.uint64)
    p_taken = np.where(
        steady_taken[which], taken_probability, 1.0 - taken_probability
    )
    taken = rng.random(length) < p_taken
    return BranchTrace(
        pc=pc,
        taken=taken,
        target=pc + np.uint64(48),
        name=name,
    )


def biased_field_trace(
    branches: int,
    executions_each: int,
    taken_probability: float = 0.97,
    seed: int = 0,
    name: str = "micro-biased-field",
) -> BranchTrace:
    """Many independent highly-biased branches, round-robin: the
    capacity workload — accuracy is purely a question of how many
    branches the table can hold apart."""
    if branches < 1 or executions_each < 1:
        raise WorkloadError("need branches >= 1 and executions_each >= 1")
    rng = make_rng(seed, "micro-biased-field")
    pcs_row = (0x1000 + 4 * np.arange(branches)).astype(np.uint64)
    pc = np.tile(pcs_row, executions_each)
    taken = rng.random(len(pc)) < taken_probability
    return BranchTrace(
        pc=pc,
        taken=taken,
        target=pc + np.uint64(40),
        name=name,
    )
