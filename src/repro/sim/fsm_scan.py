"""Counter-table kernel: the second level of every predictor.

Problem: simulate T saturating-counter updates where access t trains
counter ``idx[t]`` with outcome ``taken[t]``, and report the counter's
*prediction* (its state before training) at every access. The state
dependency chain within one counter is sequential.

:func:`run_automaton` is the one kernel. It walks the stream once, in
C (:mod:`repro.sim.native`): read ``state[idx[t]]``, then replace it
with ``transitions[inputs[t], state]``. That is O(T) with no sort. The
transition table is an argument, so the same loop runs 1/2/3-bit
counters, the agree stream and the tournament chooser; the tables live
in :mod:`repro.predictors.counters`. The counter state array belongs
to the caller and is updated in place, so a stream may be fed in
chunks with the state carried across.

Every bound the C loop relies on is checked here, in numpy, before it
is called: a bad index, input symbol or state raises
:class:`~repro.errors.ConfigurationError` and never reaches C.

Where the C library cannot be built (no compiler), the kernel runs a
segmented automaton scan instead, with the same results: sort the
accesses by counter (stably, so time order holds within a counter),
then an exclusive segmented prefix *composition* of the per-access
transition functions gives each access the map from its counter's
initial state to its state before the access. A Hillis–Steele scan
does this in ``log2(T)`` numpy passes over a ``(T, S)`` table, O(T·S·
log T) work. :func:`scan_automaton` exposes that scan; the tests use it
as the differential oracle for the C loop.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import counter
from repro.obs.spans import span
from repro.predictors.counters import (
    counter_init_state,
    counter_threshold,
    counter_transitions,
)

#: A stream whose largest index exceeds this many counters per access
#: is renumbered densely before a state array is sized for it.
_SPARSE_FACTOR = 4
_DENSE_FLOOR = 1 << 20


def scan_automaton(
    transitions: np.ndarray,
    inputs: np.ndarray,
    segment_ids: np.ndarray,
    init_state: int,
) -> np.ndarray:
    """States *before* each step of per-segment automaton executions.

    Parameters
    ----------
    transitions:
        ``(n_inputs, n_states)`` table; ``transitions[a, s]`` is the
        state after reading input ``a`` in state ``s``.
    inputs:
        ``(T,)`` input symbols, one per step.
    segment_ids:
        ``(T,)`` non-decreasing array; equal ids delimit one automaton
        instance executing its steps in order. (Non-decreasing is
        required so "same id at distance d" implies one segment.)
    init_state:
        State every automaton starts in.

    Returns
    -------
    ``(T,)`` uint8 array: the automaton's state immediately before
    consuming each input (i.e. the state a predictor would read).
    """
    with span("fsm_scan"):
        transitions = np.asarray(transitions, dtype=np.uint8)
        if transitions.ndim != 2:
            raise ConfigurationError(
                "transitions must be 2-D (inputs x states)"
            )
        n_states = transitions.shape[1]
        if not 0 <= init_state < n_states:
            raise ConfigurationError(
                f"init_state {init_state} out of range for {n_states} states"
            )
        inputs = np.asarray(inputs)
        segment_ids = np.asarray(segment_ids)
        total = len(inputs)
        if len(segment_ids) != total:
            raise ConfigurationError("inputs and segment_ids length mismatch")
        if total == 0:
            return np.empty(0, dtype=np.uint8)
        if np.any(segment_ids[1:] < segment_ids[:-1]):
            raise ConfigurationError("segment_ids must be non-decreasing")
        init = np.full(total, init_state, dtype=np.uint8)
        return _segmented_scan(transitions, inputs, segment_ids, init)


def _segmented_scan(
    transitions: np.ndarray,
    inputs: np.ndarray,
    segment_ids: np.ndarray,
    init: np.ndarray,
) -> np.ndarray:
    """The scan over sorted, validated steps; ``init[t]`` is the state
    step t's segment starts in (equal along a segment)."""
    total = len(inputs)
    # Per-step function table: funcs[t, s] = state after step t given
    # state s before it.
    funcs = transitions[inputs]  # (T, n_states)

    # Inclusive segmented prefix composition (Hillis–Steele): after
    # convergence comp[t] = f_t . f_{t-1} . ... . f_{segment start}.
    comp = funcs.copy()
    distance = 1
    while distance < total:
        same_segment = segment_ids[distance:] == segment_ids[:-distance]
        # compose: (comp[t] . comp[t-d])[s] = comp[t][ comp[t-d][s] ]
        merged = np.take_along_axis(
            comp[distance:], comp[:-distance], axis=1
        )
        comp[distance:] = np.where(
            same_segment[:, None], merged, comp[distance:]
        )
        distance *= 2

    # Exclusive shift: state before step t applies comp[t-1] to the
    # segment's initial state; segment-first steps see that state itself.
    states_before = init.copy()
    if total > 1:
        continues = segment_ids[1:] == segment_ids[:-1]
        prior = np.take_along_axis(comp[:-1], init[1:, None], axis=1)[:, 0]
        states_before[1:] = np.where(continues, prior, init[1:])
    return states_before


def stable_order(idx: np.ndarray) -> np.ndarray:
    """``np.argsort(idx, kind="stable")`` for a non-negative stream.

    Below 2^16 the indices are sorted as uint16, where numpy's stable
    sort is a radix sort: the same permutation, several times faster.
    """
    if len(idx) and int(idx.max()) < 1 << 16:
        return np.argsort(idx.astype(np.uint16), kind="stable")
    return np.argsort(idx, kind="stable")


def _as_indices(idx: np.ndarray) -> np.ndarray:
    """``idx`` as a contiguous, non-negative int64 vector."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or idx.dtype.kind not in "biu":
        raise ConfigurationError(
            f"counter indices must be a 1-D integer array, got "
            f"{idx.ndim}-D {idx.dtype}"
        )
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    if len(idx) and int(idx.min()) < 0:
        raise ConfigurationError("counter indices must be >= 0")
    return idx


def run_automaton(
    transitions: np.ndarray,
    inputs: np.ndarray,
    idx: np.ndarray,
    state: np.ndarray,
) -> np.ndarray:
    """Drive the table of automata ``state`` over an access stream.

    Access t reads automaton ``idx[t]``: its state is reported, then
    replaced by ``transitions[inputs[t], state]``. ``state`` (uint8,
    one entry per automaton, every ``idx`` below its length) is
    updated in place, so running a stream in two pieces equals one
    run. Returns the ``(T,)`` uint8 states before each access.
    """
    transitions = np.ascontiguousarray(transitions, dtype=np.uint8)
    if transitions.ndim != 2 or 0 in transitions.shape:
        raise ConfigurationError("transitions must be 2-D (inputs x states)")
    n_inputs, n_states = transitions.shape
    if int(transitions.max()) >= n_states:
        raise ConfigurationError(
            f"transition table leads outside its {n_states} states"
        )
    idx = _as_indices(idx)
    inputs = np.asarray(inputs)
    if inputs.shape != idx.shape:
        raise ConfigurationError("inputs and idx length mismatch")
    if inputs.dtype.kind not in "biu":
        raise ConfigurationError(f"inputs must be integers, got {inputs.dtype}")
    if len(inputs) and not 0 <= int(inputs.min()) <= int(inputs.max()) < n_inputs:
        raise ConfigurationError(
            f"input symbols must lie in [0, {n_inputs})"
        )
    inputs = np.ascontiguousarray(inputs, dtype=np.uint8)
    if not (
        isinstance(state, np.ndarray)
        and state.dtype == np.uint8
        and state.ndim == 1
        and state.flags.c_contiguous
        and state.flags.writeable
    ):
        raise ConfigurationError(
            "state must be a writeable, contiguous 1-D uint8 array"
        )
    if len(idx) and int(idx.max()) >= len(state):
        raise ConfigurationError(
            f"counter index {int(idx.max())} outside a state table of "
            f"{len(state)}"
        )
    if len(state) and int(state.max()) >= n_states:
        raise ConfigurationError(
            f"state table holds a state outside [0, {n_states})"
        )

    before = np.empty(len(idx), dtype=np.uint8)
    if len(idx) == 0:
        return before
    # Imported on first use, so a process that never simulates (``repro
    # generate``) does not even load the loader.
    from repro.sim import native

    lib = native.library()
    if lib is None:
        return _run_scan(transitions, inputs, idx, state)
    with span("fsm_scan"):
        lib.repro_automaton(
            idx.ctypes.data, inputs.ctypes.data, len(idx),
            transitions.ctypes.data, n_states,
            state.ctypes.data, before.ctypes.data,
        )
    counter("sim.native_calls").inc()
    return before


def _run_scan(
    transitions: np.ndarray,
    inputs: np.ndarray,
    idx: np.ndarray,
    state: np.ndarray,
) -> np.ndarray:
    """:func:`run_automaton` by sort and segmented scan (no C)."""
    order = stable_order(idx)
    sorted_idx = idx[order]
    sorted_inputs = inputs[order]
    with span("fsm_scan"):
        sorted_before = _segmented_scan(
            transitions, sorted_inputs, sorted_idx, state[sorted_idx]
        )
    # Each automaton ends one transition past its last access.
    last = np.empty(len(idx), dtype=bool)
    last[:-1] = sorted_idx[1:] != sorted_idx[:-1]
    last[-1] = True
    state[sorted_idx[last]] = transitions[
        sorted_inputs[last], sorted_before[last]
    ]
    before = np.empty(len(idx), dtype=np.uint8)
    before[order] = sorted_before
    return before


def segmented_counter_predictions(
    idx: np.ndarray,
    taken: np.ndarray,
    counter_bits: int = 2,
    init_state: int = -1,
) -> np.ndarray:
    """Predictions of a table of saturating counters.

    ``idx[t]`` is the counter each access trains; ``taken[t]`` the
    outcome. Returns the per-access predictions (bool) a trace-driven
    simulation would produce. Equivalent to driving
    :class:`repro.predictors.counters.CounterBank` access by access.
    Every counter starts in ``init_state`` (default weakly taken); the
    table is sized ``idx.max() + 1``, or to the distinct indices when
    the stream is much sparser than that.
    """
    # ``fsm_scan`` nests inside this span, so ``counter_update`` self
    # time is the checks and table set-up around the kernel.
    with span("counter_update"):
        idx = np.asarray(idx)
        taken = np.asarray(taken, dtype=bool)
        if idx.shape != taken.shape:
            raise ConfigurationError("idx and taken must have the same shape")
        transitions = counter_transitions(counter_bits)
        n_states = transitions.shape[1]
        if init_state < 0:
            init_state = counter_init_state(counter_bits)
        if not 0 <= init_state < n_states:
            raise ConfigurationError(
                f"init_state {init_state} out of range for {n_states} states"
            )
        idx = _as_indices(idx)
        if len(idx) == 0:
            return np.empty(0, dtype=bool)
        size = int(idx.max()) + 1
        if size > max(_SPARSE_FACTOR * len(idx), _DENSE_FLOOR):
            _, idx = np.unique(idx, return_inverse=True)
            size = int(idx.max()) + 1
        state = np.full(size, init_state, dtype=np.uint8)
        before = run_automaton(transitions, taken.view(np.uint8), idx, state)
        # The counter's output table, as one comparison.
        return before >= counter_threshold(counter_bits)
