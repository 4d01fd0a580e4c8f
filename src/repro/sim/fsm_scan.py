"""Segmented automaton scan — the core numpy trick.

Problem: simulate T saturating-counter updates where access t trains
counter ``idx[t]`` with outcome ``taken[t]``, and report the counter's
*prediction* (its state before training) at every access. The state
dependency chain within one counter is sequential, so naive
vectorization is impossible; a Python loop over 10^6+ accesses times
~80 table shapes per figure is hopeless.

Observation: each access applies one of two *transition functions* to a
4-state machine, and function composition is associative. Sorting
accesses by counter index groups each counter's accesses contiguously
(stably, so time order is preserved within a group); an exclusive
segmented prefix *composition* over the per-access transition functions
then yields, for every access, the map from the counter's initial state
to its state just before that access. A Hillis–Steele scan does this in
``log2(T)`` passes of pure numpy fancy-indexing over a ``(T, S)`` table
of composed functions — O(T·S·log T) byte operations, no Python loop
over accesses.

The same scan works for *any* small finite-state machine driven by a
small input alphabet (agree counters, chooser counters, 3-bit counters),
which is why the transition tables live in
:mod:`repro.predictors.counters` and are passed in explicitly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.spans import span
from repro.predictors.counters import (
    counter_init_state,
    counter_outputs,
    counter_transitions,
)


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
        return _scan_automaton(transitions, inputs, segment_ids, init_state)


def _scan_automaton(
    transitions: np.ndarray,
    inputs: np.ndarray,
    segment_ids: np.ndarray,
    init_state: int,
) -> np.ndarray:
    transitions = np.asarray(transitions, dtype=np.uint8)
    if transitions.ndim != 2:
        raise ConfigurationError("transitions must be 2-D (inputs x states)")
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
    # initial state; segment-first steps see the initial state itself.
    states_before = np.full(total, init_state, dtype=np.uint8)
    if total > 1:
        continues = segment_ids[1:] == segment_ids[:-1]
        prior = comp[:-1, init_state]
        states_before[1:] = np.where(continues, prior, init_state)
    return states_before


def segmented_counter_predictions(
    idx: np.ndarray,
    taken: np.ndarray,
    counter_bits: int = 2,
    init_state: int = -1,
) -> np.ndarray:
    """Predictions of a table of saturating counters, vectorized.

    ``idx[t]`` is the counter each access trains; ``taken[t]`` the
    outcome. Returns the per-access predictions (bool) a trace-driven
    simulation would produce. Equivalent to driving
    :class:`repro.predictors.counters.CounterBank` access by access.
    """
    # ``fsm_scan`` nests inside this span, so ``counter_update`` self
    # time is the sort/gather before the scan and the scatter after it.
    with span("counter_update"):
        idx = np.asarray(idx)
        taken = np.asarray(taken, dtype=bool)
        if idx.shape != taken.shape:
            raise ConfigurationError("idx and taken must have the same shape")
        if init_state < 0:
            init_state = counter_init_state(counter_bits)

        order = np.argsort(idx, kind="stable")
        sorted_idx = idx[order]
        sorted_taken = taken[order]
        states = scan_automaton(
            transitions=counter_transitions(counter_bits),
            inputs=sorted_taken.astype(np.uint8),
            segment_ids=sorted_idx,
            init_state=init_state,
        )
        outputs = counter_outputs(counter_bits)
        predictions = np.empty(len(idx), dtype=bool)
        predictions[order] = outputs[states]
    return predictions
