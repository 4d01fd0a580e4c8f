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

Where the C library cannot be built (no compiler), the same loop runs
in Python: :func:`repro.predictors.counters.drive_automata` transcribes
the C statement for statement, after the same checks, so both paths
give identical results and carry state identically.
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
    drive_automata,
)

#: A stream whose largest index exceeds this many counters per access
#: is renumbered densely before a state array is sized for it.
_SPARSE_FACTOR = 4
_DENSE_FLOOR = 1 << 20


def _as_indices(idx: np.ndarray, what: str = "counter indices") -> np.ndarray:
    """``idx`` as a contiguous, non-negative int64 vector."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or idx.dtype.kind not in "biu":
        raise ConfigurationError(
            f"{what} must be a 1-D integer array, got "
            f"{idx.ndim}-D {idx.dtype}"
        )
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    if len(idx) and int(idx.min()) < 0:
        raise ConfigurationError(f"{what} must be >= 0")
    return idx


def _check_table(table: np.ndarray, dtype: type, name: str) -> None:
    """Raise unless ``table`` is a writeable, contiguous 1-D array of
    ``dtype``: a caller-owned table a C loop updates in place."""
    if not (
        isinstance(table, np.ndarray)
        and table.dtype == dtype
        and table.ndim == 1
        and table.flags.c_contiguous
        and table.flags.writeable
    ):
        raise ConfigurationError(
            f"{name} must be a writeable, contiguous 1-D "
            f"{np.dtype(dtype).name} array"
        )


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
    _check_table(state, np.uint8, "state")
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
    with span("fsm_scan"):
        if lib is None:
            drive_automata(idx, inputs, transitions, state, before)
            return before
        lib.repro_automaton(
            idx.ctypes.data, inputs.ctypes.data, len(idx),
            transitions.ctypes.data, n_states,
            state.ctypes.data, before.ctypes.data,
        )
    counter("sim.native_calls").inc()
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
