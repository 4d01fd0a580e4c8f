"""Saturating-counter state machines.

The second level of every predictor in the paper is a table of n-bit
saturating counters (n = 2 throughout the paper's evaluation). The
counter is defined *once* here, in three forms that are guaranteed
consistent:

* :class:`SaturatingCounter` — a single scalar counter;
* :class:`CounterBank` — a numpy-backed array of counters addressed by
  index, used by the scalar reference predictors;
* :func:`counter_transitions` / :func:`counter_outputs` — the explicit
  automaton tables consumed by the counter kernel
  (:mod:`repro.sim.fsm_scan`).

:func:`drive_automata` is that kernel's loop in Python: a statement-for-
statement twin of ``repro_automaton`` in ``sim/kernels.c``, run when the
C library cannot be built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_nonnegative_int, check_positive_int


def counter_states(nbits: int) -> int:
    """Number of states of an ``nbits`` saturating counter."""
    check_positive_int(nbits, "counter bits")
    return 1 << nbits


def counter_threshold(nbits: int) -> int:
    """Smallest state predicting taken (the MSB-set boundary)."""
    return 1 << (nbits - 1)


def counter_init_state(nbits: int = 2) -> int:
    """Default initial state: weakly taken.

    Branches are taken ~60% of the time, so initializing at the weakly
    taken boundary minimizes cold-start mispredictions. The paper does
    not specify an initial state; what matters for reproduction is that
    the scalar and vectorized engines share one.
    """
    return counter_threshold(nbits)


def counter_transitions(nbits: int = 2) -> np.ndarray:
    """Transition table ``t[input, state] -> next state``.

    ``input`` is 0 (not taken: decrement, saturating at 0) or 1 (taken:
    increment, saturating at the top state).
    """
    states = counter_states(nbits)
    table = np.empty((2, states), dtype=np.uint8)
    table[0] = np.maximum(np.arange(states) - 1, 0)
    table[1] = np.minimum(np.arange(states) + 1, states - 1)
    return table


def counter_outputs(nbits: int = 2) -> np.ndarray:
    """Output table ``o[state] -> predict taken?`` (bool)."""
    states = counter_states(nbits)
    return np.arange(states) >= counter_threshold(nbits)


@dataclass
class SaturatingCounter:
    """One n-bit saturating up/down counter."""

    nbits: int = 2
    state: int = -1  # -1 means "use the default initial state"

    def __post_init__(self) -> None:
        check_positive_int(self.nbits, "counter bits")
        if self.state < 0:
            self.state = counter_init_state(self.nbits)
        if not 0 <= self.state < counter_states(self.nbits):
            raise ValueError(
                f"state {self.state} out of range for {self.nbits}-bit counter"
            )

    def predict(self) -> bool:
        """Current prediction (True = taken)."""
        return self.state >= counter_threshold(self.nbits)

    def update(self, taken: bool) -> None:
        """Train toward the observed outcome."""
        if taken:
            self.state = min(self.state + 1, counter_states(self.nbits) - 1)
        else:
            self.state = max(self.state - 1, 0)


class CounterBank:
    """An indexed array of saturating counters.

    This is the "predictor table" of the paper's Figure 1, flattened:
    callers compute the (row, column) index, the bank holds the states.
    """

    def __init__(self, size: int, nbits: int = 2, init_state: int = -1):
        check_positive_int(size, "counter bank size")
        self.size = size
        self.nbits = check_positive_int(nbits, "counter bits")
        if init_state < 0:
            init_state = counter_init_state(nbits)
        self._init_state = init_state
        self._top = counter_states(nbits) - 1
        self._threshold = counter_threshold(nbits)
        if not 0 <= init_state <= self._top:
            raise ValueError(
                f"init_state {init_state} out of range for {nbits}-bit counter"
            )
        self.states = np.full(size, init_state, dtype=np.uint8)

    def predict(self, index: int) -> bool:
        """Prediction of counter ``index``."""
        check_nonnegative_int(index, "counter index")
        return bool(self.states[index] >= self._threshold)

    def update(self, index: int, taken: bool) -> None:
        """Train counter ``index`` toward ``taken``."""
        state = int(self.states[index])
        if taken:
            if state < self._top:
                self.states[index] = state + 1
        elif state > 0:
            self.states[index] = state - 1

    def reset(self) -> None:
        """Return every counter to the initial state."""
        self.states[:] = self._init_state

    @property
    def storage_bits(self) -> int:
        """Bits of state this bank implements (for budget comparisons)."""
        return self.size * self.nbits


def drive_automata(
    idx: np.ndarray,
    inputs: np.ndarray,
    transitions: np.ndarray,
    state: np.ndarray,
    before: np.ndarray,
) -> None:
    """Python twin of ``repro_automaton`` (``sim/kernels.c``).

    Access t reads machine ``idx[t]``: its state goes to ``before[t]``,
    then becomes ``transitions[inputs[t], state]``. ``state`` is the
    caller's table and is updated in place. Trusts its arguments as the
    C loop does; :func:`repro.sim.fsm_scan.run_automaton` checks them.
    """
    table = transitions.tolist()
    states = state.tolist()
    out = [0] * len(idx)
    for t, (i, symbol) in enumerate(zip(idx.tolist(), inputs.tolist())):
        s = states[i]
        out[t] = s
        states[i] = table[symbol][s]
    state[:] = states
    before[:] = out
