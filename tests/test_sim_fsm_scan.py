"""Tests for the counter kernel: the C loop and its Python twin, each
against ``CounterBank`` and direct per-access execution."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.predictors.counters import (
    CounterBank,
    counter_init_state,
    counter_threshold,
    counter_transitions,
)
from repro.sim import native
from repro.sim.fsm_scan import run_automaton, segmented_counter_predictions


def sequential_run(transitions, inputs, idx, init_state):
    """Direct per-access execution: the semantics both paths must match."""
    states = np.empty(len(inputs), dtype=np.uint8)
    current = {}
    for i, (symbol, machine) in enumerate(zip(inputs, idx)):
        state = current.get(machine, init_state)
        states[i] = state
        current[machine] = transitions[symbol, state]
    return states


class TestSegmentedCounterPredictions:
    def test_matches_counter_bank(self):
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 16, size=500)
        taken = rng.random(500) < 0.6
        fast = segmented_counter_predictions(idx, taken)
        bank = CounterBank(16)
        slow = np.empty(500, dtype=bool)
        for i in range(500):
            slow[i] = bank.predict(int(idx[i]))
            bank.update(int(idx[i]), bool(taken[i]))
        assert np.array_equal(fast, slow)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            segmented_counter_predictions(
                np.array([0, 1]), np.array([True])
            )

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_counter_bank(self, seed, nbits):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        idx = rng.integers(0, 8, size=n)
        taken = rng.random(n) < 0.5
        fast = segmented_counter_predictions(idx, taken, counter_bits=nbits)
        bank = CounterBank(8, nbits=nbits)
        slow = np.empty(n, dtype=bool)
        for i in range(n):
            slow[i] = bank.predict(int(idx[i]))
            bank.update(int(idx[i]), bool(taken[i]))
        assert np.array_equal(fast, slow)


@contextlib.contextmanager
def python_twin():
    """Run the kernel's no-compiler path: the C loop's Python twin."""
    saved = native.library
    native.library = lambda: None
    try:
        yield
    finally:
        native.library = saved


@pytest.fixture
def native_lib():
    if native.library() is None:
        pytest.skip("no C compiler: the native kernel cannot be built")


def bank_predictions(idx, taken, nbits=2):
    bank = CounterBank(int(max(idx, default=0)) + 1, nbits=nbits)
    out = np.empty(len(idx), dtype=bool)
    for i, (index, outcome) in enumerate(zip(idx, taken)):
        out[i] = bank.predict(int(index))
        bank.update(int(index), bool(outcome))
    return out


def all_paths(idx, taken, nbits=2):
    """Predictions from the C kernel and from its Python twin."""
    fast = segmented_counter_predictions(idx, taken, counter_bits=nbits)
    with python_twin():
        twin = segmented_counter_predictions(idx, taken, counter_bits=nbits)
    return fast, twin


#: Adversarial streams: (idx, taken) pairs.
ADVERSARIAL = {
    "one-counter": (np.zeros(257, dtype=np.int64),
                    np.arange(257) % 3 != 0),
    "all-new-counters": (np.arange(300, dtype=np.int64),
                         np.arange(300) % 2 == 0),
    "descending-new": (np.arange(299, -1, -1, dtype=np.int64),
                       np.arange(300) % 5 == 0),
    "empty": (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)),
    "single": (np.array([7], dtype=np.int64), np.array([False])),
    "saturate-then-flip": (np.zeros(40, dtype=np.int64),
                           np.arange(40) >= 20),
}


class TestPythonTwin:
    """The no-compiler path on its own: runs on every host."""

    def run(self, transitions, inputs, idx, state):
        with python_twin():
            return run_automaton(
                transitions, np.asarray(inputs, dtype=np.uint8),
                np.asarray(idx, dtype=np.int64), state,
            )

    def test_empty(self):
        state = np.full(3, 2, dtype=np.uint8)
        out = self.run(counter_transitions(2), [], [], state)
        assert out.dtype == np.uint8 and len(out) == 0
        assert list(state) == [2, 2, 2]

    def test_single_counter(self):
        state = np.full(1, 2, dtype=np.uint8)
        out = self.run(counter_transitions(2), [1, 1, 0, 0, 0, 1],
                       [0] * 6, state)
        assert list(out) == [2, 3, 3, 2, 1, 0]
        assert list(state) == [1]

    def test_counters_are_independent(self):
        state = np.full(2, 2, dtype=np.uint8)
        out = self.run(counter_transitions(2), [0, 0, 1, 1], [0, 0, 1, 1],
                       state)
        # Counter 1 starts from its own state, untouched by counter 0.
        assert list(out) == [2, 1, 2, 3]
        assert list(state) == [0, 3]

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.booleans()),
            min_size=1,
            max_size=300,
        ),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_execution(self, accesses, nbits):
        idx = [a[0] for a in accesses]
        inputs = [int(a[1]) for a in accesses]
        transitions = counter_transitions(nbits)
        init = counter_init_state(nbits)
        state = np.full(6, init, dtype=np.uint8)
        out = self.run(transitions, inputs, idx, state)
        assert np.array_equal(
            out, sequential_run(transitions, inputs, idx, init)
        )
        assert np.array_equal(
            out >= counter_threshold(nbits), bank_predictions(idx, inputs, nbits)
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_four_input_automaton(self, seed):
        """Any automaton, not just counters, with its end state kept."""
        rng = np.random.default_rng(seed)
        transitions = rng.integers(0, 5, size=(4, 5)).astype(np.uint8)
        n = int(rng.integers(1, 400))
        inputs = rng.integers(0, 4, size=n)
        idx = rng.integers(0, 8, size=n)
        state = np.zeros(8, dtype=np.uint8)
        out = self.run(transitions, inputs, idx, state)
        assert np.array_equal(out, sequential_run(transitions, inputs, idx, 0))
        end = np.zeros(8, dtype=np.uint8)
        for symbol, machine in zip(inputs, idx):
            end[machine] = transitions[symbol, end[machine]]
        assert np.array_equal(state, end)


class TestNativeKernel:
    @pytest.mark.parametrize("nbits", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_streams(self, native_lib, name, nbits):
        idx, taken = ADVERSARIAL[name]
        fast, twin = all_paths(idx, taken, nbits)
        expected = bank_predictions(idx, taken, nbits)
        assert fast.dtype == bool and len(fast) == len(idx)
        assert twin.dtype == bool and len(twin) == len(idx)
        assert np.array_equal(fast, expected)
        assert np.array_equal(twin, expected)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.booleans()),
            min_size=1,
            max_size=300,
        ),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_counter_bank_and_scan(self, accesses, nbits):
        """C loop, Python twin and ``CounterBank`` agree."""
        if native.library() is None:
            pytest.skip("no C compiler")
        idx = np.array([a[0] for a in accesses], dtype=np.int64)
        taken = np.array([a[1] for a in accesses], dtype=bool)
        fast, twin = all_paths(idx, taken, nbits)
        expected = bank_predictions(idx, taken, nbits)
        assert np.array_equal(fast, expected)
        assert np.array_equal(twin, expected)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_four_input_chooser_table(self, seed):
        """The tournament's chooser: a 4-input automaton, not a counter."""
        if native.library() is None:
            pytest.skip("no C compiler")
        states = 4
        identity = np.arange(states, dtype=np.uint8)
        decrement = np.maximum(identity.astype(int) - 1, 0).astype(np.uint8)
        increment = np.minimum(identity + 1, states - 1).astype(np.uint8)
        transitions = np.stack([identity, decrement, increment, identity])
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 400))
        inputs = rng.integers(0, 4, size=n).astype(np.uint8)
        idx = rng.integers(0, 8, size=n)
        state = np.full(8, 2, dtype=np.uint8)
        fast = run_automaton(transitions, inputs, idx, state)
        with python_twin():
            twin_state = np.full(8, 2, dtype=np.uint8)
            twin = run_automaton(transitions, inputs, idx, twin_state)
        expected = sequential_run(transitions, inputs, idx, 2)
        assert np.array_equal(fast, expected)
        assert np.array_equal(twin, expected)
        assert np.array_equal(state, twin_state)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_split_stream_carries_state(self, seed, nbits):
        """Two runs over the halves of a stream, state carried across,
        equal one run over the whole of it, on both paths."""
        if native.library() is None:
            pytest.skip("no C compiler")
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 300))
        cut = int(rng.integers(0, n + 1))
        idx = rng.integers(0, 12, size=n)
        inputs = (rng.random(n) < 0.6).astype(np.uint8)
        transitions = counter_transitions(nbits)
        init = counter_init_state(nbits)
        for context in (contextlib.nullcontext, python_twin):
            with context():
                whole_state = np.full(12, init, dtype=np.uint8)
                whole = run_automaton(transitions, inputs, idx, whole_state)
                state = np.full(12, init, dtype=np.uint8)
                first = run_automaton(
                    transitions, inputs[:cut], idx[:cut], state
                )
                second = run_automaton(
                    transitions, inputs[cut:], idx[cut:], state
                )
            assert np.array_equal(np.concatenate([first, second]), whole)
            assert np.array_equal(state, whole_state)

    def test_sparse_indices_match_bank(self, native_lib):
        """Indices far beyond the stream length are renumbered, not
        given a table of ``max + 1`` counters."""
        idx = np.array([0, 1 << 40, 0, 1 << 40, 5, 1 << 40])
        taken = np.array([False, False, False, True, True, False])
        fast, twin = all_paths(idx, taken)
        expected = bank_predictions(np.unique(idx, return_inverse=True)[1],
                                    taken)
        assert np.array_equal(fast, expected)
        assert np.array_equal(twin, expected)


class _NoC:
    """A stand-in library that fails any call into C."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} reached C")


class TestKernelPreconditions:
    """Every bound the C loop trusts is checked before it is called."""

    @pytest.fixture(autouse=True)
    def _no_c(self, monkeypatch):
        monkeypatch.setattr(native, "library", _NoC)

    T2 = counter_transitions(2)

    @pytest.mark.parametrize(
        "transitions,inputs,idx,state",
        [
            (T2, [1, 0], [0, -1], np.zeros(4, np.uint8)),
            (T2, [1, 0], [0, 4], np.zeros(4, np.uint8)),
            (T2, [1, 2], [0, 1], np.zeros(4, np.uint8)),
            (T2, [1, -1], [0, 1], np.zeros(4, np.uint8)),
            (T2, [1, 0], [0, 1], np.array([0, 4], np.uint8)),
            (T2, [1, 0, 1], [0, 1], np.zeros(4, np.uint8)),
            (T2, [1, 0], [0, 1], np.zeros(4, np.int64)),
            (T2, [1, 0], [0, 1], np.zeros((2, 2), np.uint8)),
            (T2, [1, 0], [0, 1], np.zeros(8, np.uint8)[::2]),
            (T2, [1, 0], [0.0, 1.0], np.zeros(4, np.uint8)),
            (T2, [0.5, 0], [0, 1], np.zeros(4, np.uint8)),
            (T2, [1, 0], [[0, 1]], np.zeros(4, np.uint8)),
            (np.array([[1, 2, 3, 4]], np.uint8), [0], [0],
             np.zeros(1, np.uint8)),
            (np.array([1, 2, 3], np.uint8), [0], [0], np.zeros(1, np.uint8)),
            (np.zeros((0, 4), np.uint8), [], [], np.zeros(1, np.uint8)),
        ],
        ids=[
            "negative-index", "index-past-table", "input-past-alphabet",
            "negative-input", "state-past-automaton", "length-mismatch",
            "state-not-uint8", "state-2d", "state-strided", "float-index",
            "float-input", "index-2d", "transition-leaves-states",
            "transitions-1d", "no-inputs",
        ],
    )
    def test_rejected_before_c(self, transitions, inputs, idx, state):
        with pytest.raises(ConfigurationError):
            run_automaton(transitions, np.asarray(inputs), np.asarray(idx),
                          state)

    def test_read_only_state_rejected(self):
        state = np.zeros(4, np.uint8)
        state.flags.writeable = False
        with pytest.raises(ConfigurationError):
            run_automaton(self.T2, np.array([1]), np.array([0]), state)

    @pytest.mark.parametrize("init_state", [4, 99])
    def test_init_state_out_of_range(self, init_state):
        with pytest.raises(ConfigurationError):
            segmented_counter_predictions(
                np.array([0, 1]), np.array([True, False]),
                init_state=init_state,
            )

    def test_negative_index_through_predictions(self):
        with pytest.raises(ConfigurationError):
            segmented_counter_predictions(
                np.array([0, -3]), np.array([True, False])
            )

    def test_shape_mismatch_through_predictions(self):
        with pytest.raises(ConfigurationError):
            segmented_counter_predictions(
                np.array([0, 1]), np.array([True])
            )

    def test_empty_stream_never_calls_c(self):
        out = segmented_counter_predictions(
            np.zeros(0, np.int64), np.zeros(0, bool)
        )
        assert out.dtype == bool and len(out) == 0
