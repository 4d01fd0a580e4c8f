"""Tests for the counter kernel: the C loop, its numpy-scan fallback,
and the scan itself, each against direct per-access execution."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.predictors.counters import (
    CounterBank,
    counter_init_state,
    counter_transitions,
)
from repro.sim import native
from repro.sim.fsm_scan import (
    run_automaton,
    scan_automaton,
    segmented_counter_predictions,
    stable_order,
)


def sequential_scan(transitions, inputs, segment_ids, init_state):
    """Direct per-step execution: the semantics the scan must match."""
    states = np.empty(len(inputs), dtype=np.uint8)
    current = {}
    for i, (symbol, segment) in enumerate(zip(inputs, segment_ids)):
        state = current.get(segment, init_state)
        states[i] = state
        current[segment] = transitions[symbol, state]
    return states


class TestScanAutomaton:
    def test_empty(self):
        out = scan_automaton(
            counter_transitions(2), np.array([]), np.array([]), 2
        )
        assert len(out) == 0

    def test_single_segment_counter(self):
        transitions = counter_transitions(2)
        inputs = np.array([1, 1, 0, 0, 0, 1], dtype=np.uint8)
        segments = np.zeros(6, dtype=np.int64)
        out = scan_automaton(transitions, inputs, segments, init_state=2)
        assert list(out) == [2, 3, 3, 2, 1, 0]

    def test_segments_are_independent(self):
        transitions = counter_transitions(2)
        inputs = np.array([0, 0, 1, 1], dtype=np.uint8)
        segments = np.array([0, 0, 1, 1])
        out = scan_automaton(transitions, inputs, segments, init_state=2)
        # Segment 1 restarts from the initial state.
        assert list(out) == [2, 1, 2, 3]

    def test_decreasing_segments_rejected(self):
        with pytest.raises(ConfigurationError):
            scan_automaton(
                counter_transitions(2),
                np.array([1, 1]),
                np.array([1, 0]),
                2,
            )

    def test_bad_init_state_rejected(self):
        with pytest.raises(ConfigurationError):
            scan_automaton(
                counter_transitions(2), np.array([1]), np.array([0]), 9
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            scan_automaton(
                counter_transitions(2),
                np.array([1, 0]),
                np.array([0]),
                2,
            )

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
        """Property: the log-time scan equals direct execution for any
        access pattern and counter width."""
        segments = np.array(sorted(a[0] for a in accesses))
        inputs = np.array([int(a[1]) for a in accesses], dtype=np.uint8)
        transitions = counter_transitions(nbits)
        init = counter_init_state(nbits)
        fast = scan_automaton(transitions, inputs, segments, init)
        slow = sequential_scan(transitions, inputs, segments, init)
        assert np.array_equal(fast, slow)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_four_input_automaton(self, seed):
        """The scan works for any automaton, not just counters."""
        rng = np.random.default_rng(seed)
        transitions = rng.integers(0, 5, size=(4, 5)).astype(np.uint8)
        n = int(rng.integers(1, 400))
        inputs = rng.integers(0, 4, size=n).astype(np.uint8)
        segments = np.sort(rng.integers(0, 8, size=n))
        fast = scan_automaton(transitions, inputs, segments, init_state=0)
        slow = sequential_scan(transitions, inputs, segments, 0)
        assert np.array_equal(fast, slow)


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
def numpy_fallback():
    """Run the kernel's no-compiler path: the sort plus segmented scan."""
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
    """Predictions from the C kernel and from the numpy fallback."""
    fast = segmented_counter_predictions(idx, taken, counter_bits=nbits)
    with numpy_fallback():
        scanned = segmented_counter_predictions(
            idx, taken, counter_bits=nbits
        )
    return fast, scanned


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


class TestNativeKernel:
    @pytest.mark.parametrize("nbits", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_streams(self, native_lib, name, nbits):
        idx, taken = ADVERSARIAL[name]
        fast, scanned = all_paths(idx, taken, nbits)
        expected = bank_predictions(idx, taken, nbits)
        assert fast.dtype == bool and len(fast) == len(idx)
        assert np.array_equal(fast, expected)
        assert np.array_equal(scanned, expected)

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
        if native.library() is None:
            pytest.skip("no C compiler")
        idx = np.array([a[0] for a in accesses], dtype=np.int64)
        taken = np.array([a[1] for a in accesses], dtype=bool)
        fast, scanned = all_paths(idx, taken, nbits)
        expected = bank_predictions(idx, taken, nbits)
        assert np.array_equal(fast, expected)
        assert np.array_equal(scanned, expected)

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
        with numpy_fallback():
            fallback_state = np.full(8, 2, dtype=np.uint8)
            scanned = run_automaton(transitions, inputs, idx, fallback_state)
        order = np.argsort(idx, kind="stable")
        oracle = np.empty(n, dtype=np.uint8)
        oracle[order] = scan_automaton(
            transitions, inputs[order], idx[order], init_state=2
        )
        expected = sequential_scan(transitions, inputs, idx, 2)
        assert np.array_equal(fast, expected)
        assert np.array_equal(scanned, expected)
        assert np.array_equal(oracle, expected)
        assert np.array_equal(state, fallback_state)

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
        for context in (contextlib.nullcontext, numpy_fallback):
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
        fast, scanned = all_paths(idx, taken)
        expected = bank_predictions(np.unique(idx, return_inverse=True)[1],
                                    taken)
        assert np.array_equal(fast, expected)
        assert np.array_equal(scanned, expected)


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


class TestStableOrder:
    @pytest.mark.parametrize("top", [0, 2**15 - 1, 2**16 - 1])
    def test_radix_order_equals_int64_stable_argsort(self, top):
        rng = np.random.default_rng(top)
        idx = rng.integers(0, top + 1, size=5000)
        idx[rng.integers(0, 5000)] = top
        expected = np.argsort(idx.astype(np.int64), kind="stable")
        assert np.array_equal(stable_order(idx), expected)

    def test_wide_indices_fall_back_to_int64_sort(self):
        idx = np.array([1 << 16, 3, 1 << 16, 0])
        assert list(stable_order(idx)) == [3, 1, 0, 2]
