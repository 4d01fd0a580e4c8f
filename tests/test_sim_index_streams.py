"""Structural property tests on the vectorized index/history streams.

The prediction-level equivalence tests (test_sim_equivalence) catch
end-to-end mismatches; these tests pin down the intermediate streams
directly, which localizes failures and documents the indexing
contracts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors import make_predictor_spec
from repro.predictors.bht import BranchHistoryTable, PerfectHistoryTable
from repro.sim.vectorized import (
    bht_miss_stream,
    global_history_stream,
    index_stream,
    path_register_stream,
    per_address_history_stream,
)
from repro.traces import BranchTrace


def random_trace(seed, length=300, npcs=10):
    rng = np.random.default_rng(seed)
    pc = (0x2000 + rng.integers(0, npcs, size=length) * 4).astype(np.uint64)
    taken = rng.random(length) < 0.6
    target = pc + np.uint64(32)
    return BranchTrace(pc=pc, taken=taken, target=target)


BOUNDED_SPECS = [
    make_predictor_spec("bimodal", cols=32),
    make_predictor_spec("gag", rows=32),
    make_predictor_spec("gas", rows=8, cols=4),
    make_predictor_spec("gshare", rows=16, cols=2),
    make_predictor_spec("path", rows=16, cols=2),
    make_predictor_spec("pas", rows=8, cols=4),
    make_predictor_spec("pas", rows=8, cols=4, bht_entries=8, bht_assoc=2),
    make_predictor_spec("sas", rows=8, cols=4, bht_entries=16, bht_assoc=1),
    make_predictor_spec("agree", rows=32),
]


class TestIndexBounds:
    @pytest.mark.parametrize(
        "spec", BOUNDED_SPECS, ids=[s.describe() for s in BOUNDED_SPECS]
    )
    def test_indices_within_table(self, spec):
        trace = random_trace(3)
        indices = index_stream(spec, trace)
        assert indices.min() >= 0
        assert indices.max() < spec.num_counters

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_property_bounds_hold_for_any_trace(self, seed):
        trace = random_trace(seed, length=120, npcs=30)
        for spec in (BOUNDED_SPECS[2], BOUNDED_SPECS[3], BOUNDED_SPECS[6]):
            indices = index_stream(spec, trace)
            assert indices.max() < spec.num_counters


class TestGlobalHistoryStream:
    def test_matches_register_semantics(self):
        taken = np.array([True, False, True, True])
        gh = global_history_stream(taken, bits=3)
        # Before access 0: empty history.
        assert gh[0] == 0
        # Before access 3: outcomes [T,F,T] with newest (T) in bit 0.
        assert gh[3] == 0b101

    @given(
        st.lists(st.booleans(), max_size=80),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_one_pass_per_bit(self, outcomes, bits):
        """The doubling construction equals ORing in one outcome per
        register bit, for every width and length."""
        taken = np.array(outcomes, dtype=bool)
        expected = np.zeros(len(taken), dtype=np.int64)
        for age in range(1, bits + 1):
            expected[age:] |= taken[:-age].astype(np.int64) << (age - 1)
        assert np.array_equal(global_history_stream(taken, bits), expected)

    def test_bimodal_independent_of_outcomes(self):
        trace = random_trace(5)
        flipped = BranchTrace(
            pc=trace.pc, taken=~trace.taken, target=trace.target
        )
        spec = make_predictor_spec("bimodal", cols=16)
        assert np.array_equal(
            index_stream(spec, trace), index_stream(spec, flipped)
        )

    def test_gshare_one_row_degenerates_to_bimodal(self):
        """gshare with 2^0 rows has no history contribution: its index
        stream equals the equally-sized bimodal table's."""
        trace = random_trace(6)
        # rows=1 is invalid for gshare by validation; emulate via GAs
        # tier logic instead: the r=0 tier point IS bimodal.
        from repro.sim.sweep import spec_for_point

        spec = spec_for_point("gshare", col_bits=5, row_bits=0)
        assert spec.scheme == "bimodal"


class TestPathRegisterStream:
    def test_records_previous_destinations(self):
        pc = np.array([0x100, 0x200, 0x300], dtype=np.uint64)
        taken = np.array([True, False, True])
        target = np.array([0x140, 0x240, 0x340], dtype=np.uint64)
        trace = BranchTrace(pc=pc, taken=taken, target=target)
        register = path_register_stream(trace, row_bits=6, bits_per_target=3)
        assert register[0] == 0
        # Access 1 sees access 0's destination (taken -> 0x140).
        assert register[1] == (0x140 >> 2) & 0b111
        # Access 2: newest chunk is access 1's fall-through (0x204).
        expected = (((0x140 >> 2) & 0b111) << 3) | ((0x204 >> 2) & 0b111)
        assert register[2] == expected & 0b111111


class TestPerAddressHistoryStream:
    def test_matches_perfect_table(self):
        trace = random_trace(9, length=200, npcs=6)
        stream = per_address_history_stream(trace, bits=5)
        table = PerfectHistoryTable(history_bits=5)
        for i, (pc, taken, _) in enumerate(trace):
            expected, _ = table.lookup(pc)
            assert stream[i] == expected, f"access {i}"
            table.record(pc, taken)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_matches_tagged_bht_histories(self, seed):
        """The reset-and-restart history reconstruction must equal the
        scalar tagged table's register contents at every access."""
        trace = random_trace(seed, length=150, npcs=12)
        miss = bht_miss_stream(trace, entries=4, assoc=2)
        stream = per_address_history_stream(trace, bits=4, miss=miss)
        table = BranchHistoryTable(entries=4, assoc=2, history_bits=4)
        for i, (pc, taken, _) in enumerate(trace):
            expected, _ = table.lookup(pc)
            assert stream[i] == expected, f"access {i}"
            table.record(pc, taken)

    def test_group_key_overrides_pc(self):
        """With a constant group key, every access shares one register:
        the history becomes the global direction history (plus reset
        prefix padding)."""
        trace = random_trace(2, length=50, npcs=8)
        key = np.zeros(len(trace), dtype=np.int64)
        stream = per_address_history_stream(trace, bits=3, group_key=key)
        gh = global_history_stream(trace.taken, bits=3)
        # After 3+ accesses the reset prefix has shifted out entirely.
        assert np.array_equal(stream[3:], gh[3:])
