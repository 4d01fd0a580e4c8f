"""Structural property tests on the row-selection loop and the index
streams built on it.

The prediction-level equivalence tests (test_sim_equivalence) catch
end-to-end mismatches; these tests pin down the intermediate streams
directly, which localizes failures and documents the indexing
contracts. Every history stream comes from one keyed shift-register
loop, :func:`repro.sim.vectorized.run_history`: in C, or its Python
twin (:func:`repro.predictors.bht.drive_history`) without a compiler.
Both are checked here against the scalar registers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.predictors import make_predictor_spec
from repro.predictors.bht import (
    BranchHistoryTable,
    PerfectHistoryTable,
    reset_history,
)
from repro.predictors.global_history import GlobalHistoryRegister
from repro.predictors.path_based import PathRegister
from repro.predictors.specs import ROW_MAJOR_SCHEMES, word_index
from repro.sim import native
from repro.sim.vectorized import (
    bht_miss_stream,
    global_history,
    index_stream,
    pc_ids,
    run_history,
)
from repro.traces import BranchTrace
from repro.workloads.micro import (
    aliasing_pair_trace,
    biased_field_trace,
    correlated_pair_trace,
    loop_trace,
)


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


MICRO_WORKLOADS = {
    "pair": lambda: aliasing_pair_trace(400, stride_counters=8, opposite=False),
    "field": lambda: biased_field_trace(branches=24, executions_each=80),
    "correlated": lambda: correlated_pair_trace(1200, seed=1),
    "loop": lambda: loop_trace(5, 40),
}

#: One spec per row-major scheme that takes columns (cols > 1).
COLUMN_SPECS = {
    "bimodal": make_predictor_spec("bimodal", cols=8),
    "gas": make_predictor_spec("gas", rows=4, cols=4),
    "gshare": make_predictor_spec("gshare", rows=4, cols=4),
    "path": make_predictor_spec("path", rows=4, cols=4),
    "pas": make_predictor_spec("pas", rows=4, cols=4),
    "pas_bht": make_predictor_spec(
        "pas", rows=4, cols=4, bht_entries=8, bht_assoc=2
    ),
    "sas": make_predictor_spec("sas", rows=4, cols=4, bht_entries=16),
}


def takes_columns(scheme):
    for rows in (1, 4):
        try:
            make_predictor_spec(scheme, rows=rows, cols=4)
            return True
        except ConfigurationError:
            pass
    return False


class TestColumnBits:
    """Figure 1: the low word-address bits select the column whatever
    row the history picks, so two branches can share a counter only if
    those bits agree."""

    @pytest.mark.parametrize("workload", sorted(MICRO_WORKLOADS))
    @pytest.mark.parametrize("scheme", sorted(COLUMN_SPECS))
    def test_low_bits_select_the_column(self, workload, scheme):
        spec = COLUMN_SPECS[scheme]
        trace = MICRO_WORKLOADS[workload]()
        low = spec.cols - 1
        np.testing.assert_array_equal(
            index_stream(spec, trace) & low, word_index(trace.pc) & low
        )

    def test_every_column_scheme_is_covered(self):
        covered = {spec.scheme for spec in COLUMN_SPECS.values()}
        assert covered == {s for s in ROW_MAJOR_SCHEMES if takes_columns(s)}


class TestGlobalHistoryStream:
    def test_matches_register_semantics(self):
        taken = np.array([True, False, True, True])
        gh = global_history(taken, bits=3)
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
        """The register equals ORing in one outcome per register bit,
        for every width and length."""
        taken = np.array(outcomes, dtype=bool)
        expected = np.zeros(len(taken), dtype=np.int64)
        for age in range(1, bits + 1):
            expected[age:] |= taken[:-age].astype(np.int64) << (age - 1)
        assert np.array_equal(global_history(taken, bits), expected)

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
        # One column, so the counter index is the register itself.
        spec = make_predictor_spec("path", rows=64, path_bits_per_branch=3)
        register = index_stream(spec, trace)
        assert register[0] == 0
        # Access 1 sees access 0's destination (taken -> 0x140).
        assert register[1] == (0x140 >> 2) & 0b111
        # Access 2: newest chunk is access 1's fall-through (0x204).
        expected = (((0x140 >> 2) & 0b111) << 3) | ((0x204 >> 2) & 0b111)
        assert register[2] == expected & 0b111111


def per_address(trace, bits, miss=None):
    """The loop keyed by PC, each register starting at the reset prefix
    and reset by its branch's first-level misses."""
    ids = pc_ids(trace)
    initial = reset_history(bits)
    regs = np.full(int(ids.max()) + 1, initial, dtype=np.uint64)
    return run_history(trace.taken, 1, bits, regs, key=ids, reset_at=miss,
                       reset=initial)


def table_histories(table, trace):
    """The history a scalar first-level table returns at each access."""
    out = np.empty(len(trace), dtype=np.int64)
    for i, (pc, taken, _) in enumerate(trace):
        out[i], _ = table.lookup(pc)
        table.record(pc, taken)
    return out


class TestPerAddressHistoryStream:
    def test_matches_perfect_table(self):
        trace = random_trace(9, length=200, npcs=6)
        expected = table_histories(PerfectHistoryTable(history_bits=5), trace)
        assert np.array_equal(per_address(trace, 5), expected)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_matches_tagged_bht_histories(self, seed):
        """A miss resets the branch's register, which then accumulates
        again: the scalar tagged table's contents at every access."""
        trace = random_trace(seed, length=150, npcs=12)
        miss = bht_miss_stream(trace, entries=4, assoc=2)
        table = BranchHistoryTable(entries=4, assoc=2, history_bits=4)
        expected = table_histories(table, trace)
        assert np.array_equal(per_address(trace, 4, miss), expected)

    def test_group_key_overrides_pc(self):
        """With a constant key, every access shares one register: the
        history becomes the global direction history (plus reset
        prefix padding)."""
        trace = random_trace(2, length=50, npcs=8)
        regs = np.full(1, reset_history(3), dtype=np.uint64)
        key = np.zeros(len(trace), dtype=np.int64)
        stream = run_history(trace.taken, 1, 3, regs, key=key)
        gh = global_history(trace.taken, bits=3)
        # After 3+ accesses the reset prefix has shifted out entirely.
        assert np.array_equal(stream[3:], gh[3:])


@pytest.fixture(params=["native", "twin"])
def loop_path(request, monkeypatch):
    """Run each loop test on the C loop and on its Python twin."""
    if request.param == "native":
        if native.library() is None:
            pytest.skip("no C compiler: the native loop cannot be built")
    else:
        monkeypatch.setattr(native, "library", lambda: None)
    return request.param


def scalar_global(taken, bits):
    register = GlobalHistoryRegister(bits)
    out = []
    for outcome in taken:
        out.append(register.value)
        register.record(bool(outcome))
    return np.array(out, dtype=np.int64)


class TestHistoryLoop:
    """The loop's contract on adversarial streams, on both paths."""

    def test_empty_stream(self, loop_path):
        regs = np.array([5], dtype=np.uint64)
        out = run_history(np.zeros(0, bool), 1, 4, regs,
                          key=np.zeros(0, np.int64))
        assert out.dtype == np.int64 and len(out) == 0
        assert regs.tolist() == [5]

    def test_single_access(self, loop_path):
        regs = np.array([0b1011], dtype=np.uint64)
        out = run_history(np.array([True]), 1, 4, regs)
        assert out.tolist() == [0b1011]
        assert regs.tolist() == [0b0111]

    @pytest.mark.parametrize("bits", [1, 15])
    def test_one_key_is_the_global_register(self, loop_path, bits):
        taken = np.random.default_rng(bits).random(500) < 0.6
        expected = scalar_global(taken, bits)
        regs = np.zeros(1, dtype=np.uint64)
        keyed = run_history(taken, 1, bits, regs,
                            key=np.zeros(len(taken), np.int64))
        assert np.array_equal(keyed, expected)
        assert np.array_equal(global_history(taken, bits), expected)
        assert regs[0] == (expected[-1] << 1 | taken[-1]) & ((1 << bits) - 1)

    @pytest.mark.parametrize("bits", [1, 15])
    def test_new_key_every_access(self, loop_path, bits):
        n = 300
        taken = np.arange(n) % 3 == 0
        initial = reset_history(bits)
        regs = np.full(n, initial, dtype=np.uint64)
        out = run_history(taken, 1, bits, regs, key=np.arange(n))
        assert np.all(out == initial)
        mask = (1 << bits) - 1
        assert regs.tolist() == [((initial << 1) | int(t)) & mask
                                 for t in taken]

    @pytest.mark.parametrize("bits", [1, 15])
    def test_reset_every_access(self, loop_path, bits):
        taken = np.arange(200) % 2 == 0
        initial = reset_history(bits)
        regs = np.zeros(4, dtype=np.uint64)
        out = run_history(taken, 1, bits, regs, key=np.arange(200) % 4,
                          reset_at=np.ones(200, bool), reset=initial)
        assert np.all(out == initial)
        table = BranchHistoryTable(entries=1, assoc=1, history_bits=bits)
        pcs = 0x1000 + 4 * (np.arange(200) % 4)
        trace = BranchTrace(pc=pcs.astype(np.uint64), taken=taken,
                            target=pcs.astype(np.uint64) + np.uint64(8))
        # A one-entry table misses on every change of branch.
        assert np.array_equal(out, table_histories(table, trace))

    @pytest.mark.parametrize("bits", [1, 15])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_first_level_tables(self, loop_path, seed, bits):
        trace = random_trace(seed, length=400, npcs=20)
        perfect = table_histories(PerfectHistoryTable(bits), trace)
        assert np.array_equal(per_address(trace, bits), perfect)
        miss = bht_miss_stream(trace, entries=8, assoc=2)
        tagged = table_histories(BranchHistoryTable(8, 2, bits), trace)
        assert np.array_equal(per_address(trace, bits, miss), tagged)

    @pytest.mark.parametrize("chunk_bits", [1, 2])
    def test_path_chunks_match_path_register(self, loop_path, chunk_bits):
        trace = random_trace(chunk_bits, length=400, npcs=30)
        register = PathRegister(bits=6, bits_per_target=chunk_bits)
        expected = np.empty(len(trace), dtype=np.int64)
        for i, (pc, taken, target) in enumerate(trace):
            expected[i] = register.value
            register.record(target if taken else pc + 4)
        spec = make_predictor_spec("path", rows=64,
                                   path_bits_per_branch=chunk_bits)
        assert np.array_equal(index_stream(spec, trace), expected)

    @pytest.mark.parametrize("seed", range(12))
    def test_split_stream_carries_regs(self, loop_path, seed):
        """Two runs over the halves of a stream, registers carried
        across, equal one run over the whole of it."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 300))
        cut = int(rng.integers(0, n + 1))
        taken = rng.random(n) < 0.6
        key = rng.integers(0, 7, size=n)
        reset_at = rng.random(n) < 0.1
        initial = reset_history(5)

        def run(sl, regs):
            return run_history(taken[sl], 1, 5, regs, key=key[sl],
                               reset_at=reset_at[sl], reset=initial)

        whole_regs = np.full(7, initial, dtype=np.uint64)
        whole = run(slice(None), whole_regs)
        regs = np.full(7, initial, dtype=np.uint64)
        halves = np.concatenate(
            [run(slice(None, cut), regs), run(slice(cut, None), regs)]
        )
        assert np.array_equal(halves, whole)
        assert np.array_equal(regs, whole_regs)


class _NoC:
    """A stand-in library that fails any call into C."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} reached C")


class TestHistoryPreconditions:
    """Every bound the C loop trusts is checked before it is called."""

    @pytest.fixture(autouse=True)
    def _no_c(self, monkeypatch):
        monkeypatch.setattr(native, "library", _NoC)

    @pytest.mark.parametrize(
        "chunk,shift,bits,regs,kwargs",
        [
            ([1, 0], 1, 4, np.zeros(2, np.uint64), {"key": [0, 2]}),
            ([1, 0], 1, 4, np.zeros(2, np.uint64), {"key": [0, -1]}),
            ([1, 0], 1, 4, np.zeros(0, np.uint64), {}),
            ([1, 2], 1, 4, np.zeros(1, np.uint64), {}),
            ([4, 0], 2, 4, np.zeros(1, np.uint64), {}),
            ([1, 0], 1, 4, np.zeros(2, np.uint64), {"key": [0]}),
            ([1, 0], 1, 4, np.zeros(1, np.uint64),
             {"reset_at": np.array([True])}),
            ([1, 0], 1, 4, np.zeros(1, np.uint64),
             {"reset_at": np.array([1, 0])}),
            ([1, 0], 1, 4, np.zeros(1, np.int64), {}),
            ([1, 0], 1, 4, [0], {}),
            ([1, 0], 1, 4, np.zeros((1, 1), np.uint64), {}),
            ([1, 0], 1, 4, np.zeros(4, np.uint64)[::2], {}),
            ([1, 0], 1, 4, np.zeros(1, np.uint64), {"reset": 16}),
            ([1, 0], 0, 4, np.zeros(1, np.uint64), {}),
            ([1, 0], 64, 4, np.zeros(1, np.uint64), {}),
            ([1, 0], 1, 64, np.zeros(1, np.uint64), {}),
            ([1.0, 0.0], 1, 4, np.zeros(1, np.uint64), {}),
            ([1, 0], 1, 4, np.zeros(2, np.uint64), {"key": [0.0, 1.0]}),
        ],
        ids=[
            "key-past-table", "negative-key", "no-register",
            "chunk-wider-than-shift", "two-bit-chunk-wider-than-shift",
            "key-length-mismatch", "reset-length-mismatch",
            "reset-not-bool", "regs-not-uint64", "regs-not-array",
            "regs-2d", "regs-strided", "reset-wider-than-register",
            "zero-shift", "shift-64", "width-64", "float-chunks",
            "float-key",
        ],
    )
    def test_rejected_before_c(self, chunk, shift, bits, regs, kwargs):
        chunk = np.asarray(chunk)
        if chunk.dtype.kind == "i":
            chunk = chunk.astype(np.uint8)
        with pytest.raises(ConfigurationError):
            run_history(chunk, shift, bits, regs, **kwargs)

    def test_read_only_regs_rejected(self):
        regs = np.zeros(1, np.uint64)
        regs.flags.writeable = False
        with pytest.raises(ConfigurationError):
            run_history(np.array([True]), 1, 4, regs)

    def test_empty_stream_never_calls_c(self):
        out = run_history(np.zeros(0, bool), 1, 4, np.zeros(1, np.uint64))
        assert len(out) == 0
