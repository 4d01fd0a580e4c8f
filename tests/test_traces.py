"""Tests for the trace container, I/O, and characterization statistics."""

import zipfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.traces import (
    BranchTrace,
    TraceBuilder,
    characterize,
    coverage_count,
    frequency_breakdown,
    load_trace,
    per_branch_counts,
    per_branch_taken_rates,
    save_trace,
)
from repro.workloads.registry import make_workload
from repro.workloads.store import TraceStore


def make_trace(records, name="t"):
    return BranchTrace.from_records(records, name=name)


@pytest.fixture
def skewed_trace():
    # Branch 0x1000 executes 90 times (all taken), 0x2000 9 times,
    # 0x3000 once.
    records = (
        [(0x1000, True)] * 90 + [(0x2000, False)] * 9 + [(0x3000, True)]
    )
    return make_trace(records)


class TestBranchTrace:
    def test_length_and_iteration(self):
        trace = make_trace([(0x100, True), (0x104, False)])
        assert len(trace) == 2
        rows = list(trace)
        assert rows[0][0] == 0x100 and rows[0][1] is True
        # Targets are static per site: both instances of a pc share one.
        again = make_trace([(0x104, True)])
        assert rows[1][2] == list(again)[0][2]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(TraceError):
            BranchTrace(
                pc=np.zeros(2, dtype=np.uint64),
                taken=np.zeros(3, dtype=bool),
                target=np.zeros(2, dtype=np.uint64),
            )

    def test_multidimensional_rejected(self):
        with pytest.raises(TraceError):
            BranchTrace(
                pc=np.zeros((2, 2), dtype=np.uint64),
                taken=np.zeros((2, 2), dtype=bool),
                target=np.zeros((2, 2), dtype=np.uint64),
            )

    def test_static_branch_count(self, skewed_trace):
        assert skewed_trace.num_static_branches == 3

    def test_taken_rate(self, skewed_trace):
        assert skewed_trace.taken_rate == pytest.approx(91 / 100)

    def test_taken_rate_empty_rejected(self):
        with pytest.raises(TraceError):
            make_trace([]).taken_rate

    def test_word_index_drops_byte_offset(self):
        trace = make_trace([(0x100, True)])
        assert int(trace.word_index()[0]) == 0x100 >> 2

    def test_slice(self, skewed_trace):
        sub = skewed_trace.slice(0, 90)
        assert len(sub) == 90
        assert sub.num_static_branches == 1

    def test_concat(self):
        a = make_trace([(0x100, True)])
        b = make_trace([(0x200, False)])
        both = a.concat(b)
        assert len(both) == 2
        assert both.num_static_branches == 2

    def test_dtype_coercion(self):
        trace = BranchTrace(
            pc=np.array([4, 8], dtype=np.int64),
            taken=np.array([1, 0], dtype=np.int8),
            target=np.array([8, 12], dtype=np.int64),
        )
        assert trace.pc.dtype == np.uint64
        assert trace.taken.dtype == bool


class TestTraceBuilder:
    def test_append_and_build(self):
        builder = TraceBuilder(name="built")
        builder.append(0x100, True, 0x200)
        builder.append(0x104, False, 0x108)
        trace = builder.build(instruction_count=10)
        assert len(trace) == 2
        assert trace.name == "built"
        assert trace.instruction_count == 10

    def test_extend_arrays(self):
        builder = TraceBuilder()
        builder.extend(
            np.array([4, 8]), np.array([True, False]), np.array([16, 12])
        )
        assert len(builder) == 2

    def test_extend_rejects_ragged(self):
        builder = TraceBuilder()
        with pytest.raises(TraceError):
            builder.extend(np.array([4]), np.array([True, False]), np.array([8]))

    def test_empty_build(self):
        assert len(TraceBuilder().build()) == 0


class TestIO:
    def test_npz_roundtrip(self, tmp_path, skewed_trace):
        path = tmp_path / "trace.npz"
        save_trace(skewed_trace, path)
        loaded = load_trace(path)
        assert np.array_equal(loaded.pc, skewed_trace.pc)
        assert np.array_equal(loaded.taken, skewed_trace.taken)
        assert np.array_equal(loaded.target, skewed_trace.target)
        assert loaded.name == skewed_trace.name

    def test_npz_extension_added_and_reported(self, tmp_path, skewed_trace):
        path = tmp_path / "trace"
        written = save_trace(skewed_trace, path)
        assert written == str(tmp_path / "trace.npz")
        assert (tmp_path / "trace.npz").exists()
        load_trace(written)  # the returned path is directly loadable

    def test_save_returns_exact_path_when_extension_given(
        self, tmp_path, skewed_trace
    ):
        for name in ("t.npz", "t.txt"):
            path = tmp_path / name
            assert save_trace(skewed_trace, path) == str(path)

    def test_save_leaves_no_temp_files(self, tmp_path, skewed_trace):
        save_trace(skewed_trace, tmp_path / "a.npz")
        save_trace(skewed_trace, tmp_path / "b.txt")
        assert not list(tmp_path.glob("*.tmp"))

    def test_mismatched_lengths_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path,
            pc=np.zeros(3, dtype=np.uint64),
            taken=np.zeros(2, dtype=bool),
            target=np.zeros(3, dtype=np.uint64),
        )
        with pytest.raises(TraceError, match="mismatched array lengths"):
            load_trace(path)

    def test_text_roundtrip(self, tmp_path, skewed_trace):
        path = tmp_path / "trace.txt"
        save_trace(skewed_trace, path)
        loaded = load_trace(path)
        assert np.array_equal(loaded.pc, skewed_trace.pc)
        assert np.array_equal(loaded.taken, skewed_trace.taken)

    def test_text_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0x100 1\n")
        with pytest.raises(TraceError):
            load_trace(str(path))

    def test_text_bad_number_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0x100 yes 0x104\n")
        with pytest.raises(TraceError):
            load_trace(str(path))


#: The members of a trace archive, in the order both writers store them.
NPZ_MEMBERS = ["pc.npy", "taken.npy", "target.npy", "name.npy", "instruction_count.npy"]


def _savez_compressed(trace, path):
    """Write ``trace`` as ``np.savez_compressed`` did, level-6 members."""
    count = -1 if trace.instruction_count is None else trace.instruction_count
    np.savez_compressed(
        path,
        pc=trace.pc,
        taken=trace.taken,
        target=trace.target,
        name=np.array(trace.name),
        instruction_count=np.array(count, dtype=np.int64),
    )


def _assert_same_trace(loaded, trace):
    for field in ("pc", "taken", "target"):
        got, want = getattr(loaded, field), getattr(trace, field)
        assert got.dtype == want.dtype and np.array_equal(got, want), field
    assert loaded.name == trace.name
    assert loaded.instruction_count == trace.instruction_count
    assert loaded.fingerprint() == trace.fingerprint()


class TestArchiveFormat:
    @pytest.fixture
    def trace(self):
        return make_workload("compress", length=3000, seed=0, cache=False)

    def test_savez_compressed_archive_still_loads(self, tmp_path, trace):
        path = tmp_path / "old.npz"
        _savez_compressed(trace, path)
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == NPZ_MEMBERS
        _assert_same_trace(load_trace(path), trace)

    def test_store_serves_a_savez_compressed_archive(
        self, tmp_path, trace, monkeypatch
    ):
        store = TraceStore(str(tmp_path))
        store.get("compress", 3000, seed=0)
        (path,) = store.stored_files()
        _savez_compressed(trace, path)

        def regenerate(*args, **kwargs):
            raise AssertionError("a stored trace was generated again")

        monkeypatch.setattr("repro.workloads.store.make_workload", regenerate)
        _assert_same_trace(store.get("compress", 3000, seed=0), trace)

    def test_writer_is_a_plain_npz(self, tmp_path, trace):
        path = save_trace(trace, tmp_path / "new.npz")
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == NPZ_MEMBERS
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_DEFLATED
            }
        with np.load(path) as arrays:
            for field in ("pc", "taken", "target"):
                want = getattr(trace, field)
                assert arrays[field].dtype == want.dtype
                assert np.array_equal(arrays[field], want)
            assert str(arrays["name"]) == trace.name
            assert int(arrays["instruction_count"]) == trace.instruction_count
        _assert_same_trace(load_trace(path), trace)


class TestPerBranchStats:
    def test_counts_sorted_descending(self, skewed_trace):
        pcs, counts = per_branch_counts(skewed_trace)
        assert list(counts) == [90, 9, 1]
        assert int(pcs[0]) == 0x1000

    def test_counts_empty_rejected(self):
        with pytest.raises(TraceError):
            per_branch_counts(make_trace([]))

    def test_taken_rates(self, skewed_trace):
        rates = per_branch_taken_rates(skewed_trace)
        assert rates[0x1000] == 1.0
        assert rates[0x2000] == 0.0


class TestCoverage:
    def test_single_branch_covers_everything(self):
        trace = make_trace([(0x100, True)] * 10)
        assert coverage_count(trace, 0.90) == 1

    def test_skewed_coverage(self, skewed_trace):
        # 90 of 100 instances come from the hottest branch.
        assert coverage_count(skewed_trace, 0.90) == 1
        assert coverage_count(skewed_trace, 0.95) == 2
        assert coverage_count(skewed_trace, 1.00) == 3

    def test_invalid_share_rejected(self, skewed_trace):
        with pytest.raises(TraceError):
            coverage_count(skewed_trace, 0.0)

    @given(st.integers(min_value=1, max_value=30))
    def test_uniform_coverage(self, nbranches):
        # With equal counts, covering share s needs ceil(s * n) branches.
        records = [(0x100 + 4 * i, True) for i in range(nbranches)] * 4
        trace = make_trace(records)
        assert coverage_count(trace, 0.5) == -(-nbranches // 2)


class TestFrequencyBreakdown:
    def test_buckets_partition_static_branches(self, skewed_trace):
        breakdown = frequency_breakdown(skewed_trace)
        assert sum(breakdown.branch_counts) == breakdown.total_static == 3

    def test_skewed_buckets(self, skewed_trace):
        breakdown = frequency_breakdown(skewed_trace)
        # Hottest branch alone covers the first 50% (and more).
        assert breakdown.branch_counts[0] == 1

    def test_shares_must_sum_to_one(self, skewed_trace):
        with pytest.raises(TraceError):
            frequency_breakdown(skewed_trace, shares=[0.5, 0.4])

    def test_fractions_sum_to_one(self, skewed_trace):
        fractions = frequency_breakdown(skewed_trace).fractions()
        assert sum(fractions) == pytest.approx(1.0)


class TestCharacterize:
    def test_basic_fields(self, skewed_trace):
        stats = characterize(skewed_trace)
        assert stats.dynamic_branches == 100
        assert stats.static_branches == 3
        assert stats.branches_for_90pct == 1
        # All three branches are 100%/0% biased.
        assert stats.highly_biased_fraction == 1.0

    def test_instruction_count_used_when_present(self):
        trace = BranchTrace(
            pc=np.array([4, 4], dtype=np.uint64),
            taken=np.array([True, True]),
            target=np.array([8, 8], dtype=np.uint64),
            instruction_count=20,
        )
        stats = characterize(trace)
        assert stats.dynamic_instructions == 20
        assert stats.branch_fraction == pytest.approx(0.1)

    def test_bias_threshold_respected(self):
        # 60% taken branch is not "highly biased" at the 0.95 threshold
        # but is at 0.55.
        records = [(0x100, True)] * 6 + [(0x100, False)] * 4
        trace = make_trace(records)
        assert characterize(trace, 0.95).highly_biased_fraction == 0.0
        assert characterize(trace, 0.55).highly_biased_fraction == 1.0
