"""Tests for aliasing instrumentation and classification."""

import numpy as np
import pytest

from repro.aliasing import (
    aliasing_rate,
    aliasing_report,
    all_ones_conflict_share,
    classify_conflicts,
    conflict_mask,
    dealias_delta,
    interference_free_predictions,
    sweep_aliasing,
)
from repro.errors import ConfigurationError, TraceError
from repro.predictors import make_predictor_spec
from repro.predictors.specs import PredictorSpec
from repro.sim.engine import simulate
from repro.sim.sweep import spec_for_point
from repro.sim.vectorized import bht_miss_stream
from repro.traces import BranchTrace
from repro.workloads import make_workload
from repro.workloads.micro import (
    biased_field_trace,
    interference_field_trace,
)


def trace_of(records, name="t"):
    return BranchTrace.from_records(records, name=name)


class TestConflictMask:
    def test_no_conflict_single_branch(self):
        idx = np.array([3, 3, 3])
        pc = np.array([0x100] * 3)
        assert not conflict_mask(idx, pc).any()

    def test_conflict_on_interleaved_branches(self):
        idx = np.array([5, 5, 5, 5])
        pc = np.array([0x100, 0x200, 0x100, 0x200])
        mask = conflict_mask(idx, pc)
        # Every access after the first hits a counter last touched by
        # the other branch.
        assert list(mask) == [False, True, True, True]

    def test_different_counters_never_conflict(self):
        idx = np.array([1, 2, 1, 2])
        pc = np.array([0x100, 0x200, 0x100, 0x200])
        assert not conflict_mask(idx, pc).any()

    def test_time_order_preserved_within_counter(self):
        # A B A on one counter: second A conflicts (previous access was
        # B), B conflicts (previous was A).
        idx = np.array([7, 7, 7])
        pc = np.array([0x100, 0x200, 0x100])
        assert list(conflict_mask(idx, pc)) == [False, True, True]

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            conflict_mask(np.array([1]), np.array([1, 2]))

    def test_empty(self):
        assert len(conflict_mask(np.array([]), np.array([]))) == 0


class TestAliasingRate:
    def test_bimodal_small_table_aliases(self):
        # Two branches 16 counters apart in a 16-entry table collide.
        records = [(0x100, True), (0x100 + 16 * 4, False)] * 50
        trace = trace_of(records)
        spec = make_predictor_spec("bimodal", cols=16)
        assert aliasing_rate(spec, trace) > 0.9

    def test_bimodal_large_table_separates(self):
        records = [(0x100, True), (0x100 + 16 * 4, False)] * 50
        trace = trace_of(records)
        spec = make_predictor_spec("bimodal", cols=64)
        assert aliasing_rate(spec, trace) == 0.0

    def test_per_address_columns_never_alias(self):
        # GAp dedicates a column to every static branch.
        trace = biased_field_trace(branches=24, executions_each=10)
        spec = make_predictor_spec("gap", rows=4)
        assert aliasing_rate(spec, trace) == 0.0

    def test_oversubscribed_first_level_sets_always_miss(self):
        # 32 branches round-robin over 4 sets of 4 ways: each set cycles
        # through 8 branches, so LRU evicts every history before reuse.
        trace = biased_field_trace(branches=32, executions_each=4)
        assert bht_miss_stream(trace, entries=16, assoc=4).all()

    def test_direct_mapped_first_level_identity(self):
        """Paper section 5: address-indexed second-level aliasing ==
        direct-mapped first-level conflict rate."""
        trace = make_workload("mpeg_play", length=20_000, seed=4)
        spec = make_predictor_spec("bimodal", cols=256)
        conflict = aliasing_rate(spec, trace)
        miss = bht_miss_stream(trace, entries=256, assoc=1)
        # Cold-start (compulsory) misses are not inter-branch conflicts,
        # so the streams differ by at most the static branch count.
        compulsory = trace.num_static_branches / len(trace)
        assert abs(float(np.mean(miss)) - conflict) <= compulsory + 1e-9

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            aliasing_rate(
                make_predictor_spec("bimodal", cols=4), trace_of([])
            )

    def test_more_rows_more_aliasing_for_large_program(self):
        """Paper Figure 5: trading columns for rows increases aliasing
        (history distinguishes branches worse than addresses)."""
        trace = make_workload("real_gcc", length=30_000, seed=1)
        address_heavy = make_predictor_spec("gas", rows=4, cols=256)
        row_heavy = make_predictor_spec("gas", rows=256, cols=4)
        assert aliasing_rate(row_heavy, trace) > aliasing_rate(
            address_heavy, trace
        )


class TestClassification:
    def test_all_agreeing_conflicts_are_harmless(self):
        records = [(0x100, True), (0x100 + 16 * 4, True)] * 50
        stats = classify_conflicts(
            make_predictor_spec("bimodal", cols=16), trace_of(records)
        )
        assert stats.conflicts > 0
        assert stats.harmless_share == 1.0
        assert stats.destructive == 0

    def test_opposite_branches_are_destructive(self):
        records = [(0x100, True), (0x100 + 16 * 4, False)] * 50
        stats = classify_conflicts(
            make_predictor_spec("bimodal", cols=16), trace_of(records)
        )
        assert stats.harmless_share == 0.0
        assert stats.destructive_rate > 0.9

    def test_no_conflicts_zero_share(self):
        stats = classify_conflicts(
            make_predictor_spec("bimodal", cols=64),
            trace_of([(0x100, True)] * 10),
        )
        assert stats.conflicts == 0
        assert stats.harmless_share == 0.0

    def test_one_counter_same_direction_is_harmless(self):
        # Two steady-taken branches share the single counter: every
        # collision is the paper's harmless all-agreeing kind.
        records = [(0x1000, True), (0x1004, True)] * 20
        stats = classify_conflicts(
            PredictorSpec(scheme="bimodal", cols=1), trace_of(records)
        )
        assert stats.aliasing_rate > 0.9
        assert stats.harmless_share == 1.0

    def test_one_counter_mixed_direction_is_harmful(self):
        records = [(0x1000, True), (0x1004, False)] * 20
        stats = classify_conflicts(
            PredictorSpec(scheme="bimodal", cols=1), trace_of(records)
        )
        assert stats.harmless == 0
        assert stats.destructive == stats.conflicts > 0

    def test_unaliased_field_has_no_conflicts(self):
        # Eight adjacent branches in a 64-column table: one counter each.
        records = [(0x1000 + 4 * i, True) for i in range(8)] * 10
        stats = classify_conflicts(
            PredictorSpec(scheme="bimodal", cols=64), trace_of(records)
        )
        assert stats.conflicts == 0
        assert stats.aliasing_rate == 0.0

    def test_accessors_consistent(self):
        trace = make_workload("espresso", length=10_000, seed=2)
        stats = classify_conflicts(
            make_predictor_spec("gag", rows=64), trace
        )
        assert stats.harmless + stats.destructive == stats.conflicts
        assert 0 <= stats.aliasing_rate <= 1


class TestAllOnes:
    def test_tight_loops_produce_all_ones_conflicts(self):
        """Two interleaved tight loops: a substantial share of their
        conflicts lands on the all-taken row (each run's mid-loop
        accesses sit at all-ones; the run hand-off conflicts there).
        The share is well above what the 1-in-8 rows baseline would
        give yet below half, matching the paper's 'about a fifth'."""
        records = []
        for _ in range(60):
            records.extend([(0x100, True)] * 7 + [(0x100, False)])
            records.extend([(0x900, True)] * 7 + [(0x900, False)])
        share = all_ones_conflict_share(
            make_predictor_spec("gag", rows=8), trace_of(records)
        )
        assert 0.15 < share < 0.5

    def test_only_global_schemes_accepted(self):
        with pytest.raises(ConfigurationError):
            all_ones_conflict_share(
                make_predictor_spec("pas", rows=8, cols=2),
                trace_of([(0x100, True)] * 4),
            )

    def test_workload_share_in_papers_ballpark(self):
        """Paper: 'approximately a fifth of the aliasing for the larger
        benchmarks was for the all-ones pattern' — accept a broad band
        around that."""
        trace = make_workload("mpeg_play", length=40_000, seed=1)
        share = all_ones_conflict_share(
            make_predictor_spec("gag", rows=64), trace
        )
        assert 0.02 < share < 0.6


class TestSweepAndReport:
    def test_sweep_aliasing_fills_tiers(self):
        trace = make_workload("compress", length=5_000, seed=1)
        surface = sweep_aliasing("gas", trace, size_bits=[4, 5])
        assert len(surface.tier(4)) == 5
        assert all(p.aliasing_rate is not None for p in surface.tier(4))

    def test_sweep_aliasing_optionally_measures_misprediction(self):
        trace = make_workload("compress", length=5_000, seed=1)
        surface = sweep_aliasing(
            "gas", trace, size_bits=[4], measure_misprediction=True
        )
        assert all(
            p.misprediction_rate == p.misprediction_rate  # not NaN
            for p in surface.tier(4)
        )

    def test_report_renders(self):
        trace = make_workload("compress", length=3_000, seed=1)
        text = aliasing_report(
            [
                make_predictor_spec("bimodal", cols=64),
                make_predictor_spec("gag", rows=64),
            ],
            trace,
        )
        assert "aliasing" in text
        assert "bimodal" in text


class TestSimulatedDealiasDelta:
    def test_private_tables_change_aliased_predictions(self):
        trace = interference_field_trace(branches=16, length=4000)
        spec = PredictorSpec(scheme="bimodal", cols=4)  # 4x oversubscribed
        shared_differs = interference_free_predictions(spec, trace)
        assert dealias_delta(spec, trace) > 0.1
        assert shared_differs.shape == (len(trace),)

    def test_singleton_classes_have_zero_delta(self):
        # Every branch in its own column: private tables are identical
        # to the shared one, access for access.
        trace = biased_field_trace(branches=8, executions_each=100)
        spec = PredictorSpec(scheme="bimodal", cols=8)
        assert dealias_delta(spec, trace) == 0.0

    @pytest.mark.parametrize("scheme", ["gas", "gshare", "pas"])
    def test_shared_half_is_the_simulated_predictor(self, scheme):
        # delta = (shared - private) / T, so adding the private misses
        # back must recover exactly what the engine counts for spec.
        trace = make_workload("mpeg_play", length=6000, seed=0)
        spec = spec_for_point(scheme, col_bits=2, row_bits=5)
        private = interference_free_predictions(spec, trace)
        private_misses = int(np.count_nonzero(private != trace.taken))
        shared_misses = round(dealias_delta(spec, trace) * len(trace))
        assert shared_misses + private_misses == (
            simulate(spec, trace).mispredictions
        )
