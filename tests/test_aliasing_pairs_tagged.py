"""Tests for the tagged table and calibration checks."""

import pytest

from repro.predictors import make_predictor_spec
from repro.predictors.tagged_table import TaggedTablePredictor
from repro.sim import simulate_reference
from repro.workloads import make_workload
from repro.workloads.calibration import CalibrationCheck, calibrate
from repro.workloads.micro import aliasing_pair_trace, biased_field_trace


class TestTaggedTable:
    def test_removes_bimodal_conflict(self):
        """The constructed conflict pair thrashes a 16-entry direct
        table but fits comfortably in a 16-entry 4-way tagged table."""
        trace = aliasing_pair_trace(400, stride_counters=16)
        direct = simulate_reference(
            make_predictor_spec("bimodal", cols=16), trace
        )
        tagged = simulate_reference(
            TaggedTablePredictor(entries=16, assoc=4, history_bits=0),
            trace,
        )
        assert tagged.misprediction_rate < direct.misprediction_rate / 2

    def test_miss_rate_counts_allocations(self):
        trace = biased_field_trace(4, 50)
        predictor = TaggedTablePredictor(entries=16, assoc=4,
                                         history_bits=0)
        simulate_reference(predictor, trace)
        # Four compulsory allocations over 200 updates.
        assert predictor.miss_rate == pytest.approx(4 / 200)

    def test_capacity_still_evicts(self):
        trace = biased_field_trace(branches=64, executions_each=20, seed=3)
        predictor = TaggedTablePredictor(entries=8, assoc=4,
                                         history_bits=0)
        simulate_reference(predictor, trace)
        assert predictor.miss_rate > 0.5  # 64 branches through 8 entries

    def test_reset(self):
        predictor = TaggedTablePredictor(entries=8, assoc=2)
        predictor.update(0x100, True)
        predictor.reset()
        assert predictor.miss_rate == 0.0
        assert predictor.predict(0x100) is True  # back to init state

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            TaggedTablePredictor(entries=8, assoc=3)

    def test_storage_accounts_tags(self):
        predictor = TaggedTablePredictor(entries=1024, assoc=4,
                                         history_bits=10)
        assert predictor.storage_bits == 1024 * 10 + 10


class TestCalibration:
    def test_all_benchmarks_pass_at_default_scale(self):
        # Smoke-level: two representative benchmarks (the full set runs
        # in CI via the CLI; see EXPERIMENTS.md).
        for name in ("espresso", "mpeg_play"):
            report = calibrate(name, length=60_000, seed=0)
            assert report.ok, report.render()

    def test_report_renders_failures(self):
        check = CalibrationCheck(
            name="x", target=10.0, realized=100.0, rel_tolerance=0.5
        )
        assert not check.ok
        assert check.ratio == 10.0

    def test_abs_slack_tolerates_small_targets(self):
        check = CalibrationCheck(
            name="x", target=1.0, realized=3.0, rel_tolerance=0.1,
            abs_slack=2.0,
        )
        assert check.ok

    def test_one_sided_allows_undershoot(self):
        check = CalibrationCheck(
            name="x", target=100.0, realized=10.0, rel_tolerance=0.2,
            one_sided=True,
        )
        assert check.ok
        overshoot = CalibrationCheck(
            name="x", target=100.0, realized=150.0, rel_tolerance=0.2,
            one_sided=True,
        )
        assert not overshoot.ok

    def test_accepts_existing_trace(self):
        trace = make_workload("espresso", length=30_000, seed=0)
        report = calibrate("espresso", trace=trace)
        assert report.length == 30_000

    def test_render_mentions_verdict(self):
        report = calibrate("espresso", length=30_000, seed=0)
        assert "calibration of espresso" in report.render()
