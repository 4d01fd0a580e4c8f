"""Tests for sweep machinery and result containers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.predictors import make_predictor_spec
from repro.sim import SimulationResult, TierSurface, sweep_tiers
from repro.sim.engine import simulate
from repro.sim.results import TierPoint
from repro.sim.sweep import spec_for_point
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def small_trace():
    return make_workload("compress", length=4_000, seed=2)


class TestSimulationResult:
    def test_rates(self):
        result = SimulationResult(
            spec=make_predictor_spec("bimodal", cols=4),
            trace_name="t",
            predictions=np.array([True, True, False, False]),
            taken=np.array([True, False, False, True]),
        )
        assert result.mispredictions == 2
        assert result.misprediction_rate == 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationResult(
                spec=make_predictor_spec("bimodal", cols=4),
                trace_name="t",
                predictions=np.array([True]),
                taken=np.array([True, False]),
            )

    def test_unknown_engine_rejected(self, small_trace):
        with pytest.raises(ConfigurationError):
            simulate(
                make_predictor_spec("bimodal", cols=4),
                small_trace,
                engine="quantum",
            )


class TestSpecForPoint:
    def test_row_zero_is_bimodal(self):
        spec = spec_for_point("gas", col_bits=6, row_bits=0)
        assert spec.scheme == "bimodal"
        assert spec.cols == 64

    def test_regular_point(self):
        spec = spec_for_point("gshare", col_bits=2, row_bits=4)
        assert spec.rows == 16 and spec.cols == 4

    def test_pas_carries_bht(self):
        spec = spec_for_point("pas", col_bits=0, row_bits=4, bht_entries=128)
        assert spec.bht_entries == 128

    def test_path_clamps_chunk_width(self):
        spec = spec_for_point("path", col_bits=3, row_bits=1)
        assert spec.path_bits_per_branch == 1

    def test_bht_rejected_for_global(self):
        with pytest.raises(ConfigurationError):
            spec_for_point("gshare", col_bits=2, row_bits=2, bht_entries=64)

    def test_unsweepable_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_for_point("bimode", col_bits=2, row_bits=2)


class TestTierSurface:
    def test_add_and_lookup(self):
        surface = TierSurface(scheme="gas", trace_name="t")
        surface.add(4, TierPoint(col_bits=4, row_bits=0, misprediction_rate=0.2))
        surface.add(4, TierPoint(col_bits=0, row_bits=4, misprediction_rate=0.1))
        assert surface.best_in_tier(4).row_bits == 4
        assert surface.point(4, 0).misprediction_rate == 0.2

    def test_tier_membership_enforced(self):
        surface = TierSurface(scheme="gas", trace_name="t")
        with pytest.raises(ConfigurationError):
            surface.add(
                5, TierPoint(col_bits=4, row_bits=0, misprediction_rate=0.2)
            )

    def test_missing_tier_rejected(self):
        surface = TierSurface(scheme="gas", trace_name="t")
        with pytest.raises(ConfigurationError):
            surface.tier(7)

    def test_missing_point_rejected(self):
        surface = TierSurface(scheme="gas", trace_name="t")
        surface.add(4, TierPoint(col_bits=4, row_bits=0, misprediction_rate=0.2))
        with pytest.raises(ConfigurationError):
            surface.point(4, 3)


class TestSweepTiers:
    def test_full_tier_has_n_plus_one_points(self, small_trace):
        surface = sweep_tiers("gas", small_trace, size_bits=[4, 6])
        assert len(surface.tier(4)) == 5
        assert len(surface.tier(6)) == 7
        assert surface.sizes == [4, 6]

    def test_points_ordered_from_address_edge(self, small_trace):
        surface = sweep_tiers("gshare", small_trace, size_bits=[5])
        row_bits = [p.row_bits for p in surface.tier(5)]
        assert row_bits == list(range(6))

    def test_row_filter(self, small_trace):
        surface = sweep_tiers(
            "gas", small_trace, size_bits=[6], row_bits_filter=[0, 6]
        )
        assert len(surface.tier(6)) == 2

    def test_pas_tier_reports_miss_rate(self, small_trace):
        surface = sweep_tiers(
            "pas", small_trace, size_bits=[4], bht_entries=64
        )
        # Two-level points carry the first-level miss rate; the
        # address-indexed edge has no first level.
        assert surface.point(4, 0).first_level_miss_rate is None
        assert surface.point(4, 4).first_level_miss_rate is not None

    def test_compress_saturates_like_small_spec(self):
        """Paper Figure 2 shape: compress (few hot branches) gains
        almost nothing from growing the address-indexed table."""
        trace = make_workload("compress", length=30_000, seed=3)
        small = sweep_tiers("gas", trace, size_bits=[8],
                            row_bits_filter=[0]).point(8, 0)
        large = sweep_tiers("gas", trace, size_bits=[13],
                            row_bits_filter=[0]).point(13, 0)
        assert abs(small.misprediction_rate - large.misprediction_rate) < 0.02

