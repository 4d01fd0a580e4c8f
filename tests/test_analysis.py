"""Tests for the analysis subpackage."""

import numpy as np
import pytest

from repro.analysis import (
    best_configurations,
    branch_breakdown,
    branch_report,
    concentration,
    diff_surfaces,
    per_branch_misprediction,
    render_series,
    render_surface,
    render_surface_grid,
    warmup_trimmed_rate,
)
from repro.analysis.best_config import TABLE3_SIZE_BITS, crossover_size
from repro.errors import ConfigurationError
from repro.predictors import make_predictor_spec
from repro.sim import simulate
from repro.sim.results import SimulationResult, TierPoint, TierSurface
from repro.workloads import make_workload


def make_surface(scheme, name, rates_by_tier):
    """rates_by_tier: {n: [rate for row_bits 0..n]}"""
    surface = TierSurface(scheme=scheme, trace_name=name)
    for n, rates in rates_by_tier.items():
        for row_bits, rate in enumerate(rates):
            surface.add(
                n,
                TierPoint(
                    col_bits=n - row_bits,
                    row_bits=row_bits,
                    misprediction_rate=rate,
                ),
            )
    return surface


class TestMetrics:
    def make_result(self):
        return SimulationResult(
            spec=make_predictor_spec("bimodal", cols=4),
            trace_name="t",
            predictions=np.array([True, False, True, True]),
            taken=np.array([True, True, True, False]),
        )

    def test_per_branch_misprediction(self):
        result = self.make_result()
        pc = np.array([0x100, 0x100, 0x200, 0x200], dtype=np.uint64)
        rates = per_branch_misprediction(result, pc)
        assert rates[0x100] == 0.5
        assert rates[0x200] == 0.5

    def test_per_branch_length_checked(self):
        with pytest.raises(ConfigurationError):
            per_branch_misprediction(
                self.make_result(), np.array([0x100], dtype=np.uint64)
            )

    def test_warmup_trim(self):
        result = self.make_result()
        # Full rate 2/4; trimming the first 25% removes one correct
        # prediction -> 2/3.
        assert warmup_trimmed_rate(result, 0.25) == pytest.approx(2 / 3)

    def test_warmup_bounds(self):
        with pytest.raises(ConfigurationError):
            warmup_trimmed_rate(self.make_result(), 1.0)


class TestDiffSurfaces:
    def test_signs_follow_paper_convention(self):
        gas = make_surface("gas", "t", {4: [0.10] * 5})
        gshare = make_surface("gshare", "t", {4: [0.08] * 5})
        grid = diff_surfaces(gas, gshare)
        # gshare better -> positive percentage points.
        assert grid.cell(4, 2) == pytest.approx(2.0)
        assert len(grid.positive_cells()) == 5

    def test_mean_abs(self):
        gas = make_surface("gas", "t", {4: [0.10] * 5})
        gshare = make_surface("gshare", "t", {4: [0.09] * 5})
        grid = diff_surfaces(gas, gshare)
        assert grid.mean_abs_difference() == pytest.approx(1.0)

    def test_trace_mismatch_rejected(self):
        a = make_surface("gas", "t1", {4: [0.1] * 5})
        b = make_surface("gshare", "t2", {4: [0.1] * 5})
        with pytest.raises(ConfigurationError):
            diff_surfaces(a, b)

    def test_tier_mismatch_rejected(self):
        a = make_surface("gas", "t", {4: [0.1] * 5})
        b = make_surface("gshare", "t", {5: [0.1] * 6})
        with pytest.raises(ConfigurationError):
            diff_surfaces(a, b)

    def test_missing_cell_rejected(self):
        a = make_surface("gas", "t", {4: [0.1] * 5})
        b = make_surface("gshare", "t", {4: [0.1] * 5})
        grid = diff_surfaces(a, b)
        with pytest.raises(ConfigurationError):
            grid.cell(4, 9)


class TestBestConfigurations:
    def surfaces(self):
        tiers = {
            n: [0.10 - 0.002 * r for r in range(n + 1)]
            for n in TABLE3_SIZE_BITS
        }
        gas = make_surface("gas", "b", tiers)
        pas = make_surface("pas", "b", tiers)
        # Give pas a first-level miss rate on one point.
        pas.tiers[9][3] = TierPoint(
            col_bits=6, row_bits=3, misprediction_rate=0.2,
            first_level_miss_rate=0.0266,
        )
        return {"GAs": gas, "PAs(1k)": pas}

    def test_rows_and_cells(self):
        rows = best_configurations("b", self.surfaces())
        assert [r.predictor_label for r in rows] == ["GAs", "PAs(1k)"]
        gas_row = rows[0]
        # Monotone rates -> best is the all-rows configuration.
        assert gas_row.best[9].row_bits == 9
        cells = gas_row.cells()
        assert len(cells) == 3
        assert "2^0x2^9" in cells[0]

    def test_miss_rate_propagates(self):
        rows = best_configurations("b", self.surfaces())
        pas_row = rows[1]
        assert pas_row.first_level_miss_rate == pytest.approx(0.0266)

    def test_crossover(self):
        a = make_surface("gas", "t", {4: [0.2] * 5, 6: [0.05] * 7})
        b = make_surface("pas", "t", {4: [0.1] * 5, 6: [0.08] * 7})
        assert crossover_size(a, b, [4, 6]) == 6
        assert crossover_size(b, a, [6]) is None
        with pytest.raises(ConfigurationError):
            crossover_size(a, b, [])


class TestRendering:
    def test_render_surface_marks_best(self):
        surface = make_surface("gas", "t", {4: [0.2, 0.1, 0.3, 0.4, 0.5]})
        text = render_surface(surface)
        assert "10.00*" in text
        assert "2^4" in text

    def test_render_aliasing_value(self):
        surface = TierSurface(scheme="gas", trace_name="t")
        surface.add(
            4,
            TierPoint(
                col_bits=4, row_bits=0, misprediction_rate=0.1,
                aliasing_rate=0.25,
            ),
        )
        text = render_surface(surface, value="aliasing", mark_best=False)
        assert "25.00" in text

    def test_render_unknown_value_rejected(self):
        surface = make_surface("gas", "t", {4: [0.1] * 5})
        with pytest.raises(ConfigurationError):
            render_surface(surface, value="entropy")

    def test_render_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            render_surface(TierSurface(scheme="gas", trace_name="t"))

    def test_render_grid(self):
        surface = make_surface("gas", "t", {4: [0.1] * 5})
        text = render_surface_grid({"espresso": surface})
        assert "== espresso ==" in text

    def test_render_series(self):
        text = render_series(
            {"espresso": [0.1, 0.05]},
            x_labels=["2^4", "2^5"],
            title="Fig 2",
        )
        assert "Fig 2" in text and "10.00" in text

    def test_render_series_validates_lengths(self):
        with pytest.raises(ConfigurationError):
            render_series({"x": [0.1]}, x_labels=["a", "b"], title="t")
        with pytest.raises(ConfigurationError):
            render_series({}, x_labels=[], title="t")


class TestBranchReport:
    @pytest.fixture(scope="class")
    def sim(self):
        trace = make_workload("compress", length=8_000, seed=4)
        result = simulate(make_predictor_spec("bimodal", cols=64), trace)
        return result, trace

    def test_breakdown_sums_to_total(self, sim):
        result, trace = sim
        records = branch_breakdown(result, trace)
        assert sum(r.mispredictions for r in records) == (
            result.mispredictions
        )
        assert sum(r.executions for r in records) == len(trace)

    def test_sorted_by_contribution(self, sim):
        result, trace = sim
        records = branch_breakdown(result, trace)
        misses = [r.mispredictions for r in records]
        assert misses == sorted(misses, reverse=True)

    def test_length_mismatch_rejected(self, sim):
        result, trace = sim
        with pytest.raises(ConfigurationError):
            branch_breakdown(result, trace.slice(0, 10))

    def test_concentration(self, sim):
        result, trace = sim
        records = branch_breakdown(result, trace)
        half = concentration(records, 0.5)
        assert 1 <= half <= len(records)
        assert concentration(records, 1.0) <= len(records)

    def test_concentration_validation(self):
        with pytest.raises(ConfigurationError):
            concentration([], 0.5)

    def test_concentration_no_misses(self):
        record = SimulationResult(
            spec=make_predictor_spec("bimodal", cols=4),
            trace_name="t",
            predictions=np.array([True]),
            taken=np.array([True]),
        )
        from repro.traces import BranchTrace

        trace = BranchTrace.from_records([(0x100, True)])
        records = branch_breakdown(record, trace)
        assert concentration(records, 0.5) == 0

    def test_report_renders(self, sim):
        result, trace = sim
        text = branch_report(result, trace, top=5)
        assert "share of misses" in text
        assert "produce half" in text
