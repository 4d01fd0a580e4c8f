"""Tests for export and trace interleaving."""

import csv
import io
import json

import pytest

from repro.analysis import (
    diff_grid_to_csv,
    series_to_csv,
    surface_to_csv,
    surface_to_json,
    surface_to_rows,
)
from repro.analysis.compare import DiffGrid
from repro.errors import ConfigurationError, TraceError
from repro.predictors import make_predictor_spec
from repro.sim.results import TierPoint, TierSurface
from repro.traces import BranchTrace, interleave_traces


def make_surface():
    surface = TierSurface(scheme="gas", trace_name="t")
    for n in (4, 5):
        for row_bits in range(n + 1):
            surface.add(
                n,
                TierPoint(
                    col_bits=n - row_bits,
                    row_bits=row_bits,
                    misprediction_rate=0.1 + 0.01 * row_bits,
                ),
            )
    return surface


class TestSurfaceExport:
    def test_rows_cover_all_points(self):
        rows = surface_to_rows(make_surface())
        assert len(rows) == 5 + 6
        assert sum(r["is_best_in_tier"] for r in rows) == 2

    def test_csv_parses_back(self):
        text = surface_to_csv(make_surface())
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 11
        assert parsed[0]["scheme"] == "gas"

    def test_json_parses_back(self):
        data = json.loads(surface_to_json(make_surface()))
        assert data[0]["trace"] == "t"
        assert {row["size_bits"] for row in data} == {4, 5}


class TestSeriesExport:
    def test_series_rows(self):
        text = series_to_csv({"espresso": [0.1, 0.2]}, ["2^4", "2^5"])
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == ["name", "x", "rate"]
        assert len(parsed) == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            series_to_csv({"x": [0.1]}, ["a", "b"])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            series_to_csv({}, [])


class TestDiffExport:
    def test_diff_rows_sorted(self):
        grid = DiffGrid(
            base_scheme="gas", other_scheme="gshare", trace_name="t",
            cells={(5, 1): 0.4, (4, 0): -0.2},
        )
        parsed = list(csv.reader(io.StringIO(diff_grid_to_csv(grid))))
        assert parsed[1][3:5] == ["4", "0"]
        assert parsed[2][3:5] == ["5", "1"]


class TestInterleave:
    def make(self, base, n, name):
        return BranchTrace.from_records(
            [(base + 4 * i, True) for i in range(n)], name=name
        )

    def test_round_robin_order(self):
        a = self.make(0x1000, 4, "a")
        b = self.make(0x2000, 4, "b")
        merged = interleave_traces([a, b], quantum=2)
        assert len(merged) == 8
        # First quantum of a, then of b, then the remainders.
        assert int(merged.pc[0]) == 0x1000
        assert int(merged.pc[2]) == 0x2000
        assert int(merged.pc[4]) == 0x1008

    def test_uneven_lengths(self):
        a = self.make(0x1000, 5, "a")
        b = self.make(0x2000, 2, "b")
        merged = interleave_traces([a, b], quantum=2)
        assert len(merged) == 7
        # b runs dry; a's tail continues alone.
        assert int(merged.pc[-1]) == 0x1000 + 4 * 4

    def test_validation(self):
        with pytest.raises(TraceError):
            interleave_traces([], quantum=4)
        with pytest.raises(TraceError):
            interleave_traces([self.make(0x1000, 2, "a")], quantum=0)

    def test_multiprogramming_hurts_prediction(self):
        """Context switches between working sets must cost accuracy
        versus running the same programs back to back."""
        from repro.sim import simulate
        from repro.workloads import make_workload

        a = make_workload("groff", length=15_000, seed=1)
        b = make_workload("verilog", length=15_000, seed=2)
        spec = make_predictor_spec("bimodal", cols=512)
        switched = simulate(spec, interleave_traces([a, b], quantum=200))
        sequential = simulate(spec, a.concat(b))
        assert (
            switched.misprediction_rate
            > sequential.misprediction_rate - 0.002
        )
