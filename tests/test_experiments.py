"""Smoke and contract tests for every experiment module.

Shape (paper-faithfulness) assertions live in test_shapes.py; these
tests check that each experiment runs, renders, and returns the
structured data its bench and the EXPERIMENTS.md generator rely on.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentOptions,
    list_experiments,
    run_experiment,
)
from repro.experiments.runner import experiment_title, get_experiment

#: Small, fast options reused by every smoke test.
FAST = dict(length=6_000, seed=1)


def fast_options(**overrides):
    merged = {**FAST, **overrides}
    return ExperimentOptions(**merged)


#: The paper's fourteen benchmarks in report order: IBS-Ultrix, then
#: SPECint92, each alphabetical.
PAPER_FOURTEEN = [
    "groff", "gs", "mpeg_play", "nroff", "real_gcc", "sdet", "verilog",
    "video_play", "compress", "eqntott", "espresso", "gcc", "sc", "xlisp",
]


class TestRegistry:
    def test_all_experiments_registered(self):
        ids = list_experiments()
        assert len(ids) == 19
        for expected in (
            ("table1", "table2", "table3")
            + tuple(f"fig{i}" for i in range(2, 11))
            + (
                "ablation_aliasing",
                "ablation_dealias",
                "ablation_budget",
                "ablation_tagged",
                "ablation_pipeline",
                "ablation_multiprogramming",
                "ablation_first_level",
            )
        ):
            assert expected in ids

    def test_titles_resolve(self):
        for experiment_id in list_experiments():
            assert experiment_title(experiment_id)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig99")

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment(
                "table2",
                fast_options(benchmarks=["doom"]),
            )


class TestCharacterizationExperiments:
    def test_table1_rows_for_all_benchmarks(self):
        result = run_experiment(
            "table1", fast_options(benchmarks=["espresso", "sdet"])
        )
        assert "espresso" in result.text and "sdet" in result.text
        assert set(result.data["stats"]) == {"espresso", "sdet"}

    def test_table2_buckets_partition(self):
        result = run_experiment(
            "table2", fast_options(benchmarks=["espresso"])
        )
        breakdown = result.data["breakdowns"]["espresso"]
        assert sum(breakdown.branch_counts) == breakdown.total_static


class TestSeriesExperiments:
    def test_fig2_series_lengths(self):
        result = run_experiment(
            "fig2",
            fast_options(benchmarks=["compress", "mpeg_play"],
                         size_bits=[4, 6, 8]),
        )
        series = result.data["series"]
        assert set(series) == {"compress", "mpeg_play"}
        assert all(len(v) == 3 for v in series.values())

    @pytest.mark.parametrize("experiment_id", ["fig2", "fig3"])
    def test_default_series_are_the_paper_benchmarks(self, experiment_id):
        # The real_* CFG kernels are workloads, not paper benchmarks:
        # they stay selectable with --benchmark but are not defaults.
        result = run_experiment(
            experiment_id, ExperimentOptions(length=2_000, size_bits=[4])
        )
        assert list(result.data["series"]) == PAPER_FOURTEEN

    def test_fig3_rates_are_probabilities(self):
        result = run_experiment(
            "fig3", fast_options(benchmarks=["compress"], size_bits=[4, 6])
        )
        for rates in result.data["series"].values():
            assert all(0 <= r <= 1 for r in rates)


class TestSurfaceExperiments:
    @pytest.mark.parametrize("experiment_id", ["fig4", "fig6", "fig9"])
    def test_surfaces_cover_requested_tiers(self, experiment_id):
        result = run_experiment(
            experiment_id,
            fast_options(benchmarks=["espresso"], size_bits=[4, 6]),
        )
        surface = result.data["surfaces"]["espresso"]
        assert surface.sizes == [4, 6]
        assert len(surface.tier(6)) == 7
        assert "*" in result.text  # best-in-tier marker rendered

    def test_fig5_carries_aliasing(self):
        result = run_experiment(
            "fig5", fast_options(benchmarks=["espresso"], size_bits=[5])
        )
        surface = result.data["surfaces"]["espresso"]
        assert all(p.aliasing_rate is not None for p in surface.tier(5))

    def test_fig10_one_surface_per_bht_size(self):
        result = run_experiment("fig10", fast_options(size_bits=[5, 7]))
        assert set(result.data["surfaces"]) == {
            "128 entries 4-way",
            "1024 entries 4-way",
            "2048 entries 4-way",
        }
        assert "first-level miss rate" in result.text


class TestDiffExperiments:
    @pytest.mark.parametrize("experiment_id", ["fig7", "fig8"])
    def test_grids_have_all_cells(self, experiment_id):
        result = run_experiment(
            experiment_id, fast_options(size_bits=[4, 6])
        )
        grid = result.data["grid"]
        assert len(grid.cells) == 5 + 7
        assert grid.trace_name.startswith("mpeg_play")
        assert "percentage points" in result.text


class TestTable3:
    def test_rows_per_scheme_and_budget(self):
        result = run_experiment(
            "table3",
            fast_options(benchmarks=["espresso"], size_bits=[5, 7]),
        )
        rows = result.data["rows"]["espresso"]
        labels = [r.predictor_label for r in rows]
        assert labels == [
            "GAs", "gshare", "PAs(inf)", "PAs(2k)", "PAs(1k)", "PAs(128)"
        ]
        for row in rows:
            assert set(row.best) == {5, 7}
        # Finite PAs rows expose a first-level miss rate.
        assert rows[5].first_level_miss_rate is not None
        assert rows[0].first_level_miss_rate is None


class TestAblations:
    def test_aliasing_ablation_shares_bounded(self):
        result = run_experiment(
            "ablation_aliasing", fast_options(benchmarks=["mpeg_play"])
        )
        for record in result.data.values():
            assert 0.0 <= record["all_ones_share"] <= 1.0
            assert 0.0 <= record["stats"].harmless_share <= 1.0

    def test_dealias_ablation_includes_contenders(self):
        result = run_experiment(
            "ablation_dealias", fast_options(benchmarks=["mpeg_play"])
        )
        assert "gskew" in result.text
        assert "bimode" in result.text
        assert "tournament" in result.text

    def test_budget_ablation_reports_bits(self):
        result = run_experiment(
            "ablation_budget", fast_options(benchmarks=["mpeg_play"])
        )
        assert "state bits" in result.text
        assert len(result.data) == 4

    def test_tagged_ablation_reports_both_sides(self):
        result = run_experiment(
            "ablation_tagged", fast_options(benchmarks=["mpeg_play"])
        )
        record = result.data[("mpeg_play", 9)]
        assert set(record) == {
            "bimodal",
            "bimodal_aliasing",
            "tagged_bimodal",
            "gshare",
            "tagged_gshare",
            "tagged_gshare_miss",
        }
        assert 0 <= record["tagged_gshare_miss"] <= 1

    def test_pipeline_ablation_metrics(self):
        result = run_experiment(
            "ablation_pipeline", fast_options(benchmarks=["mpeg_play"])
        )
        metrics = result.data[("mpeg_play", "bimodal")]
        assert metrics.ipc > 0
        assert "speedup" in result.text

    def test_multiprogramming_ablation_quanta(self):
        result = run_experiment(
            "ablation_multiprogramming", fast_options()
        )
        assert ("bimodal 4k", "baseline") in result.data
        assert ("bimodal 4k", 100) in result.data

    def test_first_level_ablation_keys(self):
        result = run_experiment(
            "ablation_first_level", fast_options(benchmarks=["espresso"])
        )
        assert ("espresso", "inf") in result.data
        assert ("espresso", "pas", 128) in result.data
        assert ("espresso", "sas", 128) in result.data


class TestResultObject:
    def test_show_prints(self, capsys):
        result = run_experiment(
            "table2", fast_options(benchmarks=["espresso"])
        )
        result.show()
        out = capsys.readouterr().out
        assert "table2" in out
