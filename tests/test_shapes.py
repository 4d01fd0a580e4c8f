"""Machine-checked shape assertions: DESIGN.md section 5.

Each test asserts one qualitative finding of the paper on
reduced-length traces (absolute rates are not compared — the substrate
is a calibrated synthetic model, see DESIGN.md section 2).
"""

import pytest

from repro.experiments import ExperimentOptions, run_experiment

#: Shared moderate-length options; class-scoped fixtures cache results.
LENGTH = 60_000


def options(**overrides):
    merged = dict(length=LENGTH, seed=1)
    merged.update(overrides)
    return ExperimentOptions(**merged)


@pytest.fixture(scope="module")
def fig2_result():
    return run_experiment(
        "fig2",
        options(
            benchmarks=["compress", "xlisp", "mpeg_play", "real_gcc"],
            size_bits=[6, 9, 13],
        ),
    )


@pytest.fixture(scope="module")
def fig4_result():
    return run_experiment(
        "fig4",
        options(benchmarks=["espresso", "mpeg_play", "real_gcc"],
                size_bits=[6, 13]),
    )


@pytest.fixture(scope="module")
def fig9_result():
    return run_experiment(
        "fig9",
        options(benchmarks=["mpeg_play", "real_gcc"], size_bits=[7, 13]),
    )


class TestFig2Shape:
    def test_small_spec_saturates(self, fig2_result):
        """compress/xlisp gain almost nothing beyond ~2^9 counters."""
        series = fig2_result.data["series"]
        for name in ("compress", "xlisp"):
            mid, large = series[name][1], series[name][2]
            assert mid - large < 0.02, name

    def test_large_programs_keep_improving(self, fig2_result):
        """IBS benchmarks still improve from 2^9 to 2^13 (mpeg_play's
        tail is thinner at reproduction lengths, so its margin is
        smaller but must stay positive)."""
        series = fig2_result.data["series"]
        assert series["real_gcc"][1] - series["real_gcc"][2] > 0.008
        assert series["mpeg_play"][1] - series["mpeg_play"][2] > 0.0

    def test_small_tables_hurt_large_programs_more(self, fig2_result):
        """The 2^6 -> 2^13 improvement is far larger for the
        branch-rich programs."""
        series = fig2_result.data["series"]
        gain = {k: v[0] - v[2] for k, v in series.items()}
        assert gain["real_gcc"] > gain["compress"] + 0.02


class TestFig3Shape:
    def test_history_length_helps_everywhere(self):
        result = run_experiment(
            "fig3",
            options(benchmarks=["espresso", "real_gcc"], size_bits=[6, 13]),
        )
        for name, rates in result.data["series"].items():
            assert rates[1] < rates[0], name

    def test_small_benchmark_better_at_short_history(self):
        result = run_experiment(
            "fig3",
            options(benchmarks=["espresso", "real_gcc"], size_bits=[8]),
        )
        series = result.data["series"]
        assert series["espresso"][0] < series["real_gcc"][0]


class TestFig4Shape:
    def test_small_tables_best_at_address_edge_for_large_programs(
        self, fig4_result
    ):
        for name in ("mpeg_play", "real_gcc"):
            surface = fig4_result.data["surfaces"][name]
            assert surface.best_in_tier(6).row_bits <= 1, name

    def test_rows_pay_off_at_large_tables(self, fig4_result):
        for name in ("espresso", "mpeg_play"):
            surface = fig4_result.data["surfaces"][name]
            assert surface.best_in_tier(13).row_bits >= 1, name

    def test_row_heavy_penalty_worse_for_large_programs(self, fig4_result):
        """The right (GAg) edge of the big tier costs much more for
        real_gcc than for espresso, relative to its own best."""
        surfaces = fig4_result.data["surfaces"]

        def right_edge_penalty(name):
            surface = surfaces[name]
            tier = surface.tier(13)
            right = surface.point(13, 13).misprediction_rate
            best = surface.best_in_tier(13).misprediction_rate
            del tier
            return right - best

        assert right_edge_penalty("real_gcc") > right_edge_penalty(
            "espresso"
        )


class TestFig5Shape:
    def test_aliasing_grows_with_rows_for_large_program(self):
        result = run_experiment(
            "fig5", options(benchmarks=["real_gcc"], size_bits=[10])
        )
        surface = result.data["surfaces"]["real_gcc"]
        address_edge = surface.point(10, 0).aliasing_rate
        row_heavy = surface.point(10, 8).aliasing_rate
        assert row_heavy > address_edge

    def test_aliasing_falls_with_table_size(self):
        result = run_experiment(
            "fig5", options(benchmarks=["mpeg_play"], size_bits=[6, 13])
        )
        surface = result.data["surfaces"]["mpeg_play"]
        assert (
            surface.point(13, 0).aliasing_rate
            < surface.point(6, 0).aliasing_rate
        )


class TestFig7Fig8Shape:
    @pytest.fixture(scope="class")
    def fig7(self):
        return run_experiment("fig7", options(size_bits=[6, 10]))

    def test_gshare_differences_small(self, fig7):
        grid = fig7.data["grid"]
        assert grid.mean_abs_difference() < 3.0  # percentage points

    def test_gshare_wins_cluster_row_heavy(self, fig7):
        grid = fig7.data["grid"]
        wins = grid.positive_cells()
        if wins:
            mean_row_share = sum(r / n for n, r in wins) / len(wins)
            assert mean_row_share > 0.4

    def test_path_gains_do_not_reach_best_configs(self):
        """Paper: path's aliasing reductions land in configurations
        'for which GAs performs the best' — not. At the best-in-tier
        shape, path must not meaningfully beat GAs."""
        result = run_experiment("fig8", options(size_bits=[10]))
        grid = result.data["grid"]
        best = result.data["base"].best_in_tier(10)
        assert grid.cell(10, best.row_bits) < 0.5

    def test_path_wins_cluster_in_row_heavy_configs(self):
        """Where path does win, it is in few-column configurations
        (its target chunks substitute for the address bits those
        configurations lack)."""
        result = run_experiment("fig8", options(size_bits=[10]))
        grid = result.data["grid"]
        wins = grid.positive_cells()
        if wins:
            mean_row_share = sum(r / n for n, r in wins) / len(wins)
            assert mean_row_share > 0.4


class TestFig9Fig10Shape:
    def test_pas_single_column_near_optimal(self, fig9_result):
        for name, surface in fig9_result.data["surfaces"].items():
            best = surface.best_in_tier(13).misprediction_rate
            single_column = surface.point(13, 13).misprediction_rate
            assert single_column - best < 0.02, name

    def test_pas_size_insensitive(self, fig9_result):
        """Growing the second level 64x buys PAs(inf) very little."""
        for name, surface in fig9_result.data["surfaces"].items():
            small = surface.best_in_tier(7).misprediction_rate
            large = surface.best_in_tier(13).misprediction_rate
            assert small - large < 0.03, name

    def test_fig10_smaller_bht_uniformly_worse(self):
        result = run_experiment("fig10", options(size_bits=[10]))
        surfaces = result.data["surfaces"]
        tiny = surfaces["128 entries 4-way"]
        big = surfaces["2048 entries 4-way"]
        worse = sum(
            tiny.point(10, r).misprediction_rate
            > big.point(10, r).misprediction_rate
            for r in range(1, 11)
        )
        assert worse >= 8  # nearly uniform degradation


class TestTable3Shape:
    @pytest.fixture(scope="class")
    def table3(self):
        return run_experiment(
            "table3",
            options(benchmarks=["mpeg_play", "real_gcc"],
                    size_bits=[9, 13]),
        )

    def test_pas_beats_global_at_small_budget(self, table3):
        """Paper: 'The advantage of PAs is more pronounced for smaller
        second-level tables'."""
        for name, rows in table3.data["rows"].items():
            by_label = {r.predictor_label: r for r in rows}
            pas = by_label["PAs(2k)"].best[9].misprediction_rate
            gas = by_label["GAs"].best[9].misprediction_rate
            assert pas < gas, name

    def test_globals_close_gap_at_large_budget(self, table3):
        """The GAs-over-PAs deficit shrinks from 512 to 8192 counters."""
        for name, rows in table3.data["rows"].items():
            by_label = {r.predictor_label: r for r in rows}
            gap_small = (
                by_label["GAs"].best[9].misprediction_rate
                - by_label["PAs(2k)"].best[9].misprediction_rate
            )
            gap_large = (
                by_label["GAs"].best[13].misprediction_rate
                - by_label["PAs(2k)"].best[13].misprediction_rate
            )
            assert gap_large < gap_small, name

    def test_pas128_is_crippled(self, table3):
        """A 128-entry first level makes PAs worse than everything."""
        for name, rows in table3.data["rows"].items():
            by_label = {r.predictor_label: r for r in rows}
            crippled = by_label["PAs(128)"].best[13].misprediction_rate
            healthy = by_label["PAs(1k)"].best[13].misprediction_rate
            assert crippled > healthy, name

    def test_first_level_miss_rates_ordered(self, table3):
        """Smaller first levels miss at least as often; the 128-entry
        table misses strictly more (1k vs 2k can tie at reproduction
        trace lengths, where the working set fits in both)."""
        for name, rows in table3.data["rows"].items():
            by_label = {r.predictor_label: r for r in rows}
            assert (
                by_label["PAs(128)"].first_level_miss_rate
                > by_label["PAs(1k)"].first_level_miss_rate
                >= by_label["PAs(2k)"].first_level_miss_rate
            ), name


class TestDealiasShape:
    def test_dealiased_designs_beat_plain_gshare_when_aliased(self):
        """At a small budget on a branch-rich benchmark, at least two
        of the de-aliased designs beat single-column gshare."""
        result = run_experiment(
            "ablation_dealias", options(benchmarks=["real_gcc"])
        )
        data = result.data
        budget = 9
        gshare = data[("real_gcc", budget, "gshare(1-col)")]
        winners = [
            label
            for label in ("agree", "gskew(3 banks)", "bimode(2 banks)",
                          "tournament")
            if data[("real_gcc", budget, label)] < gshare
        ]
        assert len(winners) >= 2, winners


class TestBudgetShape:
    def test_history_allocation_beats_counters(self):
        """Paper section 5: spending the bit budget on first-level
        entries beats spending it all on second-level counters."""
        result = run_experiment(
            "ablation_budget", options(benchmarks=["real_gcc"])
        )
        data = result.data
        counters = data[
            ("real_gcc", "32768-counter address-indexed (65,536 bits)")
        ]
        pas = data[
            (
                "real_gcc",
                "1024 counters + 10-bit histories for 4096 branches "
                "(43,008 bits)",
            )
        ]
        assert pas < counters
