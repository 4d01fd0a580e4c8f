"""CLI tests."""

import json

import pytest

from repro.cli import EXIT_ERROR, EXIT_INTERRUPT, main


class TestListing:
    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table3" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "espresso" in out and "ibs-ultrix" in out

    def test_workloads_lists_real_suite(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "real_quicksort" in out
        assert "real_wordcount" in out
        # The real rows show the suite marker, not profile statistics.
        real_line = next(
            line for line in out.splitlines()
            if line.startswith("real_quicksort")
        )
        assert "real" in real_line
        assert "90%-cover" not in real_line


class TestRun:
    def test_run_table2(self, capsys):
        code = main(
            ["run", "table2", "--length", "4000", "--benchmark", "espresso"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "espresso" in out

    def test_run_fig2_with_sizes(self, capsys):
        code = main(
            [
                "run", "fig2", "--length", "3000",
                "--benchmark", "compress", "--sizes", "4", "6",
            ]
        )
        assert code == 0
        assert "2^6" in capsys.readouterr().out

    def test_run_accepts_real_benchmark(self, capsys):
        code = main(
            ["run", "fig2", "--length", "3000",
             "--benchmark", "real_quicksort", "--sizes", "4"]
        )
        assert code == 0
        assert "real_quicksort" in capsys.readouterr().out

    def test_run_table1_defaults_to_the_paper_benchmarks(self, capsys):
        assert main(["run", "table1", "--length", "2000"]) == 0
        out = capsys.readouterr().out
        suites = [
            line.split()[1] for line in out.splitlines()
            if line.split()[1:2] in (["specint92"], ["ibs-ultrix"])
        ]
        assert len(suites) == 14
        assert suites.count("ibs-ultrix") == 8
        assert "real_quicksort" not in out

    def test_run_table1_accepts_real_benchmark(self, capsys):
        code = main(
            ["run", "table1", "--length", "2000",
             "--benchmark", "real_quicksort"]
        )
        assert code == 0
        (row,) = [
            line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("real_quicksort")
        ]
        # No paper row: suite "real", both paper-reference columns "-".
        assert row[1] == "real"
        assert row[6] == row[8] == "-"

    def test_run_writes_nothing_under_home(
        self, tmp_path, monkeypatch, capsys
    ):
        # A run writes only the files it is asked for: no per-user
        # history or cache, whatever the environment says.
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        code = main(
            ["run", "fig4", "--benchmark", "compress", "--length", "2000",
             "--sizes", "4"]
        )
        assert code == 0
        assert list(home.rglob("*")) == []

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "fig99", "--length", "1000"]) == EXIT_ERROR
        assert "unknown experiment" in capsys.readouterr().err


class TestCharacterize:
    def test_characterize(self, capsys):
        code = main(["characterize", "compress", "--length", "4000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "static branches" in out
        assert "50/40/9/1" in out

    def test_unknown_benchmark(self, capsys):
        assert main(["characterize", "doom", "--length", "100"]) == EXIT_ERROR


class TestSimulate:
    def test_simulate_gshare(self, capsys):
        code = main(
            [
                "simulate", "--scheme", "gshare", "--rows", "64",
                "--benchmark", "compress", "--length", "3000",
            ]
        )
        assert code == 0
        assert "mispredict=" in capsys.readouterr().out

    def test_simulate_pas_reports_l1(self, capsys):
        code = main(
            [
                "simulate", "--scheme", "pas", "--rows", "16",
                "--cols", "4", "--bht-entries", "128",
                "--benchmark", "compress", "--length", "3000",
            ]
        )
        assert code == 0
        assert "L1-miss=" in capsys.readouterr().out

    def test_bad_spec_errors(self, capsys):
        code = main(
            ["simulate", "--scheme", "gag", "--rows", "12",
             "--length", "100"]
        )
        assert code == EXIT_ERROR

    def test_error_is_one_line_without_traceback(self, capsys):
        assert main(["run", "fig99", "--length", "100"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestAnalyze:
    def test_predictability_renders_table_and_findings(self, capsys):
        code = main(
            ["analyze", "predictability", "real_collatz",
             "--length", "3000", "--top", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "predictability of real_collatz" in out
        assert "predict.summary" in out
        assert "repro check [analyze.predictability]" in out

    def test_predictability_works_on_synthetic_workloads(self, capsys):
        code = main(
            ["analyze", "predictability", "compress", "--length", "3000"]
        )
        assert code == 0
        assert "predictability of compress" in capsys.readouterr().out

    def test_predictability_json_payload(self, capsys):
        import json

        code = main(
            ["analyze", "predictability", "real_wordcount",
             "--length", "3000", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"] == "real_wordcount"
        assert payload["branches"]
        assert payload["findings"][0]["check"] == "predict.summary"
        for branch in payload["branches"]:
            assert branch["class"] in ("biased", "correlated", "hard")

    def test_predictability_strict_fails_on_hard_branches(self, capsys):
        # real_wordcount's interior branches are near-coin-flip under
        # short history: strict mode must surface them as blocking.
        code = main(
            ["analyze", "predictability", "real_wordcount",
             "--length", "8000", "--history-bits", "2", "--strict"]
        )
        out = capsys.readouterr().out
        if "predict.hard-branch" in out:
            assert code == 1
        else:  # pragma: no cover - distribution shifted
            assert code == 0

    def test_predictability_history_bits_validated(self, capsys):
        code = main(
            ["analyze", "predictability", "real_collatz",
             "--length", "1000", "--history-bits", "40"]
        )
        assert code == EXIT_ERROR

    def test_unknown_benchmark_errors(self, capsys):
        code = main(
            ["analyze", "predictability", "doom", "--length", "100"]
        )
        assert code == EXIT_ERROR

    def test_cfg_on_real_workload(self, capsys):
        assert main(["analyze", "cfg", "real_collatz"]) == 0
        out = capsys.readouterr().out
        assert "collatz_steps" in out
        assert "blocks=" in out and "reducible=" in out
        assert "back-edge" in out or "loop-exit" in out

    def test_cfg_on_module_qualname(self, capsys):
        assert main(["analyze", "cfg", "json:dumps"]) == 0
        out = capsys.readouterr().out
        assert "dumps" in out and "guard" in out

    def test_cfg_json_output(self, capsys):
        import json

        assert main(["analyze", "cfg", "real_binsearch", "--json"]) == 0
        summaries = json.loads(capsys.readouterr().out)
        assert summaries
        for summary in summaries:
            assert summary["blocks"] >= 1
            for branch in summary["branches"]:
                assert branch["class"] in (
                    "back-edge", "loop-exit", "guard"
                )

    def test_cfg_rejects_non_functions(self, capsys):
        assert main(["analyze", "cfg", "json:__name__"]) == EXIT_ERROR
        assert main(["analyze", "cfg", "nonesuch"]) == EXIT_ERROR
        assert (
            main(["analyze", "cfg", "nonesuch_module:f"]) == EXIT_ERROR
        )


class TestResilience:
    RUN = ["run", "fig4", "--length", "2000",
           "--benchmark", "compress", "--sizes", "4"]

    def test_interrupt_exits_130_and_stores_finished_points(
        self, tmp_path, capsys, sigint_on_point
    ):
        sigint_on_point(3)
        code = main(self.RUN + ["--checkpoint-dir", str(tmp_path)])
        assert code == EXIT_INTERRUPT
        assert "interrupted" in capsys.readouterr().err
        # The two points completed before Ctrl-C and the one in flight
        # when it arrived are persisted, one result artifact each.
        assert len(list(tmp_path.glob("rs-*.json"))) == 3

    def test_interrupted_run_resumes_to_identical_output(
        self, tmp_path, capsys, sigint_on_point
    ):
        assert main(self.RUN) == 0
        baseline = capsys.readouterr().out
        sigint_on_point(3)
        assert (
            main(self.RUN + ["--checkpoint-dir", str(tmp_path)])
            == EXIT_INTERRUPT
        )
        capsys.readouterr()
        assert main(self.RUN + ["--checkpoint-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == baseline

    def _counters(self, argv, metrics):
        assert main(argv + ["--metrics-out", str(metrics)]) == 0
        return json.loads(metrics.read_text())["counters"]

    def test_no_cache_recomputes_a_populated_checkpoint(
        self, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        run = self.RUN + ["--checkpoint-dir", str(ckpt)]
        assert main(run) == 0
        baseline = capsys.readouterr().out
        counters = self._counters(
            run + ["--no-cache"], tmp_path / "m.json"
        )
        # Nothing was read: all five points were recomputed and
        # written back over identical bytes.
        assert counters["sweep.points_computed"] == 5
        assert counters["sweep.points_restored"] == 0
        assert counters["cache.hits"] == 0
        assert capsys.readouterr().out == baseline
        assert len(list(ckpt.glob("rs-*.json"))) == 5

    def test_checkpoint_dir_is_the_only_store(
        self, tmp_path, capsys, monkeypatch
    ):
        ckpt, env_store = tmp_path / "ckpt", tmp_path / "env"
        monkeypatch.setenv("REPRO_RESULT_STORE", str(env_store))
        assert main(self.RUN) == 0
        baseline = capsys.readouterr().out
        for child in env_store.iterdir():
            child.unlink()
        run = self.RUN + ["--checkpoint-dir", str(ckpt)]
        counters = self._counters(run, tmp_path / "m1.json")
        assert counters["cache.misses"] == 5
        assert capsys.readouterr().out == baseline
        assert len(list(ckpt.glob("rs-*.json"))) == 5
        assert list(env_store.iterdir()) == []
        counters = self._counters(run, tmp_path / "m2.json")
        assert counters["sweep.points_restored"] == 5
        assert counters["cache.hits"] == 5
        assert counters["sweep.points_computed"] == 0
        assert capsys.readouterr().out == baseline
        assert list(env_store.iterdir()) == []

    def test_paranoid_run_reads_no_point(self, tmp_path, capsys):
        run = self.RUN + ["--checkpoint-dir", str(tmp_path / "ckpt")]
        assert main(run) == 0
        counters = self._counters(
            run + ["--paranoid"], tmp_path / "m.json"
        )
        assert counters["sweep.points_restored"] == 0
        assert counters["sweep.points_computed"] == 5
        assert counters["cache.hits"] == counters["cache.misses"] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            RUN + ["--resume"],
            RUN + ["--no-precheck"],
            RUN + ["--dashboard"],
            RUN + ["--plan-from-estimate", "0"],
            ["store", "verify"],
            RUN + ["--profile"],
            RUN + ["--trace-out", "t.json", "--trace-out-format", "chrome"],
            ["obs", "summarize", "m.json", "--phases"],
            ["chaos"],
            ["obs", "history"],
            ["obs", "diff", "a", "b"],
            ["obs", "regress"],
            ["obs", "export-prom", "x"],
            ["check", "dealias"],
            ["check", "--validate"],
            ["check", "--micro", "mixed-field"],
        ],
        ids=["resume", "no-precheck", "dashboard", "plan-from-estimate",
             "store-verify", "profile", "trace-out-format",
             "summarize-phases", "chaos", "obs-history", "obs-diff",
             "obs-regress", "obs-export-prom", "check-dealias",
             "check-validate", "check-micro"],
    )
    def test_removed_options_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    def test_paranoid_run_succeeds(self, capsys):
        assert main(self.RUN + ["--paranoid"]) == 0
        assert "2^4" in capsys.readouterr().out

    def test_engine_fault_degrades_instead_of_dying(
        self, capsys, crashing_vectorized
    ):
        assert main(self.RUN) == 0
        baseline = capsys.readouterr().out
        crashing_vectorized()
        assert main(self.RUN) == 0
        assert capsys.readouterr().out == baseline
