"""CLI tests."""

import json

import pytest

from repro.cli import EXIT_ERROR, EXIT_INTERRUPT, main
from repro.runtime import clear_faults, install_faults


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    yield
    clear_faults()


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

    def test_interrupt_exits_130_and_flushes_journal(self, tmp_path, capsys):
        install_faults("sweep.point:interrupt@3")
        code = main(self.RUN + ["--checkpoint-dir", str(tmp_path)])
        assert code == EXIT_INTERRUPT
        assert "interrupted" in capsys.readouterr().err
        # The two points completed before the injected Ctrl-C are
        # already persisted, one result artifact each.
        assert len(list(tmp_path.glob("rs-*.json"))) == 2

    def test_interrupted_run_resumes_to_identical_output(
        self, tmp_path, capsys
    ):
        assert main(self.RUN) == 0
        baseline = capsys.readouterr().out
        install_faults("sweep.point:interrupt@3")
        assert (
            main(self.RUN + ["--checkpoint-dir", str(tmp_path)])
            == EXIT_INTERRUPT
        )
        clear_faults()
        capsys.readouterr()
        assert main(self.RUN + ["--checkpoint-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == baseline

    def test_no_resume_discards_journal(self, tmp_path, capsys):
        install_faults("sweep.point:interrupt@3")
        main(self.RUN + ["--checkpoint-dir", str(tmp_path)])
        clear_faults()
        metrics = tmp_path / "m.json"
        code = main(
            self.RUN + ["--checkpoint-dir", str(tmp_path), "--no-resume",
                        "--metrics-out", str(metrics)]
        )
        assert code == 0
        # Nothing was restored: all five points were recomputed.
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["sweep.points_computed"] == 5
        assert counters["sweep.points_restored"] == 0

    def test_paranoid_run_succeeds(self, capsys):
        assert main(self.RUN + ["--paranoid"]) == 0
        assert "2^4" in capsys.readouterr().out

    def test_engine_fault_degrades_instead_of_dying(self, capsys):
        assert main(self.RUN) == 0
        baseline = capsys.readouterr().out
        install_faults("engine.vectorized:raise")
        assert main(self.RUN) == 0
        assert capsys.readouterr().out == baseline
