"""Chaos-harness tests: seeded scenario drawing and invariant checking.

The full matrix runs in CI (``repro chaos --seed 6 --scenarios 8``);
here we pin the deterministic scenario stream, run a small slice of
real scenarios end to end, and verify the harness actually *fails*
when an invariant breaks (a chaos harness that cannot fail tests
nothing).
"""

import os

import pytest

from repro.cli import main
from repro.exec.chaos import (
    _TEMPLATES,
    ChaosReport,
    ScenarioResult,
    draw_scenarios,
    run_chaos,
)
from repro.obs import reset_metrics, snapshot
from repro.runtime import clear_faults, parse_fault_spec


@pytest.fixture(autouse=True)
def _clean_runtime(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    clear_faults()
    reset_metrics()
    yield
    clear_faults()
    reset_metrics()


class TestScenarioDrawing:
    def test_deterministic_per_seed(self):
        first = draw_scenarios(6, 8)
        again = draw_scenarios(6, 8)
        assert [(s.name, s.fault_spec) for s in first] == [
            (s.name, s.fault_spec) for s in again
        ]
        other = draw_scenarios(7, 8)
        assert [s.fault_spec for s in first] != [
            s.fault_spec for s in other
        ]

    def test_every_spec_parses(self):
        for scenario in draw_scenarios(0, 24):
            plan = parse_fault_spec(scenario.fault_spec)
            assert plan.clauses

    def test_catalog_cycles_without_repeats_per_pass(self):
        size = len(_TEMPLATES)
        drawn = draw_scenarios(3, size)
        assert len({s.name for s in drawn}) == size  # one full catalog
        assert [s.index for s in drawn] == list(range(size))

    def test_catalog_covers_deaths_and_damaged_writes(self):
        specs = " ".join(spec for _, spec in _TEMPLATES)
        assert "exec.worker:kill" in specs
        assert "results.put:torn-write" in specs


class TestChaosRun:
    def test_small_matrix_holds_invariants(self):
        before = snapshot()["counters"]["chaos.scenarios"]
        report = run_chaos(
            seed=6, scenarios=2, workers=2, length=1_000, size_bits=(4,)
        )
        assert report.ok
        assert len(report.results) == 2
        assert all(r.duration_s >= 0 for r in report.results)
        assert (
            snapshot()["counters"]["chaos.scenarios"] == before + 2
        )
        rendered = report.render()
        assert "2/2 scenario(s) held the invariants -> PASS" in rendered

    def test_environment_restored_after_run(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path))
        run_chaos(seed=1, scenarios=1, workers=2, length=800, size_bits=(4,))
        assert "REPRO_FAULT_SPEC" not in os.environ
        assert os.environ["REPRO_RESULT_STORE"] == str(tmp_path)
        # Scenarios never read or fill a shared result store.
        assert not list(tmp_path.iterdir())

    def test_divergence_is_reported_as_failure(self, monkeypatch):
        # Sabotage the baseline comparison: if the harness cannot flag
        # a divergence, every other assertion here is theater.
        import repro.exec.chaos as chaos_mod

        real_cells = chaos_mod._surface_cells
        calls = {"n": 0}

        def lying_cells(surface):
            calls["n"] += 1
            cells = real_cells(surface)
            if calls["n"] > 1:  # leave the baseline intact
                cells = cells[:-1]
            return cells

        monkeypatch.setattr(chaos_mod, "_surface_cells", lying_cells)
        before = snapshot()["counters"]["chaos.failures"]
        report = run_chaos(
            seed=2, scenarios=1, workers=2, length=800, size_bits=(4,)
        )
        assert not report.ok
        assert "diverged" in report.results[0].detail
        assert snapshot()["counters"]["chaos.failures"] == before + 1
        assert "FAIL" in report.render()

    def test_report_ok_requires_results(self):
        assert not ChaosReport(seed=0, workers=2, scheme="gshare").ok


class TestChaosCli:
    def test_cli_small_matrix(self, capsys):
        code = main(
            [
                "chaos",
                "--seed",
                "6",
                "--scenarios",
                "2",
                "--length",
                "1000",
                "--sizes",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_progress_flag_streams_scenarios(self, capsys):
        code = main(
            [
                "chaos",
                "--seed",
                "6",
                "--scenarios",
                "1",
                "--length",
                "800",
                "--sizes",
                "4",
                "--progress",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "[chaos 1/1]" in captured.err


def test_scenario_result_shape():
    scenario = draw_scenarios(0, 1)[0]
    result = ScenarioResult(scenario=scenario, ok=True, duration_s=0.5)
    assert result.faults_injected == 0
    assert result.detail == ""
