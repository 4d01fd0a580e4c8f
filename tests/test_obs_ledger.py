"""Run-ledger tests: recording, recovery, history/diff/regress."""

import json

import pytest

from repro.cli import EXIT_ERROR, main
from repro.errors import ReproError
from repro.obs import get_tracer, reset_metrics
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    append_entry,
    diff_rows,
    git_revision,
    load_entries,
    record_run,
    recover_ledger,
    regress_report,
    render_diff,
    render_history,
    resolve_ledger_path,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    reset_metrics()
    get_tracer().reset()
    yield
    get_tracer().reset()
    reset_metrics()


@pytest.fixture
def ledger(tmp_path):
    """The per-test ledger path installed by the suite conftest."""
    return str(tmp_path / "ledger.jsonl")


def add_run(bench, bps, rev="r1", monkeypatch=None, **kwargs):
    if monkeypatch is not None:
        monkeypatch.setenv("REPRO_GIT_REV", rev)
    return record_run(
        bench, branches_per_sec=bps, wall_s=1.0, engine="vectorized", **kwargs
    )


class TestRecording:
    def test_record_run_round_trips(self, ledger):
        entry = add_run("fig2", 1e6)
        assert entry["schema"] == LEDGER_SCHEMA
        assert entry["git_rev"] == "testrev"  # pinned by conftest
        entries, bad = load_entries(ledger)
        assert bad == []
        assert len(entries) == 1
        assert entries[0]["bench"] == "fig2"
        assert entries[0]["branches_per_sec"] == 1e6
        assert entries[0]["workers"] == 1
        assert "counters" in entries[0] and "histograms" in entries[0]

    def test_empty_env_disables_recording(self, monkeypatch, ledger):
        monkeypatch.setenv("REPRO_LEDGER", "")
        assert resolve_ledger_path() is None
        assert record_run("fig2") is None
        assert load_entries(ledger) == ([], [])

    def test_explicit_path_beats_env(self, tmp_path):
        other = tmp_path / "elsewhere.jsonl"
        add_run("fig2", 1.0, path=str(other))
        entries, _ = load_entries(str(other))
        assert len(entries) == 1

    def test_git_revision_env_override(self):
        assert git_revision() == "testrev"

    def test_missing_ledger_is_empty(self, tmp_path):
        assert load_entries(str(tmp_path / "absent.jsonl")) == ([], [])


class TestRecovery:
    def test_torn_tail_skipped_on_load(self, ledger):
        add_run("fig2", 1.0)
        add_run("fig2", 2.0)
        with open(ledger, "a", encoding="ascii") as handle:
            handle.write('{"schema": "repro.ledger/1", "torn')
        entries, bad = load_entries(ledger)
        assert len(entries) == 2
        assert bad == [3]

    def test_recover_quarantines_and_truncates(self, ledger):
        add_run("fig2", 1.0)
        with open(ledger, "a", encoding="ascii") as handle:
            handle.write("garbage\n")
        dropped = recover_ledger(ledger)
        assert dropped == 1
        entries, bad = load_entries(ledger)
        assert len(entries) == 1 and bad == []
        quarantine = ledger + ".quarantine"
        assert "garbage" in open(quarantine, encoding="ascii").read()

    def test_recover_noop_on_clean_ledger(self, ledger):
        add_run("fig2", 1.0)
        assert recover_ledger(ledger) == 0

    def test_append_recovers_torn_tail_first(self, ledger):
        add_run("fig2", 1.0)
        with open(ledger, "a", encoding="ascii") as handle:
            handle.write('{"half')
        add_run("fig2", 2.0)
        entries, bad = load_entries(ledger)
        assert bad == []
        assert [e["branches_per_sec"] for e in entries] == [1.0, 2.0]

    def test_crc_tamper_detected(self, ledger):
        add_run("fig2", 1.0)
        text = open(ledger, encoding="ascii").read()
        with open(ledger, "w", encoding="ascii") as handle:
            handle.write(text.replace('"bench": "fig2"', '"bench": "fig9"'))
        entries, bad = load_entries(ledger)
        assert entries == [] and bad == [1]


class TestQueries:
    def test_render_history_table_and_empty(self, monkeypatch, ledger):
        assert render_history([]) == "(ledger empty)"
        add_run("fig2", 1e6, rev="aaa", monkeypatch=monkeypatch)
        add_run("fig3", 2e6, rev="bbb", monkeypatch=monkeypatch)
        entries, _ = load_entries(ledger)
        text = render_history(entries)
        assert "fig2" in text and "fig3" in text
        assert "aaa" in text and "bbb" in text
        only = render_history(entries, bench="fig3")
        assert "fig3" in only and "fig2" not in only

    def test_diff_rows_latest_per_rev(self, monkeypatch, ledger):
        add_run("fig2", 1000.0, rev="aaa", monkeypatch=monkeypatch)
        add_run("fig2", 1100.0, rev="aaa", monkeypatch=monkeypatch)
        add_run("fig2", 1650.0, rev="bbb", monkeypatch=monkeypatch)
        entries, _ = load_entries(ledger)
        rows = diff_rows(entries, "aaa", "bbb")
        assert len(rows) == 1
        assert rows[0]["aaa"] == 1100.0  # latest aaa run wins
        assert rows[0]["bbb"] == 1650.0
        assert rows[0]["delta_pct"] == pytest.approx(50.0)
        assert "+50.0%" in render_diff(entries, "aaa", "bbb")

    def test_diff_missing_rev_renders_placeholder(self, monkeypatch, ledger):
        add_run("fig2", 1000.0, rev="aaa", monkeypatch=monkeypatch)
        entries, _ = load_entries(ledger)
        text = render_diff(entries, "aaa", "zzz")
        assert "-" in text
        assert render_diff([], "aaa", "zzz").startswith("(no ledger rows")


class TestRegressGate:
    def test_fifty_percent_slowdown_fails(self, ledger):
        for bps in (1000.0, 1010.0, 990.0):
            add_run("fig2", bps)
        add_run("fig2", 500.0)  # injected 50% slowdown
        entries, _ = load_entries(ledger)
        report = regress_report(entries, threshold_pct=10.0)
        assert report.exit_code(strict=False) == 1
        finding = [f for f in report.findings if f.check == "obs.regression"]
        assert len(finding) == 1
        assert finding[0].data["delta_pct"] == pytest.approx(-50.0, abs=2.0)

    def test_steady_throughput_passes(self, ledger):
        for bps in (1000.0, 1010.0, 990.0, 1005.0):
            add_run("fig2", bps)
        entries, _ = load_entries(ledger)
        report = regress_report(entries, threshold_pct=10.0)
        assert report.exit_code(strict=False) == 0
        assert any(f.check == "obs.regress-ok" for f in report.findings)

    def test_single_run_has_no_baseline(self, ledger):
        add_run("fig2", 1000.0)
        entries, _ = load_entries(ledger)
        report = regress_report(entries)
        assert report.exit_code(strict=False) == 0
        assert any(
            f.check == "obs.regress-baseline" for f in report.findings
        )

    def test_empty_ledger_is_informational(self):
        report = regress_report([])
        assert report.exit_code(strict=False) == 0
        assert any(f.check == "obs.regress-empty" for f in report.findings)

    def test_baseline_window_bounds_history(self, ledger):
        # Ancient fast runs fall outside the window; recent history is
        # slow, so the equally slow latest run passes.
        for bps in (9000.0, 9000.0, 1000.0, 1000.0, 1000.0):
            add_run("fig2", bps)
        add_run("fig2", 950.0)
        entries, _ = load_entries(ledger)
        report = regress_report(entries, threshold_pct=10.0, baseline_window=3)
        assert report.exit_code(strict=False) == 0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ReproError):
            regress_report([], threshold_pct=0.0)
        with pytest.raises(ReproError):
            regress_report([], baseline_window=0)


class TestLedgerCli:
    def test_history_json_two_rows(self, monkeypatch, capsys, ledger):
        add_run("fig2", 1e6, rev="aaa", monkeypatch=monkeypatch)
        add_run("fig2", 2e6, rev="bbb", monkeypatch=monkeypatch)
        assert main(["obs", "history", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["git_rev"] for r in rows] == ["aaa", "bbb"]
        assert main(["obs", "history"]) == 0
        assert "branches/s" in capsys.readouterr().out

    def test_diff_cli(self, monkeypatch, capsys, ledger):
        add_run("fig2", 1000.0, rev="aaa", monkeypatch=monkeypatch)
        add_run("fig2", 2000.0, rev="bbb", monkeypatch=monkeypatch)
        assert main(["obs", "diff", "aaa", "bbb"]) == 0
        assert "+100.0%" in capsys.readouterr().out
        assert main(["obs", "diff", "aaa", "bbb", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["delta_pct"] == pytest.approx(100.0)

    def test_regress_cli_exit_codes(self, capsys, ledger):
        for bps in (1000.0, 1000.0, 1000.0):
            add_run("fig2", bps)
        assert main(["obs", "regress", "--threshold", "50"]) == 0
        capsys.readouterr()
        add_run("fig2", 400.0)  # 60% below the median
        assert main(["obs", "regress", "--threshold", "50"]) == 1
        out = capsys.readouterr().out
        assert "obs.regression" in out
        assert main(["obs", "regress", "--threshold", "70"]) == 0

    def test_regress_json_schema(self, capsys, ledger):
        add_run("fig2", 1000.0)
        assert main(["obs", "regress", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["check"] == "obs.regress-baseline"

    def test_disabled_ledger_errors_cleanly(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEDGER", "")
        assert main(["obs", "history"]) == EXIT_ERROR
        assert "disabled" in capsys.readouterr().err

    def test_explicit_ledger_flag(self, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        add_run("fig2", 1.0, path=str(other))
        assert main(["obs", "history", "--ledger", str(other)]) == 0
        assert "fig2" in capsys.readouterr().out

    def test_run_appends_ledger_row(self, capsys, ledger):
        code = main(
            ["run", "fig2", "--length", "2000",
             "--benchmark", "compress", "--sizes", "4"]
        )
        assert code == 0
        capsys.readouterr()
        entries, bad = load_entries(ledger)
        assert bad == []
        assert len(entries) == 1
        assert entries[0]["bench"] == "fig2"
        assert entries[0]["branches"] > 0
        assert "sweep_keys" not in entries[0]
        assert entries[0]["cpu_s"] >= entries[0]["wall_s"] * 0.99

    def test_append_entry_requires_no_crc(self, ledger):
        path = append_entry({"schema": LEDGER_SCHEMA, "bench": "x"})
        entries, bad = load_entries(path)
        assert bad == [] and entries[0]["bench"] == "x"
