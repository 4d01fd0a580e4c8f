"""Exporter tests: Prometheus textfiles."""

import pytest

from repro.cli import EXIT_ERROR, main
from repro.obs import get_tracer, reset_metrics
from repro.obs.export import (
    ledger_prometheus_text,
    prometheus_text,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_telemetry():
    reset_metrics()
    get_tracer().reset()
    yield
    get_tracer().close_sink()
    get_tracer().reset()
    reset_metrics()


class TestPrometheusText:
    def snapshot(self):
        registry = MetricsRegistry()
        registry.counter("sim.branches").inc(42)
        registry.gauge("g.x").set(7)
        for v in (0.5, 1.5, 2.5):
            registry.histogram("engine.branches_per_sec").observe(v)
        return registry.snapshot()

    def test_counters_gauges_histograms(self):
        text = prometheus_text(self.snapshot())
        assert "repro_sim_branches_total 42.0" in text
        assert "repro_g_x 7.0" in text
        assert 'repro_engine_branches_per_sec{quantile="0.5"}' in text
        assert 'repro_engine_branches_per_sec{quantile="0.99"}' in text
        assert "repro_engine_branches_per_sec_sum 4.5" in text
        assert "repro_engine_branches_per_sec_count 3" in text
        assert "# TYPE repro_sim_branches_total counter" in text
        assert "# TYPE repro_engine_branches_per_sec summary" in text

    def test_empty_histograms_omitted(self):
        text = prometheus_text(MetricsRegistry().snapshot())
        assert "repro_engine_branches_per_sec_count" not in text

    def test_names_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("a.b-c/d").inc()
        assert "repro_a_b_c_d_total" in prometheus_text(registry.snapshot())

    def test_ledger_gauges(self):
        entries = [
            {"bench": "fig2", "branches_per_sec": 1e6, "wall_s": 2.0},
            {"bench": "fig2", "branches_per_sec": 2e6, "wall_s": 1.0},
            {"bench": "fig3", "branches_per_sec": 3e6, "wall_s": 4.0},
        ]
        text = ledger_prometheus_text(entries)
        # Latest row per bench wins.
        assert 'repro_bench_branches_per_sec{bench="fig2"} 2000000.0' in text
        assert 'repro_bench_branches_per_sec{bench="fig3"} 3000000.0' in text
        assert 'repro_bench_wall_seconds{bench="fig2"} 1.0' in text
        assert ledger_prometheus_text([]) == ""

    def test_write_prometheus_combines(self, tmp_path):
        out = tmp_path / "repro.prom"
        text = write_prometheus(
            str(out),
            snapshot=self.snapshot(),
            ledger_entries=[{"bench": "fig2", "branches_per_sec": 5.0}],
        )
        assert out.read_text() == text
        assert "repro_sim_branches_total" in text
        assert 'repro_bench_branches_per_sec{bench="fig2"}' in text


class TestExportPromCli:
    def test_export_from_metrics_file(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        code = main(
            ["run", "fig2", "--length", "2000", "--benchmark", "compress",
             "--sizes", "4", "--metrics-out", str(metrics)]
        )
        assert code == 0
        out = tmp_path / "repro.prom"
        code = main(
            ["obs", "export-prom", str(out), "--metrics", str(metrics),
             "--with-ledger"]
        )
        assert code == 0
        text = out.read_text()
        assert "repro_sim_branches_total" in text
        # The run itself landed in the ledger; --with-ledger exports it.
        assert 'repro_bench_branches_per_sec{bench="fig2"}' in text

    def test_export_live_registry(self, tmp_path):
        out = tmp_path / "live.prom"
        assert main(["obs", "export-prom", str(out)]) == 0
        assert "repro_" in out.read_text()

    def test_unreadable_metrics_file_errors(self, tmp_path, capsys):
        out = tmp_path / "x.prom"
        code = main(
            ["obs", "export-prom", str(out),
             "--metrics", str(tmp_path / "absent.json")]
        )
        assert code == EXIT_ERROR
        assert "cannot read metrics" in capsys.readouterr().err
