"""Phase spans: the hot stages are always-on spans with self time."""

import json

import pytest

from repro.cli import main
from repro.obs import get_tracer, reset_metrics, snapshot, summarize_path
from repro.sim.sweep import sweep_tiers
from repro.workloads.registry import clear_cache, make_workload

#: The spans one vectorized engine call opens, outermost first.
ENGINE_SPANS = ("engine.vectorized", "index_stream", "counter_update", "fsm_scan")

RUN = ["run", "fig4", "--length", "2000", "--benchmark", "compress",
       "--sizes", "4"]


@pytest.fixture(autouse=True)
def _clean_telemetry():
    reset_metrics()
    get_tracer().reset()
    yield
    get_tracer().close_sink()
    get_tracer().reset()
    reset_metrics()


@pytest.fixture
def trace():
    return make_workload("compress", length=4000, seed=0)


def _span_rows(text):
    """``name -> (count, total_s, self_s)`` from a rendered span table."""
    rows = {}
    lines = iter(text.splitlines())
    for line in lines:
        if line == "phase timings":
            break
    next(lines), next(lines)  # header and rule
    for line in lines:
        if not line.strip():
            break
        name, count, total, self_s, _, _ = line.split()
        rows[name] = (int(count), float(total), float(self_s))
    return rows


class TestEngineSpans:
    def test_every_run_reports_engine_spans(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert main(RUN + ["--metrics-out", str(metrics)]) == 0
        report = json.loads(metrics.read_text())
        spans = report["spans"]
        points = report["counters"]["sweep.points_computed"]
        assert points == 5
        for name in ENGINE_SPANS:
            assert spans[name]["count"] == points
            assert 0.0 <= spans[name]["self_s"] <= spans[name]["total_s"]
        assert "simulate" not in spans and "sweep.point" not in spans
        assert not [h for h in report["histograms"] if h.startswith("sim.phase.")]
        assert "sweep.point_s" not in report["histograms"]

    def test_phase_sum_matches_wall_on_micro_sweep(self, trace):
        """Engine self time plus its stage spans' self time tile sim.wall_s."""
        sweep_tiers("gas", trace, size_bits=[4, 6])
        spans = get_tracer().aggregates()
        wall = snapshot()["counters"]["sim.wall_s"]
        phase_sum = sum(spans[name]["self_s"] for name in ENGINE_SPANS)
        assert wall > 0
        assert phase_sum == pytest.approx(wall, rel=0.05)

    def test_fsm_scan_nests_inside_counter_update(self, trace):
        sweep_tiers("gas", trace, size_bits=[4])
        spans = get_tracer().aggregates()
        update, scan = spans["counter_update"], spans["fsm_scan"]
        assert scan["self_s"] == pytest.approx(scan["total_s"])
        assert update["self_s"] == pytest.approx(
            update["total_s"] - scan["total_s"]
        )

    def test_generation_is_a_span_and_cache_hits_open_none(self):
        clear_cache()
        make_workload("compress", length=1000, seed=7, cache=True)
        make_workload("compress", length=1000, seed=7, cache=True)
        assert get_tracer().aggregates()["workload.generate"]["count"] == 1

    def test_children_tile_a_cold_experiment(self, monkeypatch):
        from repro.experiments.base import ExperimentOptions
        from repro.experiments.runner import run_experiment

        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        clear_cache()
        options = ExperimentOptions(length=20000, benchmarks=["mpeg_play"])
        run_experiment("fig4", options)
        experiment = get_tracer().aggregates()["experiment"]
        assert experiment["self_s"] <= 0.10 * experiment["total_s"]


class TestSummary:
    def test_metrics_and_trace_files_agree(self, tmp_path, capsys):
        metrics, spans = tmp_path / "m.json", tmp_path / "t.jsonl"
        code = main(
            RUN + ["--metrics-out", str(metrics), "--trace-out", str(spans)]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(metrics)]) == 0
        from_metrics = _span_rows(capsys.readouterr().out)
        assert main(["obs", "summarize", str(spans)]) == 0
        from_trace = _span_rows(capsys.readouterr().out)
        assert set(ENGINE_SPANS) <= set(from_metrics)
        assert from_metrics.keys() == from_trace.keys()
        for name, (count, total, self_s) in from_metrics.items():
            assert from_trace[name][0] == count
            # Both render to 4 decimals; the trace rounds each line to 1 ns.
            assert from_trace[name][1] == pytest.approx(total, abs=2e-4)
            assert from_trace[name][2] == pytest.approx(self_s, abs=2e-4)

    def test_summarize_renders_self_time(self, trace, tmp_path):
        from repro.obs import write_metrics

        sweep_tiers("gas", trace, size_bits=[4])
        path = tmp_path / "m.json"
        write_metrics(str(path))
        rows = _span_rows(summarize_path(str(path)))
        assert rows["fsm_scan"][0] == 5
        assert rows["counter_update"][2] <= rows["counter_update"][1]
