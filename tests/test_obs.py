"""Observability-layer tests: spans, metrics, logging, reports, CLI."""

import json

import pytest

from repro.cli import EXIT_ERROR, main
from repro.obs import (
    METRICS_SCHEMA,
    ProgressReporter,
    collect,
    counter,
    get_tracer,
    histogram,
    render_summary,
    reset_metrics,
    snapshot,
    span,
    summarize_path,
    teardown_logging,
    traced,
    write_metrics,
)
from repro.obs.logging import JsonFormatter, KeyValueFormatter, setup_logging
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.runtime import clear_faults
from repro.sim.sweep import sweep_tiers
from repro.workloads.registry import make_workload


@pytest.fixture(autouse=True)
def _clean_telemetry():
    reset_metrics()
    get_tracer().reset()
    yield
    clear_faults()
    get_tracer().close_sink()
    get_tracer().reset()
    reset_metrics()
    teardown_logging()


@pytest.fixture
def trace():
    return make_workload("compress", length=2000, seed=0)


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = SpanTracer()
        with tracer.span("outer", k=1):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer" and outer.attrs == {"k": 1}
        assert [c.name for c in outer.children] == ["inner", "inner"]
        assert all(c.depth == 1 for c in outer.children)

    def test_timing_monotonicity(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert 0 <= inner.duration <= outer.duration

    def test_aggregates(self):
        tracer = SpanTracer()
        for _ in range(3):
            with tracer.span("work"):
                pass
        agg = tracer.aggregates()["work"]
        assert agg["count"] == 3
        assert agg["min_s"] <= agg["mean_s"] <= agg["max_s"]
        assert agg["total_s"] == pytest.approx(3 * agg["mean_s"])

    def test_record_cap_keeps_aggregates(self):
        tracer = SpanTracer(max_records=2)
        for _ in range(5):
            with tracer.span("work"):
                pass
        assert len(tracer.roots) == 2
        assert tracer.dropped == 3
        assert tracer.aggregates()["work"]["count"] == 5

    def test_jsonl_sink(self, tmp_path):
        tracer = SpanTracer()
        out = tmp_path / "trace.jsonl"
        tracer.configure_sink(str(out))
        with tracer.span("outer", scheme="gas"):
            with tracer.span("inner"):
                pass
        tracer.close_sink()
        records = [json.loads(line) for line in out.read_text().splitlines()]
        # Spans are written on completion: inner lands first.
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[1]["attrs"] == {"scheme": "gas"}
        assert records[0]["depth"] == 1
        assert all(r["dur_s"] >= 0 for r in records)

    def test_traced_decorator(self):
        @traced("decorated")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert get_tracer().aggregates()["decorated"]["count"] == 1

    def test_global_span_helper(self):
        with span("global_helper"):
            pass
        assert "global_helper" in get_tracer().aggregates()


class TestMetrics:
    def test_counter_semantics(self):
        registry = MetricsRegistry()
        c = registry.counter("x")
        c.inc()
        c.inc(2.5)
        assert registry.counter("x") is c
        assert registry.snapshot()["counters"]["x"] == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_histogram_semantics(self):
        registry = MetricsRegistry()
        h = registry.histogram("h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        summary = registry.snapshot()["histograms"]["h"]
        assert summary["count"] == 3
        assert summary["total"] == 6.0
        assert summary["mean"] == 2.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        # Bucketed percentiles are upper-bound estimates clamped to the
        # observed range; every observation landed in a real bucket.
        assert 1.0 <= summary["p50"] <= summary["p90"] <= summary["p99"] <= 3.0
        assert sum(n for _, n in summary["buckets"]) == 3

    def test_histogram_percentiles_spread(self):
        from repro.obs.metrics import BUCKET_BOUNDS, Histogram

        h = Histogram("h")
        for v in [0.001] * 90 + [10.0] * 10:
            h.observe(v)
        summary = h.summary()
        # p50 sits in the low mode, p99 in the high tail; the bucketed
        # estimate is within one log-spaced bucket of the true value.
        assert summary["p50"] <= BUCKET_BOUNDS[Histogram.bucket_index(0.001)]
        assert summary["p99"] >= 1.0
        assert summary["min"] == 0.001 and summary["max"] == 10.0

    def test_histogram_absorb_merges_buckets(self):
        from repro.obs.metrics import Histogram

        a = Histogram("a")
        b = Histogram("b")
        for v in (0.01, 0.02, 0.03):
            a.observe(v)
        for v in (5.0, 6.0, 7.0):
            b.observe(v)
        a.absorb(b.summary())
        merged = a.summary()
        assert merged["count"] == 6
        assert merged["min"] == 0.01 and merged["max"] == 7.0
        # The distribution survives the merge: the median stays near the
        # low half while p99 reflects the absorbed tail.
        assert merged["p50"] < 1.0
        assert merged["p99"] > 1.0
        assert sum(n for _, n in merged["buckets"]) == 6

    def test_gauge_and_reset(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(7)
        assert registry.snapshot()["gauges"]["g"] == 7
        registry.counter("guard.degradations").inc()
        registry.reset()
        snap = registry.snapshot()
        assert "g" not in snap["gauges"]
        assert snap["counters"]["guard.degradations"] == 0

    def test_well_known_counters_predeclared(self):
        snap = snapshot()
        for name in ("guard.degradations", "exec.worker_failures",
                     "sweep.points_restored", "faults.injected"):
            assert snap["counters"][name] == 0


class TestSweepTelemetry:
    def test_sweep_reports_points_and_branches(self, trace):
        sweep_tiers("gas", trace, size_bits=[4])
        counters = snapshot()["counters"]
        assert counters["sweep.points_computed"] == 5  # row_bits 0..4
        assert counters["sim.branches"] == 5 * len(trace)
        assert snapshot()["histograms"]["sweep.point_s"]["count"] == 5
        aggs = get_tracer().aggregates()
        assert aggs["sweep_tiers"]["count"] == 1
        assert aggs["sweep.point"]["count"] == 5

    def test_checkpointed_resume_counts_restored(self, tmp_path, trace):
        sweep_tiers("gas", trace, size_bits=[4],
                    checkpoint_dir=str(tmp_path))
        assert snapshot()["counters"]["sweep.points_computed"] == 5
        reset_metrics()
        sweep_tiers("gas", trace, size_bits=[4],
                    checkpoint_dir=str(tmp_path))
        counters = snapshot()["counters"]
        assert counters["sweep.points_restored"] == 5
        assert counters["sweep.points_computed"] == 0

    def test_fault_injected_degradation_increments_guard_counter(
        self, monkeypatch, trace
    ):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "engine.vectorized:raise@1")
        clear_faults()  # drop any cached plan so the env var is re-read
        sweep_tiers("gas", trace, size_bits=[4])
        counters = snapshot()["counters"]
        assert counters["guard.degradations"] == 1
        assert counters["faults.injected"] == 1
        assert counters["engine.reference.runs"] >= 1

    def test_on_point_hook_sees_every_point(self, tmp_path, trace):
        calls = []
        sweep_tiers(
            "gas", trace, size_bits=[4], checkpoint_dir=str(tmp_path),
            on_point=lambda point, done, total: calls.append((done, total)),
        )
        assert calls == [(i, 5) for i in range(1, 6)]
        # Restored points report through the same hook.
        calls.clear()
        sweep_tiers(
            "gas", trace, size_bits=[4], checkpoint_dir=str(tmp_path),
            on_point=lambda point, done, total: calls.append((done, total)),
        )
        assert calls == [(i, 5) for i in range(1, 6)]


class TestProgressReporter:
    def test_heartbeat_rate_and_eta(self, capsys):
        clock = iter(float(i) for i in range(100))
        reporter = ProgressReporter(
            label="fig4", min_interval_s=0.0, clock=lambda: next(clock)
        )
        for done in range(1, 4):
            reporter.on_point(None, done, 10)
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 3
        assert lines[-1].startswith("[progress] fig4")
        assert "3/10 points (30%)" in lines[-1]
        assert "pts/s" in lines[-1] and "eta" in lines[-1]

    def test_throttling(self, capsys):
        reporter = ProgressReporter(min_interval_s=3600.0, clock=lambda: 0.0)
        for done in range(1, 5):
            reporter.update(done, 100)
        assert reporter.emitted == 1  # only the first is due
        assert reporter.updates == 4


class TestLogging:
    def test_kv_formatter_appends_context(self):
        import logging as stdlib_logging

        record = stdlib_logging.LogRecord(
            "repro.x", stdlib_logging.WARNING, __file__, 1,
            "degraded", (), None,
        )
        record.kv = {"scheme": "gas", "n": 4}
        assert KeyValueFormatter().format(record) == "degraded scheme=gas n=4"

    def test_json_formatter(self):
        import logging as stdlib_logging

        record = stdlib_logging.LogRecord(
            "repro.x", stdlib_logging.ERROR, __file__, 1, "boom", (), None,
        )
        payload = json.loads(JsonFormatter().format(record))
        assert payload["level"] == "error"
        assert payload["logger"] == "repro.x"
        assert payload["msg"] == "boom"

    def test_setup_is_idempotent(self):
        import logging as stdlib_logging

        logger = setup_logging("info")
        setup_logging("debug")
        handlers = [
            h for h in stdlib_logging.getLogger("repro").handlers
        ]
        assert len(handlers) == 1
        assert logger.level == stdlib_logging.DEBUG

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            setup_logging("loud")


class TestReport:
    def test_collect_has_schema_and_derived(self, trace):
        sweep_tiers("gas", trace, size_bits=[4])
        report = collect()
        assert report["schema"] == METRICS_SCHEMA
        assert report["derived"]["branches_per_sec"] > 0
        assert report["counters"]["sweep.points_computed"] == 5

    def test_render_summary_lists_counters_and_spans(self, trace):
        sweep_tiers("gas", trace, size_bits=[4])
        text = render_summary()
        assert "phase timings" in text
        assert "sweep_tiers" in text
        assert "sweep.points_computed" in text

    def test_write_metrics_round_trip(self, tmp_path, trace):
        sweep_tiers("gas", trace, size_bits=[4])
        path = tmp_path / "m.json"
        write_metrics(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == METRICS_SCHEMA
        summary = summarize_path(str(path))
        assert "sweep_tiers" in summary and "counters" in summary

    def test_summarize_rejects_junk(self, tmp_path):
        bad = tmp_path / "junk.txt"
        bad.write_text("not json at all\n")
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            summarize_path(str(bad))

    def test_summarize_missing_file_is_a_repro_error(self, tmp_path):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            summarize_path(str(tmp_path / "absent.json"))


class TestCliTelemetry:
    RUN = ["run", "fig2", "--length", "2000",
           "--benchmark", "compress", "--sizes", "4", "6"]

    def test_metrics_and_trace_out(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        spans = tmp_path / "t.jsonl"
        code = main(
            self.RUN
            + ["--metrics-out", str(metrics), "--trace-out", str(spans)]
        )
        assert code == 0
        report = json.loads(metrics.read_text())
        assert report["schema"] == METRICS_SCHEMA
        assert report["derived"]["branches_per_sec"] > 0
        assert report["counters"]["guard.degradations"] == 0
        assert report["counters"]["sweep.points_restored"] == 0
        lines = [json.loads(l) for l in spans.read_text().splitlines()]
        assert any(r["name"] == "sweep_tiers" for r in lines)
        capsys.readouterr()
        # Round-trip both files through the summarize subcommand.
        assert main(["obs", "summarize", str(metrics)]) == 0
        assert "sweep.points_computed" in capsys.readouterr().out
        assert main(["obs", "summarize", str(spans)]) == 0
        assert "sweep_tiers" in capsys.readouterr().out

    def test_metrics_capture_checkpoint_and_fault_counters(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "engine.vectorized:raise@1")
        clear_faults()
        metrics = tmp_path / "m.json"
        code = main(
            self.RUN
            + ["--checkpoint-dir", str(tmp_path / "ckpt"),
               "--metrics-out", str(metrics)]
        )
        assert code == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["guard.degradations"] == 1
        assert counters["faults.injected"] == 1
        assert counters["sweep.points_computed"] == 2
        assert len(list((tmp_path / "ckpt").glob("rs-*.json"))) == 2

    def test_progress_heartbeat(self, capsys):
        assert main(self.RUN + ["--progress"]) == 0
        err = capsys.readouterr().err
        assert "[progress] fig2" in err
        assert "2/2 points (100%)" in err

    def test_error_path_still_one_line_via_logging(self, capsys):
        assert main(["run", "fig99", "--length", "100"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_json_log_format_error_line(self, capsys):
        code = main(
            ["run", "fig99", "--length", "100", "--log-format", "json"]
        )
        assert code == EXIT_ERROR
        payload = json.loads(capsys.readouterr().err)
        assert payload["level"] == "error"
        assert payload["msg"].startswith("error: ")

    def test_unwritable_metrics_path_errors(self, tmp_path, capsys):
        code = main(
            self.RUN + ["--metrics-out", str(tmp_path / "no" / "m.json")]
        )
        assert code == EXIT_ERROR
        assert "cannot write metrics" in capsys.readouterr().err


class TestCollectExtras:
    def test_extras_namespaced_under_extra(self):
        report = collect(extra={"experiment": "fig2", "note": 1})
        assert report["extra"] == {"experiment": "fig2", "note": 1}
        assert "experiment" not in report  # never a top-level key

    def test_reserved_keys_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError) as excinfo:
            collect(extra={"counters": {}, "schema": "x", "ok": 1})
        assert "counters" in str(excinfo.value)
        assert "schema" in str(excinfo.value)

    def test_no_extra_key_without_extras(self):
        assert "extra" not in collect()
        assert "extra" not in collect(extra={})

    def test_render_summary_shows_extras(self):
        text = render_summary(collect(extra={"experiment": "fig2"}))
        assert "extra" in text and "fig2" in text


class TestDerivedRates:
    """The wall/cpu split behind ``derived.branches_per_sec``."""

    def test_serial_wall_equals_cpu(self, trace):
        sweep_tiers("gas", trace, size_bits=[4])
        derived = collect()["derived"]
        assert derived["sim_wall_s"] > 0
        assert derived["sim_cpu_s"] == pytest.approx(derived["sim_wall_s"])
        assert derived["branches_per_sec"] == pytest.approx(
            5 * len(trace) / derived["sim_wall_s"]
        )

    def test_parallel_rate_uses_elapsed_wall_not_summed_cpu(self, trace):
        import time as _time

        started = _time.perf_counter()
        sweep_tiers("gas", trace, size_bits=[4], workers=2)
        outer_elapsed = _time.perf_counter() - started
        derived = collect()["derived"]
        # Wall is the parent's elapsed parallel region — bounded by the
        # region we just timed — not the sum of worker engine seconds
        # (which lands in sim_cpu_s instead).
        assert 0 < derived["sim_wall_s"] <= outer_elapsed
        assert derived["sim_cpu_s"] > 0
        assert derived["branches_per_sec"] == pytest.approx(
            5 * len(trace) / derived["sim_wall_s"]
        )


class TestSummarizeRobustness:
    def test_empty_file_is_a_repro_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(["obs", "summarize", str(empty)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "empty" in err and "Traceback" not in err

    def test_unknown_schema_is_a_repro_error(self, tmp_path, capsys):
        alien = tmp_path / "alien.json"
        alien.write_text(json.dumps({"schema": "somebody.else/9"}))
        assert main(["obs", "summarize", str(alien)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "somebody.else/9" in err and "Traceback" not in err

    def test_torn_final_trace_line_is_tolerated(self, tmp_path, capsys):
        spans = tmp_path / "t.jsonl"
        tracer = get_tracer()
        tracer.configure_sink(str(spans))
        with tracer.span("work"):
            pass
        tracer.close_sink()
        with open(spans, "a", encoding="ascii") as handle:
            handle.write('{"kind": "span", "name": "torn')
        assert main(["obs", "summarize", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "torn final line skipped" in out
        assert "work" in out

    def test_torn_mid_file_line_still_fails(self, tmp_path, capsys):
        spans = tmp_path / "t.jsonl"
        tracer = get_tracer()
        tracer.configure_sink(str(spans))
        with tracer.span("work"):
            pass
        tracer.close_sink()
        good = spans.read_text()
        spans.write_text(good + "junk\n" + good)
        assert main(["obs", "summarize", str(spans)]) == EXIT_ERROR
        assert "bad trace line" in capsys.readouterr().err
