"""Worker-pool tests: identity, fault paths, crash safety, services.

The contract under test: ``sweep_tiers(..., workers=N)`` must produce
*exactly* the serial results — same points, same floats, same tier
order — while surviving worker errors and deaths, parent SIGINT, and
injected faults. The parent is the only process that writes finished
points, so a SIGKILLed run resumes from the result artifacts it left,
and its workers never outlive it. The trace store, plan-from-estimate
pruning and estimator-driven aliasing repair are covered here too.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import pytest

from repro.check.static_alias import check_aliasing
from repro.cli import EXIT_INTERRUPT, main
from repro.errors import ConfigurationError
from repro.obs import get_tracer, reset_metrics, snapshot
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.runtime import clear_faults, install_faults
from repro.sim.sweep import sweep_tiers
from repro.workloads.registry import make_workload
from repro.workloads.store import TraceStore


@pytest.fixture(autouse=True)
def _clean_runtime(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    clear_faults()
    reset_metrics()
    get_tracer().reset()
    yield
    clear_faults()
    reset_metrics()
    get_tracer().close_sink()
    get_tracer().reset()


@pytest.fixture(scope="module")
def trace():
    return make_workload("compress", length=4_000, seed=2)


def surface_cells(surface):
    """Every field of every point, in rendering order — equality on
    this is byte-for-byte equality of the sweep's results."""
    return [
        (n, p.col_bits, p.row_bits, p.misprediction_rate,
         p.aliasing_rate, p.first_level_miss_rate)
        for n, points in surface.tiers.items()
        for p in points
    ]


class TestParallelIdentity:
    @pytest.mark.parametrize("scheme", ["gas", "gshare"])
    def test_matches_serial_exactly(self, scheme, trace):
        serial = sweep_tiers(scheme, trace, size_bits=[4, 5])
        parallel = sweep_tiers(scheme, trace, size_bits=[4, 5], workers=2)
        assert surface_cells(parallel) == surface_cells(serial)

    def test_matches_serial_with_checkpoint_dir(self, trace, tmp_path):
        serial = sweep_tiers("gas", trace, size_bits=[4, 5])
        parallel = sweep_tiers(
            "gas", trace, size_bits=[4, 5], workers=3,
            checkpoint_dir=str(tmp_path),
        )
        assert surface_cells(parallel) == surface_cells(serial)
        # One result artifact per point, written by the parent; nothing
        # else (no journal, no worker scratch) is left behind.
        assert sorted(os.listdir(tmp_path)) == sorted(
            p.name for p in tmp_path.glob("rs-*.json")
        )
        assert len(os.listdir(tmp_path)) == 11

    def test_tier_order_follows_plan_not_completion(self, trace):
        surface = sweep_tiers("gas", trace, size_bits=[5, 4], workers=2)
        assert list(surface.tiers) == [5, 4]
        for points in surface.tiers.values():
            rows = [p.row_bits for p in points]
            assert rows == sorted(rows)

    def test_ephemeral_journal_leaves_no_tempdirs(self, trace):
        pattern = os.path.join(tempfile.gettempdir(), "repro-sweep-*")
        before = set(glob.glob(pattern))
        sweep_tiers("gas", trace, size_bits=[4], workers=2)
        assert set(glob.glob(pattern)) == before

    def test_workers_must_be_positive(self, trace):
        with pytest.raises(ConfigurationError):
            sweep_tiers("gas", trace, size_bits=[4], workers=0)


class TestWorkerCrashResilience:
    def test_all_workers_crashing_falls_back_to_serial(
        self, trace, monkeypatch
    ):
        serial_cells = surface_cells(
            sweep_tiers("gas", trace, size_bits=[4])
        )
        reset_metrics()
        monkeypatch.setenv("REPRO_FAULT_SPEC", "exec.worker:raise")
        surface = sweep_tiers("gas", trace, size_bits=[4], workers=2)
        assert surface_cells(surface) == serial_cells
        counters = snapshot()["counters"]
        assert counters["exec.worker_failures"] > 0
        assert counters["sweep.points_computed"] == 5

    def test_killed_worker_points_survive_in_journal(
        self, trace, monkeypatch
    ):
        # Every worker returns one point and is SIGKILLed on its second
        # (the fault fires per process): the parent keeps the returned
        # points, replaces the dead workers, re-dispatches their
        # in-flight points, and converges on the serial surface.
        serial_cells = surface_cells(
            sweep_tiers("gas", trace, size_bits=[4])
        )
        reset_metrics()
        monkeypatch.setenv("REPRO_FAULT_SPEC", "exec.worker:kill@2")
        surface = sweep_tiers("gas", trace, size_bits=[4], workers=2)
        assert surface_cells(surface) == serial_cells
        counters = snapshot()["counters"]
        assert counters["exec.worker_failures"] >= 1
        # Replacement workers made progress after the deaths.
        assert counters["exec.workers_spawned"] > 2

    def test_interrupted_parallel_run_resumes_from_journal(
        self, trace, tmp_path, monkeypatch
    ):
        serial_cells = surface_cells(
            sweep_tiers("gas", trace, size_bits=[4, 5])
        )
        monkeypatch.setenv("REPRO_FAULT_SPEC", "exec.poll:interrupt@1")
        with pytest.raises(KeyboardInterrupt):
            sweep_tiers(
                "gas", trace, size_bits=[4, 5], workers=2,
                checkpoint_dir=str(tmp_path),
            )
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        resumed = sweep_tiers(
            "gas", trace, size_bits=[4, 5], workers=2,
            checkpoint_dir=str(tmp_path),
        )
        assert surface_cells(resumed) == serial_cells


class TestWorkerFaultRetry:
    def test_transient_point_fault_retries_inside_worker(
        self, trace, monkeypatch
    ):
        serial_cells = surface_cells(
            sweep_tiers("gas", trace, size_bits=[4])
        )
        reset_metrics()
        # One injected failure per worker process, under the retry
        # wrapper: the point retries and succeeds, the worker lives,
        # and the sweep never degrades to respawn rounds.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "sweep.point:raise@2")
        surface = sweep_tiers("gas", trace, size_bits=[4], workers=2)
        assert surface_cells(surface) == serial_cells
        counters = snapshot()["counters"]
        assert counters["retry.attempts"] >= 1
        assert counters.get("exec.worker_failures", 0) == 0


class TestCliParallel:
    RUN = ["run", "fig4", "--length", "2000",
           "--benchmark", "compress", "--sizes", "4"]

    def test_workers_flag_matches_serial_output(self, capsys):
        assert main(self.RUN) == 0
        baseline = capsys.readouterr().out
        assert main(self.RUN + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == baseline

    def test_parallel_interrupt_exits_130_and_resumes(
        self, tmp_path, capsys
    ):
        assert main(self.RUN) == 0
        baseline = capsys.readouterr().out
        install_faults("exec.poll:interrupt@1")
        code = main(
            self.RUN + ["--checkpoint-dir", str(tmp_path),
                        "--workers", "2"]
        )
        assert code == EXIT_INTERRUPT
        assert "interrupted" in capsys.readouterr().err
        clear_faults()
        code = main(
            self.RUN + ["--checkpoint-dir", str(tmp_path),
                        "--workers", "2"]
        )
        assert code == 0
        assert capsys.readouterr().out == baseline


class TestPlanFromEstimate:
    def test_high_threshold_prunes_everything(self, trace):
        surface = sweep_tiers(
            "gas", trace, size_bits=[4], plan_from_estimate=1.0
        )
        assert surface.tiers == {}
        assert snapshot()["counters"]["sweep.points_pruned"] == 5

    def test_zero_threshold_prunes_nothing(self, trace):
        serial_cells = surface_cells(
            sweep_tiers("gas", trace, size_bits=[4])
        )
        surface = sweep_tiers(
            "gas", trace, size_bits=[4], plan_from_estimate=0.0
        )
        assert surface_cells(surface) == serial_cells
        assert snapshot()["counters"].get("sweep.points_pruned", 0) == 0

    def test_pruning_is_logged_not_silent(self, trace, caplog):
        with caplog.at_level("WARNING", logger="repro.sim.sweep"):
            sweep_tiers(
                "gas", trace, size_bits=[4], plan_from_estimate=1.0
            )
        assert any(
            "pruned 5 of 5" in record.getMessage()
            for record in caplog.records
        )

    def test_cli_flag(self, capsys):
        base = ["run", "fig4", "--length", "2000", "--benchmark",
                "compress", "--sizes", "4"]
        assert main(base) == 0
        baseline = capsys.readouterr().out
        # Threshold 0 keeps every point (pruning is strictly below),
        # so the flag must be output-neutral.
        assert main(base + ["--plan-from-estimate", "0.0"]) == 0
        assert capsys.readouterr().out == baseline


class TestTraceStore:
    def test_from_env_requires_variable(self, tmp_path, monkeypatch):
        assert TraceStore.from_env() is None
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        store = TraceStore.from_env()
        assert store is not None
        assert store.directory == str(tmp_path)

    def test_get_counts_hits_and_misses(self, tmp_path):
        store = TraceStore(str(tmp_path))
        first = store.get("compress", length=2_000, seed=1)
        second = store.get("compress", length=2_000, seed=1)
        counters = snapshot()["counters"]
        assert counters["store.misses"] == 1
        assert counters["store.hits"] == 1
        assert list(first.taken) == list(second.taken)

    def test_get_or_create_caches_by_key(self, tmp_path):
        store = TraceStore(str(tmp_path))
        calls = []

        def factory():
            calls.append(1)
            return make_workload("compress", length=1_000, seed=5)

        first = store.get_or_create("micro-x", factory)
        second = store.get_or_create("micro-x", factory)
        assert calls == [1]
        assert list(first.taken) == list(second.taken)

    def test_put_is_keyed_by_fingerprint(self, tmp_path, trace):
        store = TraceStore(str(tmp_path))
        path = store.put(trace)
        assert trace.fingerprint() in os.path.basename(path)
        again = store.put(trace)
        assert again == path
        assert snapshot()["counters"]["store.hits"] == 1

    def test_experiment_trace_goes_through_store(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.base import ExperimentOptions

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        options = ExperimentOptions(length=2_000, seed=3)
        options.trace("compress")
        options.trace("compress")
        counters = snapshot()["counters"]
        assert counters["store.misses"] == 1
        assert counters["store.hits"] == 1

    def test_validate_dealias_goes_through_store(
        self, tmp_path, monkeypatch
    ):
        import repro.check.estimator as estimator

        monkeypatch.setattr(
            estimator, "VALIDATION_TRACE_LENGTH", 2_000
        )
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        estimator.validate_dealias(
            micros=["mixed-field"], schemes=["gshare"], size_bits=[5]
        )
        assert snapshot()["counters"]["store.misses"] == 1
        assert list(tmp_path.glob("micro-mixed-field-L2000.npz"))
        estimator.validate_dealias(
            micros=["mixed-field"], schemes=["gshare"], size_bits=[5]
        )
        assert snapshot()["counters"]["store.hits"] == 1


class TestAliasingFix:
    def test_warning_carries_suggested_budget(self):
        findings = check_aliasing(
            benchmarks=["compress"], schemes=["gshare"],
            size_bits=[4], fix=True,
        )
        warnings = [
            f for f in findings
            if f.check == "alias.pressure" and f.severity == "warning"
        ]
        assert warnings
        for finding in warnings:
            suggested = finding.data["suggested_budget_bits"]
            assert suggested is not None and suggested > 4
            assert "fix:" in finding.why

    def test_without_fix_no_suggestion(self):
        findings = check_aliasing(
            benchmarks=["compress"], schemes=["gshare"], size_bits=[4]
        )
        assert all(
            "suggested_budget_bits" not in f.data for f in findings
        )

    def test_smallest_sufficient_budget_bounds(self):
        from repro.aliasing.weights import branch_weights_from_program
        from repro.check.estimator import smallest_sufficient_budget
        from repro.workloads.profiles import get_profile
        from repro.workloads.program import build_program

        program = build_program(get_profile("compress"), seed=0)
        weights = branch_weights_from_program(program)
        budget = smallest_sufficient_budget("gshare", weights, 5)
        assert budget is not None and budget >= 5
        assert (
            smallest_sufficient_budget(
                "gshare", weights, 5, max_bits=budget - 1
            )
            is None
        )


class TestTelemetryMerge:
    def test_histogram_absorb(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("sweep.point_s")
        histogram.observe(1.0)
        histogram.absorb(
            {"count": 2, "total": 6.0, "min": 2.0, "max": 4.0}
        )
        summary = registry.snapshot()["histograms"]["sweep.point_s"]
        assert summary["count"] == 3
        assert summary["total"] == 7.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0

    def test_tracer_absorb_aggregates(self):
        tracer = SpanTracer()
        tracer.absorb_aggregates(
            {"sweep.point": {"count": 2, "total_s": 3.0,
                             "min_s": 1.0, "max_s": 2.0}}
        )
        tracer.absorb_aggregates(
            {"sweep.point": {"count": 1, "total_s": 0.5,
                             "min_s": 0.5, "max_s": 0.5}}
        )
        aggregates = tracer.aggregates()
        assert aggregates["sweep.point"]["count"] == 3
        assert aggregates["sweep.point"]["min_s"] == 0.5

    def test_parallel_run_merges_worker_telemetry(self, trace):
        sweep_tiers("gas", trace, size_bits=[4], workers=2)
        data = snapshot()
        assert data["counters"]["sim.branches"] == 5 * 4_000
        assert data["histograms"]["sweep.point_s"]["count"] == 5


SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: A fig4 run long enough (~100 points) to be killed part-way through.
KILL_RUN = ["run", "fig4", "--benchmark", "compress", "--length", "20000",
            "--sizes", "4", "5", "6", "7", "8", "9", "10", "11", "12"]


def _repro_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_LEDGER"] = ""
    return env


def _alive(pid):
    """Whether ``pid`` is a live (running, not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def _children(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as f:
            return [int(child) for child in f.read().split()]
    except OSError:
        return []


def _wait_for(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


@pytest.mark.skipif(
    not os.path.exists("/proc/self/task"), reason="needs Linux /proc"
)
class TestParentKill:
    def test_sigkilled_run_resumes_from_its_artifacts(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        env = _repro_env()
        serial = subprocess.run(
            [sys.executable, "-m", "repro", *KILL_RUN],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert serial.returncode == 0, serial.stderr
        total = sum(n + 1 for n in range(4, 13))

        run = subprocess.Popen(
            [sys.executable, "-m", "repro", *KILL_RUN, "--workers", "2",
             "--checkpoint-dir", str(ckpt)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            assert _wait_for(lambda: len(list(ckpt.glob("rs-*.json"))) >= 5)
        finally:
            run.kill()
            run.wait()
        found = len(list(ckpt.glob("rs-*.json")))
        assert 0 < found < total

        metrics = tmp_path / "m.json"
        resumed = subprocess.run(
            [sys.executable, "-m", "repro", *KILL_RUN, "--workers", "2",
             "--checkpoint-dir", str(ckpt), "--metrics-out", str(metrics)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == serial.stdout
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["sweep.points_computed"] == total - found
        assert counters["sweep.points_restored"] == found

    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        # Every worker stalls a minute inside its first point, so only
        # noticing the parent's death can end it within the bound.
        env = _repro_env()
        env["REPRO_FAULT_SPEC"] = "exec.worker:delay(60)"
        run = subprocess.Popen(
            [sys.executable, "-m", "repro", *KILL_RUN, "--workers", "2"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            assert _wait_for(lambda: len(_children(run.pid)) >= 2)
            workers = _children(run.pid)
        finally:
            run.send_signal(signal.SIGKILL)
            run.wait()
        assert _wait_for(
            lambda: not any(_alive(pid) for pid in workers), timeout=10.0
        ), [pid for pid in workers if _alive(pid)]
